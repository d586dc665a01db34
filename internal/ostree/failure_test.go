package ostree

import (
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/relational"
)

// Missing scores for a relation named by the G_DS is a configuration error
// the source surfaces as a panic; Generate's callers (the facade) prevent
// it by construction. This test pins the failure mode.
func TestMissingScoresPanics(t *testing.T) {
	f := getFixture(t)
	gds := datagen.AuthorGDS()
	broken := relational.DBScores{}
	for k, v := range f.scores {
		if k != "Paper" {
			broken[k] = v
		}
	}
	src := NewGraphSource(f.graph, broken)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on missing Paper scores")
		}
	}()
	_, _ = Generate(src, gds, authorRoot(t, f, 1), GenOptions{})
}

// A G_DS node whose junction references a relation with no rows for the
// parent must yield an empty child set, not an error.
func TestEmptyJoinResults(t *testing.T) {
	f := getFixture(t)
	gds := datagen.AuthorGDS()
	// The least productive author may have very few papers; every extraction
	// path must tolerate empty joins. Use an author with no papers if one
	// exists, otherwise any author (the test is then vacuous but harmless).
	author := f.db.Relation("Author")
	writes := f.db.Relation("Writes")
	fk := writes.FKIndexOf("author")
	var root relational.TupleID = 0
	for i := 0; i < author.Len(); i++ {
		if len(f.db.JoinChildren(writes, fk, author.PK(relational.TupleID(i)))) == 0 {
			root = relational.TupleID(i)
			break
		}
	}
	tree, err := Generate(f.graphSource(), gds, root, GenOptions{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if tree.Len() < 1 {
		t.Fatal("tree must at least contain the root")
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// DBSource must not mutate relation data across repeated extractions
// (its caches are read-only indexes).
func TestDBSourceRepeatable(t *testing.T) {
	f := getFixture(t)
	gds := datagen.AuthorGDS()
	src := f.dbSource()
	root := authorRoot(t, f, 1)
	a, err := Generate(src, gds, root, GenOptions{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := Generate(src, gds, root, GenOptions{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("repeat generation differs: %d vs %d", a.Len(), b.Len())
	}
	// TopL twice with the same cached ordered index.
	paper := gds.Find("Paper")
	x := src.ChildrenTopL(paper, root, 0, 5)
	y := src.ChildrenTopL(paper, root, 0, 5)
	if len(x) != len(y) {
		t.Fatalf("cached TopL differs: %v vs %v", x, y)
	}
}

// Compact cuts each node's kept children from Iota, which holds only when
// they are consecutive, as in Build's breadth-first arena. On a tree where
// they are not (node 0's children 1 and 3 around node 1's child 2) it
// panics rather than return wrong child lists.
func TestCompactNonBreadthFirstPanics(t *testing.T) {
	tree := &Tree{Nodes: []Node{
		{Parent: None, Children: []NodeID{1, 3}},
		{Parent: 0, Children: []NodeID{2}, Depth: 1},
		{Parent: 1, Depth: 2},
		{Parent: 0, Depth: 1},
	}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-consecutive kept children")
		}
	}()
	tree.Compact([]NodeID{0, 1, 2, 3})
}
