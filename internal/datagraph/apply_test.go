package datagraph

import (
	"strings"
	"testing"

	"sizelos/internal/relational"
)

// assertGraphsEqual compares g against a from-scratch rebuild over the same
// database, edge for edge: every relation size, every foreign key in both
// directions, every tuple slot. This is the package-level notion of "edge-exact" the
// engine-level randomized harness reuses through EquivalentTo.
func assertGraphsEqual(t *testing.T, db *relational.DB, g *Graph) {
	t.Helper()
	want, err := Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if msg := g.EquivalentTo(want); msg != "" {
		t.Fatalf("incremental graph diverged from rebuild: %s", msg)
	}
}

func apply(t *testing.T, db *relational.DB, g *Graph, b relational.Batch) relational.BatchResult {
	t.Helper()
	res, err := db.Apply(b)
	if err != nil {
		t.Fatalf("DB.Apply: %v", err)
	}
	if err := g.Apply(res); err != nil {
		t.Fatalf("Graph.Apply: %v", err)
	}
	return res
}

// TestApplyInsertSplicesEdges inserts an author, a paper and the junction
// row linking them, and checks the graph matches a rebuild without one.
func TestApplyInsertSplicesEdges(t *testing.T) {
	db := tinyDBLP(t)
	g, err := Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	apply(t, db, g, relational.Batch{Inserts: []relational.InsertOp{
		{Rel: "Author", Tuple: relational.Tuple{relational.IntVal(3), relational.StrVal("a3")}},
		{Rel: "Paper", Tuple: relational.Tuple{relational.IntVal(3), relational.StrVal("p3")}},
		{Rel: "Writes", Tuple: relational.Tuple{relational.IntVal(4), relational.IntVal(3), relational.IntVal(3)}},
		{Rel: "Cites", Tuple: relational.Tuple{relational.IntVal(2), relational.IntVal(3), relational.IntVal(1)}},
	}})
	assertGraphsEqual(t, db, g)
	// The new paper's backward Writes list reaches the new junction row.
	nb := g.along(db.RelIndex("Writes"), 0, false, 2)
	if len(nb) != 1 || nb[0] != 3 {
		t.Fatalf("new paper's Writes backlist = %v, want [3]", nb)
	}
	if g.NumNodes() != 12 {
		t.Fatalf("NumNodes = %d, want 12", g.NumNodes())
	}
}

// TestApplyDeleteClearsBothDirections deletes a junction row and checks the
// paper and author both forget it, then cascades the paper away entirely.
func TestApplyDeleteClearsBothDirections(t *testing.T) {
	db := tinyDBLP(t)
	g, err := Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Delete writes row 2 (a1 writes p2), then the citation into p1, then
	// paper p2 itself (now unreferenced).
	apply(t, db, g, relational.Batch{Deletes: []relational.DeleteOp{
		{Rel: "Writes", PK: 2},
		{Rel: "Cites", PK: 1},
		{Rel: "Paper", PK: 2},
	}})
	assertGraphsEqual(t, db, g)
	wi := db.RelIndex("Writes")
	if nb := g.along(wi, 0, true, 1); len(nb) != 0 {
		t.Fatalf("deleted junction row keeps neighbors %v", nb)
	}
}

// TestApplyDeleteThenReinsertSamePK reuses a primary key in one batch: the
// old slot must stay disconnected, the fresh slot must carry the edges.
func TestApplyDeleteThenReinsertSamePK(t *testing.T) {
	db := tinyDBLP(t)
	g, err := Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	apply(t, db, g, relational.Batch{
		Deletes: []relational.DeleteOp{{Rel: "Cites", PK: 1}},
		Inserts: []relational.InsertOp{
			{Rel: "Cites", Tuple: relational.Tuple{relational.IntVal(1), relational.IntVal(1), relational.IntVal(2)}},
		},
	})
	assertGraphsEqual(t, db, g)
}

// TestApplyAcrossManyBatches drives a sequence of single-tuple batches —
// the streaming shape the incremental path exists for — asserting
// equivalence after every step and that the batches edited the graph built
// before them.
func TestApplyAcrossManyBatches(t *testing.T) {
	db := tinyDBLP(t)
	g, err := Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	before, err := Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for i := 0; i < 8; i++ {
		pk := int64(100 + i)
		apply(t, db, g, relational.Batch{Inserts: []relational.InsertOp{
			{Rel: "Author", Tuple: relational.Tuple{relational.IntVal(pk), relational.StrVal("an")}},
			{Rel: "Writes", Tuple: relational.Tuple{relational.IntVal(pk), relational.IntVal(1), relational.IntVal(pk)}},
		}})
		assertGraphsEqual(t, db, g)
	}
	for i := 0; i < 8; i++ {
		pk := int64(100 + i)
		apply(t, db, g, relational.Batch{Deletes: []relational.DeleteOp{
			{Rel: "Writes", PK: pk},
			{Rel: "Author", PK: pk},
		}})
		assertGraphsEqual(t, db, g)
	}
	if g.EquivalentTo(before) == "" {
		t.Fatal("16 incremental batches left the graph as it was built")
	}
}

// TestAlongResultsAreCapped appends a sentinel to every list Along returns
// and checks the graph still equals a rebuild: an append to one tuple's list
// must never write into another's storage. It runs on a fresh build and
// again after a batch that inserts and deletes.
func TestAlongResultsAreCapped(t *testing.T) {
	db := tinyDBLP(t)
	g, err := Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	scribble := func(stage string) {
		for rel, refs := range g.refs {
			for _, ref := range refs {
				for id := 0; id < g.sizes[ref.owner]; id++ {
					_ = append(g.along(ref.owner, ref.fk, true, relational.TupleID(id)), -7)
				}
				for id := 0; id < g.sizes[rel]; id++ {
					_ = append(g.along(ref.owner, ref.fk, false, relational.TupleID(id)), -7)
				}
			}
		}
		want, err := Build(db)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		if msg := g.EquivalentTo(want); msg != "" {
			t.Fatalf("%s: an append to an Along result changed another list: %s", stage, msg)
		}
	}
	scribble("fresh build")
	apply(t, db, g, relational.Batch{
		Deletes: []relational.DeleteOp{{Rel: "Writes", PK: 2}},
		Inserts: []relational.InsertOp{
			{Rel: "Author", Tuple: relational.Tuple{relational.IntVal(3), relational.StrVal("a3")}},
			{Rel: "Writes", Tuple: relational.Tuple{relational.IntVal(4), relational.IntVal(1), relational.IntVal(3)}},
			{Rel: "Writes", Tuple: relational.Tuple{relational.IntVal(5), relational.IntVal(2), relational.IntVal(2)}},
		},
	})
	scribble("after a batch")
}

// TestApplyUnknownRelation feeds a result naming a relation the graph was
// never built over.
func TestApplyUnknownRelation(t *testing.T) {
	db := tinyDBLP(t)
	g, err := Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	err = g.Apply(relational.BatchResult{Inserted: map[string][]relational.TupleID{"Nope": {0}}})
	if err == nil {
		t.Fatal("Apply with unknown relation succeeded")
	}
}

// TestApplyRefsPath drives the backward lists a delete clears through refs:
// a self-citation puts one Cites row in two backward lists of the same
// paper, deleting it retracts both, and deleting a paper after every Writes
// and Cites row referencing it clears all three of its backward lists.
func TestApplyRefsPath(t *testing.T) {
	db := tinyDBLP(t)
	g, err := Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for _, b := range []relational.Batch{
		// A self-citation enters p1's citing and cited lists...
		{Inserts: []relational.InsertOp{
			{Rel: "Cites", Tuple: relational.Tuple{relational.IntVal(2), relational.IntVal(1), relational.IntVal(1)}},
		}},
		// ...and leaves both.
		{Deletes: []relational.DeleteOp{
			{Rel: "Cites", PK: 2},
		}},
		// p1 goes after every row referencing it.
		{Deletes: []relational.DeleteOp{
			{Rel: "Writes", PK: 1},
			{Rel: "Writes", PK: 3},
			{Rel: "Cites", PK: 1},
			{Rel: "Paper", PK: 1},
		}},
	} {
		apply(t, db, g, b)
		assertGraphsEqual(t, db, g)
	}
	paper := db.RelIndex("Paper")
	for _, ref := range g.refs[paper] {
		if nb := g.along(ref.owner, ref.fk, false, 0); len(nb) != 0 {
			t.Errorf("deleted p1 keeps backward list %v under %+v", nb, ref)
		}
	}
}

// TestEquivalentToReportsEveryList changes exactly one list (or one relation
// size) of a second build over an identical database and checks the oracle
// reports the difference by name: a forward list, a backward list under each
// of the two FKs Cites holds into Paper, and a size.
func TestEquivalentToReportsEveryList(t *testing.T) {
	build := func() *Graph {
		g, err := Build(tinyDBLP(t))
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return g
	}
	g := build()
	if msg := g.EquivalentTo(build()); msg != "" {
		t.Fatalf("identical builds differ: %s", msg)
	}
	writes, cites, author := g.DB.RelIndex("Writes"), g.DB.RelIndex("Cites"), g.DB.RelIndex("Author")
	cases := []struct {
		want   string
		change func(h *Graph)
	}{
		// Writes row 0 references p1; point it at p2.
		{"Writes.paper forward, Writes tuple 0", func(h *Graph) {
			h.fks[writes][0].fwd[0] = 1
		}},
		// p1 cites nothing; p2's citing list is already [0].
		{"Cites.citing backward, Paper tuple 0", func(h *Graph) {
			h.fks[cites][0].bwd[0] = []relational.TupleID{0}
		}},
		// p2 is cited by nothing.
		{"Cites.cited backward, Paper tuple 1", func(h *Graph) {
			h.fks[cites][1].bwd[1] = []relational.TupleID{0}
		}},
		{"Author size 2 vs 3", func(h *Graph) { h.sizes[author]++ }},
	}
	for _, c := range cases {
		h := build()
		c.change(h)
		if msg := g.EquivalentTo(h); !strings.Contains(msg, c.want) {
			t.Errorf("changed %s: report %q does not name it", c.want, msg)
		}
	}
}
