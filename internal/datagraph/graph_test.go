package datagraph

import (
	"reflect"
	"testing"

	"sizelos/internal/relational"
)

// tinyDBLP builds a miniature Author/Writes/Paper database:
//
//	a1 writes p1, p2;  a2 writes p1;  p2 cites p1.
func tinyDBLP(t *testing.T) *relational.DB {
	t.Helper()
	db := relational.NewDB("tiny")
	author := relational.MustNewRelation("Author",
		[]relational.Column{
			{Name: "id", Kind: relational.KindInt},
			{Name: "name", Kind: relational.KindString},
		}, "id", nil)
	paper := relational.MustNewRelation("Paper",
		[]relational.Column{
			{Name: "id", Kind: relational.KindInt},
			{Name: "title", Kind: relational.KindString},
		}, "id", nil)
	writes := relational.MustNewRelation("Writes",
		[]relational.Column{
			{Name: "id", Kind: relational.KindInt},
			{Name: "paper", Kind: relational.KindInt},
			{Name: "author", Kind: relational.KindInt},
		}, "id", []relational.ForeignKey{
			{Column: "paper", Ref: "Paper"},
			{Column: "author", Ref: "Author"},
		})
	cites := relational.MustNewRelation("Cites",
		[]relational.Column{
			{Name: "id", Kind: relational.KindInt},
			{Name: "citing", Kind: relational.KindInt},
			{Name: "cited", Kind: relational.KindInt},
		}, "id", []relational.ForeignKey{
			{Column: "citing", Ref: "Paper"},
			{Column: "cited", Ref: "Paper"},
		})
	db.MustAddRelation(author)
	db.MustAddRelation(paper)
	db.MustAddRelation(writes)
	db.MustAddRelation(cites)

	author.MustInsert(relational.Tuple{relational.IntVal(1), relational.StrVal("a1")})
	author.MustInsert(relational.Tuple{relational.IntVal(2), relational.StrVal("a2")})
	paper.MustInsert(relational.Tuple{relational.IntVal(1), relational.StrVal("p1")})
	paper.MustInsert(relational.Tuple{relational.IntVal(2), relational.StrVal("p2")})
	writes.MustInsert(relational.Tuple{relational.IntVal(1), relational.IntVal(1), relational.IntVal(1)})
	writes.MustInsert(relational.Tuple{relational.IntVal(2), relational.IntVal(2), relational.IntVal(1)})
	writes.MustInsert(relational.Tuple{relational.IntVal(3), relational.IntVal(1), relational.IntVal(2)})
	cites.MustInsert(relational.Tuple{relational.IntVal(1), relational.IntVal(2), relational.IntVal(1)})
	return db
}

func TestBuildCounts(t *testing.T) {
	db := tinyDBLP(t)
	g, err := Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := g.NumNodes(); got != 8 {
		t.Errorf("NumNodes = %d, want 8", got)
	}
	if got := g.RelSize(db.RelIndex("Writes")); got != 3 {
		t.Errorf("RelSize(Writes) = %d, want 3", got)
	}
}

func TestRefs(t *testing.T) {
	db := tinyDBLP(t)
	g, err := Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	author, paper, writes, cites := db.RelIndex("Author"), db.RelIndex("Paper"), db.RelIndex("Writes"), db.RelIndex("Cites")
	// Paper is referenced by Writes.paper, Cites.citing and Cites.cited, in
	// schema order; Author by Writes.author; the owners by nothing.
	want := make([][]fkRef, len(db.Relations))
	want[author] = []fkRef{{writes, 1}}
	want[paper] = []fkRef{{writes, 0}, {cites, 0}, {cites, 1}}
	if !reflect.DeepEqual(g.refs, want) {
		t.Fatalf("refs = %v, want %v", g.refs, want)
	}
	for rel, n := range map[int]int{author: 0, paper: 0, writes: 2, cites: 2} {
		if len(g.fks[rel]) != n {
			t.Errorf("relation %d owns %d FK edge sets, want %d", rel, len(g.fks[rel]), n)
		}
	}
}

func TestNeighbors(t *testing.T) {
	db := tinyDBLP(t)
	g, err := Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	writes, cites := db.RelIndex("Writes"), db.RelIndex("Cites")
	// Author a1 (tuple 0) <- Writes.author backward: rows 0 and 1.
	got := g.along(writes, 1, false, 0)
	want := []relational.TupleID{0, 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("a1 writes-backward = %v, want %v", got, want)
	}
	// Writes row 0 -> Paper forward: paper p1 (tuple 0).
	got = g.along(writes, 0, true, 0)
	if !reflect.DeepEqual(got, []relational.TupleID{0}) {
		t.Errorf("writes0 paper-forward = %v, want [0]", got)
	}
	// Paper p1 cited by p2 via Cites: backward along Cites.cited.
	got = g.along(cites, 1, false, 0)
	if !reflect.DeepEqual(got, []relational.TupleID{0}) {
		t.Errorf("p1 cited-backward = %v, want [0] (Cites row 0)", got)
	}
}

func TestDegree(t *testing.T) {
	db := tinyDBLP(t)
	g, err := Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if refs := g.refs[db.RelIndex("Author")]; len(refs) != 1 {
		t.Fatalf("Author referenced by %d FKs, want 1", len(refs))
	}
	writes := db.RelIndex("Writes")
	if got := len(g.along(writes, 1, false, 0)); got != 2 {
		t.Errorf("Degree(a1) = %d, want 2", got)
	}
	if got := len(g.along(writes, 1, false, 1)); got != 1 {
		t.Errorf("Degree(a2) = %d, want 1", got)
	}
}

func TestBuildDanglingFK(t *testing.T) {
	db := relational.NewDB("bad")
	p := relational.MustNewRelation("P", []relational.Column{{Name: "id", Kind: relational.KindInt}}, "id", nil)
	c := relational.MustNewRelation("C",
		[]relational.Column{{Name: "id", Kind: relational.KindInt}, {Name: "p", Kind: relational.KindInt}},
		"id", []relational.ForeignKey{{Column: "p", Ref: "P"}})
	db.MustAddRelation(p)
	db.MustAddRelation(c)
	c.MustInsert(relational.Tuple{relational.IntVal(1), relational.IntVal(99)})
	if _, err := Build(db); err == nil {
		t.Fatal("Build accepted dangling FK")
	}
}

func TestBuildUnknownRef(t *testing.T) {
	db := relational.NewDB("bad")
	c := relational.MustNewRelation("C",
		[]relational.Column{{Name: "id", Kind: relational.KindInt}, {Name: "p", Kind: relational.KindInt}},
		"id", []relational.ForeignKey{{Column: "p", Ref: "Ghost"}})
	db.MustAddRelation(c)
	if _, err := Build(db); err == nil {
		t.Fatal("Build accepted unknown FK target")
	}
}
