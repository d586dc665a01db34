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

func TestEdgeDirs(t *testing.T) {
	db := tinyDBLP(t)
	g, err := Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Paper is referenced by Writes.paper, Cites.citing, Cites.cited: three
	// backward directions.
	dirs := g.EdgeDirs(db.RelIndex("Paper"))
	if len(dirs) != 3 {
		t.Fatalf("Paper has %d incident dirs, want 3: %+v", len(dirs), dirs)
	}
	for _, d := range dirs {
		if d.Forward {
			t.Errorf("Paper should only have backward dirs, got %+v", d)
		}
	}
	// Writes owns two FKs: two forward directions.
	dirs = g.EdgeDirs(db.RelIndex("Writes"))
	if len(dirs) != 2 {
		t.Fatalf("Writes has %d incident dirs, want 2", len(dirs))
	}
	for _, d := range dirs {
		if !d.Forward {
			t.Errorf("Writes should only have forward dirs, got %+v", d)
		}
	}
}

func TestNeighbors(t *testing.T) {
	db := tinyDBLP(t)
	g, err := Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Author a1 (tuple 0) -> Writes backward: rows 0 and 1.
	aIdx := db.RelIndex("Author")
	got := g.NeighborsAlong(aIdx, 0, EdgeType{Rel: "Writes", FK: 1}, false)
	want := []relational.TupleID{0, 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("a1 writes-backward = %v, want %v", got, want)
	}
	// Writes row 0 -> Paper forward: paper p1 (tuple 0).
	wIdx := db.RelIndex("Writes")
	got = g.NeighborsAlong(wIdx, 0, EdgeType{Rel: "Writes", FK: 0}, true)
	if !reflect.DeepEqual(got, []relational.TupleID{0}) {
		t.Errorf("writes0 paper-forward = %v, want [0]", got)
	}
	// Paper p1 cited by p2 via Cites: backward along Cites.cited.
	pIdx := db.RelIndex("Paper")
	got = g.NeighborsAlong(pIdx, 0, EdgeType{Rel: "Cites", FK: 1}, false)
	if !reflect.DeepEqual(got, []relational.TupleID{0}) {
		t.Errorf("p1 cited-backward = %v, want [0] (Cites row 0)", got)
	}
	// Missing edge direction.
	if got := g.NeighborsAlong(pIdx, 0, EdgeType{Rel: "Nope", FK: 0}, true); got != nil {
		t.Errorf("missing edge dir = %v, want nil", got)
	}
}

func TestDegree(t *testing.T) {
	db := tinyDBLP(t)
	g, err := Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	aIdx := db.RelIndex("Author")
	dirs := g.EdgeDirs(aIdx)
	if len(dirs) != 1 {
		t.Fatalf("Author dirs = %d, want 1", len(dirs))
	}
	if got := len(g.Neighbors(aIdx, 0, 0)); got != 2 {
		t.Errorf("Degree(a1) = %d, want 2", got)
	}
	if got := len(g.Neighbors(aIdx, 1, 0)); got != 1 {
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

func TestEdgeTypeString(t *testing.T) {
	et := EdgeType{Rel: "Writes", FK: 1}
	if got := et.String(); got != "Writes.fk1" {
		t.Errorf("String() = %q", got)
	}
}
