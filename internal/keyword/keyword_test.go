package keyword

import (
	"reflect"
	"testing"

	"sizelos/internal/relational"
)

func libraryDB(t *testing.T) *relational.DB {
	t.Helper()
	db := relational.NewDB("lib")
	author := relational.MustNewRelation("Author",
		[]relational.Column{
			{Name: "id", Kind: relational.KindInt},
			{Name: "name", Kind: relational.KindString},
		}, "id", nil)
	book := relational.MustNewRelation("Book",
		[]relational.Column{
			{Name: "id", Kind: relational.KindInt},
			{Name: "title", Kind: relational.KindString},
			{Name: "blurb", Kind: relational.KindString},
		}, "id", nil)
	db.MustAddRelation(author)
	db.MustAddRelation(book)
	author.MustInsert(relational.Tuple{relational.IntVal(1), relational.StrVal("Christos Faloutsos")})
	author.MustInsert(relational.Tuple{relational.IntVal(2), relational.StrVal("Michalis Faloutsos")})
	author.MustInsert(relational.Tuple{relational.IntVal(3), relational.StrVal("Rakesh Agrawal")})
	book.MustInsert(relational.Tuple{relational.IntVal(1), relational.StrVal("Graph Mining"), relational.StrVal("power laws by Faloutsos")})
	book.MustInsert(relational.Tuple{relational.IntVal(2), relational.StrVal("Mining the Web"), relational.StrVal("classic text")})
	return db
}

func TestTokenize(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"Christos Faloutsos", []string{"christos", "faloutsos"}},
		{"Power-law, Topology!", []string{"power", "law", "topology"}},
		{"", nil},
		{"  ", nil},
		{"C3PO meets R2D2", []string{"c3po", "meets", "r2d2"}},
	}
	for _, tc := range tests {
		got := Tokenize(tc.in)
		if len(got) == 0 && len(tc.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// libraryIndex indexes libraryDB at four shards.
func libraryIndex(t *testing.T) *Sharded {
	t.Helper()
	return BuildSharded(libraryDB(t), ShardedOptions{NumShards: 4})
}

func TestLookupSingleKeyword(t *testing.T) {
	got := libraryIndex(t).Lookup("Author", []string{"faloutsos"})
	want := []relational.TupleID{0, 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Lookup(faloutsos) = %v, want %v", got, want)
	}
}

func TestLookupAND(t *testing.T) {
	idx := libraryIndex(t)
	got := idx.Lookup("Author", []string{"christos", "faloutsos"})
	if !reflect.DeepEqual(got, []relational.TupleID{0}) {
		t.Errorf("Lookup(christos faloutsos) = %v, want [0]", got)
	}
	if got := idx.Lookup("Author", []string{"christos", "agrawal"}); got != nil {
		t.Errorf("conflicting keywords matched %v", got)
	}
}

func TestLookupMisses(t *testing.T) {
	idx := libraryIndex(t)
	if got := idx.Lookup("Author", []string{"nobody"}); got != nil {
		t.Errorf("Lookup(nobody) = %v", got)
	}
	if got := idx.Lookup("Ghost", []string{"faloutsos"}); got != nil {
		t.Errorf("Lookup on unknown relation = %v", got)
	}
	if got := idx.Lookup("Author", nil); got != nil {
		t.Errorf("Lookup with no keywords = %v", got)
	}
}

func TestLookupMultipleColumns(t *testing.T) {
	idx := libraryIndex(t)
	// "mining" appears in two books' titles; "faloutsos" in one blurb.
	got := idx.Lookup("Book", []string{"mining"})
	if !reflect.DeepEqual(got, []relational.TupleID{0, 1}) {
		t.Errorf("Lookup(mining) = %v", got)
	}
	got = idx.Lookup("Book", []string{"mining", "faloutsos"})
	if !reflect.DeepEqual(got, []relational.TupleID{0}) {
		t.Errorf("Lookup(mining faloutsos) = %v", got)
	}
}

func TestSearchRanked(t *testing.T) {
	scores := relational.DBScores{
		"Author": relational.Scores{1.0, 7.0, 3.0}, // Michalis outranks Christos
		"Book":   relational.Scores{1, 1},
	}
	got := drain(libraryIndex(t).SearchStream("Author", "Faloutsos", scores))
	if len(got) != 2 {
		t.Fatalf("SearchStream yielded %d matches, want 2", len(got))
	}
	if got[0].Tuple != 1 || got[1].Tuple != 0 {
		t.Errorf("ranking wrong: %+v", got)
	}
	if got[0].Score != 7 {
		t.Errorf("score = %v, want 7", got[0].Score)
	}
}

func TestSearchEmptyQuery(t *testing.T) {
	if got := drain(libraryIndex(t).SearchStream("Author", "  ", relational.DBScores{})); got != nil {
		t.Errorf("empty query matched %v", got)
	}
}

// TestCrossColumnDedup is the regression test for the adjacent-only dedup
// bug: a token appearing in two different string columns of the same tuple
// used to produce a duplicate posting (the old column-major scan only
// collapsed repeats within one column), which in turn broke the ascending
// order the intersection relies on.
func TestCrossColumnDedup(t *testing.T) {
	db := relational.NewDB("dups")
	doc := relational.MustNewRelation("Doc",
		[]relational.Column{
			{Name: "id", Kind: relational.KindInt},
			{Name: "title", Kind: relational.KindString},
			{Name: "body", Kind: relational.KindString},
		}, "id", nil)
	db.MustAddRelation(doc)
	// "graphs" in both columns of tuple 0; "mining" only in tuple 1's body,
	// then both columns of tuple 2 — the old scan produced [1 2 0 2].
	doc.MustInsert(relational.Tuple{relational.IntVal(1), relational.StrVal("Graphs Everywhere"), relational.StrVal("a book about graphs")})
	doc.MustInsert(relational.Tuple{relational.IntVal(2), relational.StrVal("Streams"), relational.StrVal("stream mining")})
	doc.MustInsert(relational.Tuple{relational.IntVal(3), relational.StrVal("Mining"), relational.StrVal("mining text")})

	for _, n := range equalityShardCounts {
		idx := BuildSharded(db, ShardedOptions{NumShards: n})
		if got, want := idx.Lookup("Doc", []string{"graphs"}), []relational.TupleID{0}; !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: Lookup(graphs) = %v, want %v (cross-column duplicate)", n, got, want)
		}
		if got, want := idx.Lookup("Doc", []string{"mining"}), []relational.TupleID{1, 2}; !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: Lookup(mining) = %v, want %v (postings must stay ascending and unique)", n, got, want)
		}
		// The AND path would previously see the unsorted [1 2 0 2] list and
		// drop tuple 2 from intersections.
		if got, want := idx.Lookup("Doc", []string{"mining", "text"}), []relational.TupleID{2}; !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: Lookup(mining text) = %v, want %v", n, got, want)
		}
	}
}

// TestIntersect pins the galloping intersection's two-list results.
func TestIntersect(t *testing.T) {
	tests := []struct {
		a, b, want []relational.TupleID
	}{
		{[]relational.TupleID{1, 2, 3}, []relational.TupleID{2, 3, 4}, []relational.TupleID{2, 3}},
		{[]relational.TupleID{1}, []relational.TupleID{2}, nil},
		{nil, []relational.TupleID{1}, nil},
		{[]relational.TupleID{5, 9}, []relational.TupleID{5, 9}, []relational.TupleID{5, 9}},
	}
	for _, tc := range tests {
		if got := intersectAll(tc.a, tc.b); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("intersectAll(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}
