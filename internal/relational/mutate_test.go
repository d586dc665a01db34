package relational

import (
	"reflect"
	"testing"
)

// mutableDB builds a two-relation fixture (Author 1-3, Book referencing
// Author) for mutation tests.
func mutableDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB("mut")
	author := MustNewRelation("Author",
		[]Column{
			{Name: "id", Kind: KindInt},
			{Name: "name", Kind: KindString},
		}, "id", nil)
	book := MustNewRelation("Book",
		[]Column{
			{Name: "id", Kind: KindInt},
			{Name: "author", Kind: KindInt},
			{Name: "title", Kind: KindString},
		}, "id", []ForeignKey{{Column: "author", Ref: "Author"}})
	db.MustAddRelation(author)
	db.MustAddRelation(book)
	author.MustInsert(Tuple{IntVal(1), StrVal("Knuth")})
	author.MustInsert(Tuple{IntVal(2), StrVal("Dijkstra")})
	author.MustInsert(Tuple{IntVal(3), StrVal("Hopper")})
	book.MustInsert(Tuple{IntVal(10), IntVal(1), StrVal("TAOCP")})
	book.MustInsert(Tuple{IntVal(11), IntVal(2), StrVal("Discipline")})
	return db
}

func TestApplyInsertDelete(t *testing.T) {
	db := mutableDB(t)
	author := db.Relation("Author")
	book := db.Relation("Book")
	v0 := author.Version()

	res, err := db.Apply(Batch{
		Deletes: []DeleteOp{{Rel: "Book", PK: 11}, {Rel: "Author", PK: 2}},
		Inserts: []InsertOp{
			{Rel: "Author", Tuple: Tuple{IntVal(4), StrVal("Lovelace")}},
			{Rel: "Book", Tuple: Tuple{IntVal(12), IntVal(4), StrVal("Notes")}},
		},
	})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if want := []TupleID{3, 2}; !reflect.DeepEqual(res.InsertedIDs, want) {
		t.Fatalf("InsertedIDs = %v, want %v", res.InsertedIDs, want)
	}
	if !author.Deleted(1) || author.Live() != 3 || author.Len() != 4 {
		t.Fatalf("author state: deleted(1)=%v live=%d len=%d", author.Deleted(1), author.Live(), author.Len())
	}
	if _, ok := author.LookupPK(2); ok {
		t.Fatal("deleted pk 2 still resolvable")
	}
	if id, ok := author.LookupPK(4); !ok || id != 3 {
		t.Fatalf("LookupPK(4) = %d,%v", id, ok)
	}
	if author.Version() == v0 {
		t.Fatal("version did not advance")
	}
	if got := res.Versions["Author"]; got != author.Version() {
		t.Fatalf("Versions[Author] = %d, want %d", got, author.Version())
	}
	// FK index of Book now lists only the live referencing tuple.
	if got := db.JoinChildren(book, 0, 4); !reflect.DeepEqual(got, []TupleID{2}) {
		t.Fatalf("JoinChildren(author=4) = %v", got)
	}
	if got := db.JoinChildren(book, 0, 2); len(got) != 0 {
		t.Fatalf("JoinChildren(author=2) = %v, want empty", got)
	}
	if errs := db.Validate(); len(errs) != 0 {
		t.Fatalf("Validate: %v", errs)
	}
}

func TestApplyRejectsReferencedDelete(t *testing.T) {
	db := mutableDB(t)
	if _, err := db.Apply(Batch{Deletes: []DeleteOp{{Rel: "Author", PK: 1}}}); err == nil {
		t.Fatal("deleting a referenced author succeeded")
	}
	// Deleting the referencing book first in the same batch is fine.
	if _, err := db.Apply(Batch{
		Deletes: []DeleteOp{{Rel: "Book", PK: 10}, {Rel: "Author", PK: 1}},
	}); err != nil {
		t.Fatalf("child-then-parent delete: %v", err)
	}
}

func TestApplyRejectsDanglingInsert(t *testing.T) {
	db := mutableDB(t)
	if _, err := db.Apply(Batch{
		Inserts: []InsertOp{{Rel: "Book", Tuple: Tuple{IntVal(12), IntVal(99), StrVal("Ghost")}}},
	}); err == nil {
		t.Fatal("insert with dangling FK succeeded")
	}
	// Inserting the referenced author earlier in the same batch is fine.
	if _, err := db.Apply(Batch{
		Inserts: []InsertOp{
			{Rel: "Author", Tuple: Tuple{IntVal(99), StrVal("New")}},
			{Rel: "Book", Tuple: Tuple{IntVal(12), IntVal(99), StrVal("Ghost")}},
		},
	}); err != nil {
		t.Fatalf("target-then-referer insert: %v", err)
	}
}

// TestApplyRollsBackAtomically drives a batch whose last operation fails
// and verifies the store returns to its exact pre-batch state.
func TestApplyRollsBackAtomically(t *testing.T) {
	db := mutableDB(t)
	author := db.Relation("Author")
	book := db.Relation("Book")
	wantAuthors := author.Len()
	wantBooks := book.Len()

	_, err := db.Apply(Batch{
		Deletes: []DeleteOp{{Rel: "Book", PK: 11}},
		Inserts: []InsertOp{
			{Rel: "Author", Tuple: Tuple{IntVal(5), StrVal("Turing")}},
			{Rel: "Book", Tuple: Tuple{IntVal(13), IntVal(5), StrVal("Computable")}},
			{Rel: "Author", Tuple: Tuple{IntVal(1), StrVal("DupKey")}}, // fails
		},
	})
	if err == nil {
		t.Fatal("batch with duplicate pk succeeded")
	}
	if author.Len() != wantAuthors || book.Len() != wantBooks {
		t.Fatalf("lengths after rollback: authors %d want %d, books %d want %d",
			author.Len(), wantAuthors, book.Len(), wantBooks)
	}
	if author.Live() != wantAuthors || book.Live() != wantBooks {
		t.Fatalf("tombstones survived rollback: %d/%d live", author.Live(), book.Live())
	}
	if _, ok := book.LookupPK(11); !ok {
		t.Fatal("rolled-back delete did not restore pk 11")
	}
	if _, ok := author.LookupPK(5); ok {
		t.Fatal("rolled-back insert left pk 5 behind")
	}
	// The restored tuple must rejoin its FK posting list in its original
	// (ascending) position.
	if got := db.JoinChildren(book, 0, 2); !reflect.DeepEqual(got, []TupleID{1}) {
		t.Fatalf("JoinChildren(author=2) after rollback = %v", got)
	}
	if errs := db.Validate(); len(errs) != 0 {
		t.Fatalf("Validate after rollback: %v", errs)
	}
}

// TestDeletePreservesFKOrder deletes a middle referencing tuple and checks
// the posting list stays ascending without it.
func TestDeletePreservesFKOrder(t *testing.T) {
	db := mutableDB(t)
	book := db.Relation("Book")
	for pk := int64(20); pk < 24; pk++ {
		book.MustInsert(Tuple{IntVal(pk), IntVal(3), StrVal("x")})
	}
	if _, err := db.Apply(Batch{Deletes: []DeleteOp{{Rel: "Book", PK: 22}}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	want := []TupleID{2, 3, 5} // pks 20,21,23
	if got := db.JoinChildren(book, 0, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("JoinChildren(author=3) = %v, want %v", got, want)
	}
}

// TestApplyResultsAscendPerRelation deletes (and inserts) in descending
// request order and checks the per-relation result lists come back
// ascending — the contract incremental index maintenance merges against.
func TestApplyResultsAscendPerRelation(t *testing.T) {
	db := mutableDB(t)
	book := db.Relation("Book")
	book.MustInsert(Tuple{IntVal(20), IntVal(3), StrVal("newer")})
	res, err := db.Apply(Batch{
		Deletes: []DeleteOp{{Rel: "Book", PK: 20}, {Rel: "Book", PK: 10}}, // newer first
		Inserts: []InsertOp{
			{Rel: "Book", Tuple: Tuple{IntVal(31), IntVal(3), StrVal("a")}},
			{Rel: "Book", Tuple: Tuple{IntVal(30), IntVal(3), StrVal("b")}},
		},
	})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if want := []TupleID{0, 2}; !reflect.DeepEqual(res.Deleted["Book"], want) {
		t.Fatalf("Deleted[Book] = %v, want ascending %v", res.Deleted["Book"], want)
	}
	if want := []TupleID{3, 4}; !reflect.DeepEqual(res.Inserted["Book"], want) {
		t.Fatalf("Inserted[Book] = %v, want ascending %v", res.Inserted["Book"], want)
	}
}

func TestReinsertDeletedPK(t *testing.T) {
	db := mutableDB(t)
	if _, err := db.Apply(Batch{
		Deletes: []DeleteOp{{Rel: "Book", PK: 11}},
		Inserts: []InsertOp{{Rel: "Book", Tuple: Tuple{IntVal(11), IntVal(3), StrVal("Reborn")}}},
	}); err != nil {
		t.Fatalf("delete+reinsert of same pk: %v", err)
	}
	book := db.Relation("Book")
	id, ok := book.LookupPK(11)
	if !ok || id != 2 {
		t.Fatalf("LookupPK(11) = %d,%v, want fresh slot 2", id, ok)
	}
	if book.Tuples[id][2].Str != "Reborn" {
		t.Fatalf("pk 11 content = %q", book.Tuples[id][2].Str)
	}
}
