package ostree

import (
	"reflect"
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/datagraph"
	"sizelos/internal/rank"
	"sizelos/internal/relational"
)

// TestJunctionTopLSkipsTombstones is the regression test for the TOP-l
// junction extraction: DBSource.ChildrenTopL materializes its lists by
// scanning the junction relation's tuple store directly, and a tombstoned
// junction row must not connect parent to child there — exactly as the
// fkIndex-driven Children path and the rebuilt data graph already have it.
func TestJunctionTopLSkipsTombstones(t *testing.T) {
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 60
	cfg.Papers = 240
	cfg.Conferences = 6
	cfg.YearSpan = 4
	db, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	g, err := datagraph.Build(db)
	if err != nil {
		t.Fatalf("datagraph.Build: %v", err)
	}
	scores, _, err := computeRank(g, datagen.DBLPGA1(), rank.DefaultOptions())
	if err != nil {
		t.Fatalf("computeRank: %v", err)
	}
	gds := bound(t, db, datagen.AuthorGDS())
	paperNode := gds.Find("Paper")
	author := db.Relation("Author")
	writes := db.Relation("Writes")
	root, ok := author.LookupPK(1)
	if !ok {
		t.Fatal("author pk 1 missing")
	}

	before := NewDBSource(db, scores).ChildrenTopL(paperNode, root, 0, 1000)
	if len(before) < 2 {
		t.Fatalf("root author has %d papers, need >= 2", len(before))
	}

	// Tombstone the one Writes row linking the root to its top paper.
	fi := writes.FKIndexOf("author")
	var victimPK int64 = -1
	retracted := before[0]
	for _, row := range db.JoinChildren(writes, fi, author.PK(root)) {
		if paperID, ok := db.Relation("Paper").LookupPK(writes.Tuples[row][writes.ColIndex("paper")].Int); ok && paperID == retracted {
			victimPK = writes.PK(row)
			break
		}
	}
	if victimPK < 0 {
		t.Fatal("no writes row found for the top paper")
	}
	if _, err := db.Apply(relational.Batch{Deletes: []relational.DeleteOp{{Rel: "Writes", PK: victimPK}}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}

	// A fresh DBSource (per-query lists, as the engine builds them) must
	// drop the retracted link and agree with a rebuilt graph's extraction.
	after := NewDBSource(db, scores).ChildrenTopL(paperNode, root, 0, 1000)
	for _, id := range after {
		if id == retracted {
			t.Fatalf("tombstoned junction row still connects paper %d in the TOP-l path", retracted)
		}
	}
	g2, err := datagraph.Build(db)
	if err != nil {
		t.Fatalf("rebuild graph: %v", err)
	}
	want := NewGraphSource(g2, scores).ChildrenTopL(paperNode, root, 0, 1000)
	if !reflect.DeepEqual(after, want) {
		t.Fatalf("db TopL %v != graph TopL %v after retraction", after, want)
	}
}
