package keyword

import (
	"fmt"
	"reflect"
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/relational"
)

// TestRemapMatchesRebuild tombstones a slice of DBLP papers, applies the
// posting deltas, compacts the relation, remaps the index at 1/4/17 shards,
// and asserts each is identical — every shard's exact posting lists — to an
// index rebuilt from the compacted database, and agrees with the scan.
func TestRemapMatchesRebuild(t *testing.T) {
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 60
	cfg.Papers = 150
	db, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	shardeds := make([]*Sharded, len(equalityShardCounts))
	for i, n := range equalityShardCounts {
		shardeds[i] = BuildSharded(db, ShardedOptions{NumShards: n})
	}

	// Cascade every fifth paper away: its Writes/Cites referencers first
	// (ints only, no postings), then the paper itself (whose title tokens
	// must leave the posting lists). Paper — a relation with real string
	// postings — is then compacted and remapped.
	var batch relational.Batch
	paper := db.Relation("Paper")
	seen := map[string]bool{}
	for i := 0; i < paper.Len(); i += 5 {
		pk := paper.PK(relational.TupleID(i))
		for _, ref := range db.ReferencingTuples("Paper", pk) {
			r := db.Relation(ref.Rel)
			for _, id := range ref.IDs {
				key := fmt.Sprintf("%s:%d", ref.Rel, r.PK(id))
				if seen[key] {
					continue // a Cites row can reference two doomed papers
				}
				seen[key] = true
				batch.Deletes = append(batch.Deletes, relational.DeleteOp{Rel: ref.Rel, PK: r.PK(id)})
			}
		}
		batch.Deletes = append(batch.Deletes, relational.DeleteOp{Rel: "Paper", PK: pk})
	}
	res, err := db.Apply(batch)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	for rel := range batch.Relations() {
		for _, idx := range shardeds {
			idx.Apply(rel, res.Inserted[rel], res.Deleted[rel])
		}
	}

	remap := paper.Compact()
	if remap == nil {
		t.Fatal("Compact returned nil")
	}
	scan := scanPostings(db)
	for i, idx := range shardeds {
		idx.Remap("Paper", remap)
		want := BuildSharded(db, ShardedOptions{NumShards: equalityShardCounts[i]})
		if !reflect.DeepEqual(idx.shards, want.shards) {
			t.Fatalf("shards=%d: postings after Remap differ from rebuild", equalityShardCounts[i])
		}
		checkAgainstScan(t, idx, scan)
	}
}

// TestRemapUnknownRelation must not panic or create phantom entries.
func TestRemapUnknownRelation(t *testing.T) {
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 10
	cfg.Papers = 20
	db, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	idx := BuildSharded(db, ShardedOptions{NumShards: 2})
	before := postingsOf(t, idx)
	idx.Remap("Nope", nil)
	if !reflect.DeepEqual(postingsOf(t, idx), before) {
		t.Fatal("Remap of an unknown relation changed the postings")
	}
}
