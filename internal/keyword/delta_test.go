package keyword

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"sizelos/internal/mutgen"
	"sizelos/internal/relational"
)

// referencedBy maps relation name -> relations owning an FK into it.
func referencedBy(db *relational.DB) map[string][]string {
	out := make(map[string][]string)
	for _, r := range db.Relations {
		for _, fk := range r.FKs {
			out[fk.Ref] = append(out[fk.Ref], r.Name)
		}
	}
	return out
}

// anyToken returns the lexicographically first token of one relation in
// the scan, or "" when the relation has no string content.
func anyToken(scan scanIndex, rel string) string {
	best := ""
	for tok := range scan[rel] {
		if best == "" || tok < best {
			best = tok
		}
	}
	return best
}

// mutationBatch builds a deterministic, schema-valid batch against db:
// deletes from every unreferenced relation, one cascaded delete of a
// string-bearing referenced tuple (children first), and two inserts per
// relation whose string values mix an existing token (merges into a live
// posting list) with fresh ones (new posting lists).
func mutationBatch(t *testing.T, db *relational.DB, scan scanIndex, round int) relational.Batch {
	t.Helper()
	refs := referencedBy(db)
	var batch relational.Batch
	deleting := make(map[string]map[int64]bool)
	addDelete := func(rel string, pk int64) {
		if deleting[rel] == nil {
			deleting[rel] = make(map[int64]bool)
		}
		if deleting[rel][pk] {
			return
		}
		deleting[rel][pk] = true
		batch.Deletes = append(batch.Deletes, relational.DeleteOp{Rel: rel, PK: pk})
	}
	liveIDs := func(r *relational.Relation) []relational.TupleID {
		var out []relational.TupleID
		for i := 0; i < r.Len(); i++ {
			if !r.Deleted(relational.TupleID(i)) {
				out = append(out, relational.TupleID(i))
			}
		}
		return out
	}

	// One cascaded delete: a referenced relation with string content whose
	// referencers are all themselves unreferenced.
	for _, r := range db.Relations {
		if len(refs[r.Name]) == 0 || len(stringColumns(r)) == 0 {
			continue
		}
		ok := true
		for _, owner := range refs[r.Name] {
			if len(refs[owner]) > 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		live := liveIDs(r)
		if len(live) == 0 {
			continue
		}
		victim := live[len(live)-1]
		pk := r.PK(victim)
		for _, ownerName := range refs[r.Name] {
			owner := db.Relation(ownerName)
			// An owner may hold several FKs into the victim's relation
			// (Cites has citing and cited): retract through every one.
			for j, fk := range owner.FKs {
				if fk.Ref != r.Name {
					continue
				}
				for _, child := range db.JoinChildren(owner, j, pk) {
					addDelete(ownerName, owner.PK(child))
				}
			}
		}
		addDelete(r.Name, pk)
		break
	}
	// Plain deletes from unreferenced relations.
	for _, r := range db.Relations {
		if len(refs[r.Name]) > 0 {
			continue
		}
		live := liveIDs(r)
		for i := 0; i < 2 && i < len(live); i++ {
			addDelete(r.Name, r.PK(live[i]))
		}
	}
	// Two inserts per relation, FK values copied from surviving tuples.
	for _, r := range db.Relations {
		var maxPK int64
		for _, id := range liveIDs(r) {
			if pk := r.PK(id); pk > maxPK {
				maxPK = pk
			}
		}
		for n := 0; n < 2; n++ {
			tuple := make(relational.Tuple, len(r.Columns))
			valid := true
			for ci, col := range r.Columns {
				switch {
				case ci == r.PKCol:
					tuple[ci] = relational.IntVal(maxPK + 1000*int64(round+1) + int64(n))
				case r.FKIndexOf(col.Name) >= 0:
					fk := r.FKs[r.FKIndexOf(col.Name)]
					ref := db.Relation(fk.Ref)
					src := int64(-1)
					for _, id := range liveIDs(ref) {
						pk := ref.PK(id)
						if !deleting[fk.Ref][pk] {
							src = pk
							break
						}
					}
					if src < 0 {
						valid = false
						break
					}
					tuple[ci] = relational.IntVal(src)
				case col.Kind == relational.KindString:
					tuple[ci] = relational.StrVal(fmt.Sprintf("%s zzmut%dr%dn%d", anyToken(scan, r.Name), ci, round, n))
				case col.Kind == relational.KindFloat:
					tuple[ci] = relational.FloatVal(1.5)
				default:
					tuple[ci] = relational.IntVal(7)
				}
			}
			if valid {
				batch.Inserts = append(batch.Inserts, relational.InsertOp{Rel: r.Name, Tuple: tuple})
			}
		}
	}
	if len(batch.Deletes) < 3 || len(batch.Inserts) < 6 {
		t.Fatalf("degenerate batch: %d deletes, %d inserts", len(batch.Deletes), len(batch.Inserts))
	}
	return batch
}

// TestIncrementalEqualsRebuild mutates the DBLP and TPC-H fixtures — two
// hand-built rounds (a cascaded delete, inserts merging into live posting
// lists) then mutgenRounds random batches — and requires after every round
// that the index maintained by Apply at 1/4/17 shards equals a rebuild
// shard by shard and the scan oracle list by list, with every Lookup and a
// spread of streams agreeing with the scan.
func TestIncrementalEqualsRebuild(t *testing.T) {
	const mutgenRounds = 40
	for name, db := range equalityDBs(t) {
		t.Run(name, func(t *testing.T) {
			shardeds := make(map[int]*Sharded, len(equalityShardCounts))
			for _, n := range equalityShardCounts {
				shardeds[n] = BuildSharded(db, ShardedOptions{NumShards: n})
			}
			gen := mutgen.New(db, 42)
			for round := 0; round < 2+mutgenRounds; round++ {
				var batch relational.Batch
				if round < 2 {
					batch = mutationBatch(t, db, scanPostings(db), round)
				} else {
					batch = gen.NextBatch()
				}
				res, err := db.Apply(batch)
				if err != nil {
					t.Fatalf("round %d: Apply: %v", round, err)
				}
				rels := make([]string, 0, len(batch.Relations()))
				for rel := range batch.Relations() {
					rels = append(rels, rel)
				}
				sort.Strings(rels)
				for _, rel := range rels {
					for _, idx := range shardeds {
						idx.Apply(rel, res.Inserted[rel], res.Deleted[rel])
					}
				}

				scan := scanPostings(db)
				scores := syntheticScores(db)
				pairs := corpusTokens(scan)
				for _, n := range equalityShardCounts {
					rebuilt := BuildSharded(db, ShardedOptions{NumShards: n})
					if !reflect.DeepEqual(shardPostings(shardeds[n]), shardPostings(rebuilt)) {
						t.Fatalf("round %d: incremental shards=%d != rebuild", round, n)
					}
					checkAgainstScan(t, shardeds[n], scan)
					// Stream agreement on a spread of the mutated corpus.
					for i := 0; i < len(pairs); i += 1 + len(pairs)/96 {
						rel, tok := pairs[i][0], pairs[i][1]
						if got, want := drain(shardeds[n].SearchStream(rel, tok, scores)), refSearch(scan, rel, tok, scores); !reflect.DeepEqual(got, want) {
							t.Fatalf("round %d: shards=%d SearchStream(%s, %q) diverged from the scan", round, n, rel, tok)
						}
					}
				}
			}
		})
	}
}

// TestApplyEmptiesToken retracts the only tuple carrying a token and checks
// the posting entry disappears from every shard, exactly as a rebuild would
// have it.
func TestApplyEmptiesToken(t *testing.T) {
	db := libraryDB(t)
	idx := BuildSharded(db, ShardedOptions{NumShards: 4})
	// "classic" occurs only in Book pk 2.
	if _, err := db.Apply(relational.Batch{Deletes: []relational.DeleteOp{{Rel: "Book", PK: 2}}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	idx.Apply("Book", nil, []relational.TupleID{1})
	if got := idx.Lookup("Book", []string{"classic"}); got != nil {
		t.Fatalf("deleted token still resolves: %v", got)
	}
	if got := idx.Lookup("Book", []string{"graph"}); !reflect.DeepEqual(got, []relational.TupleID{0}) {
		t.Fatalf("surviving token wrong: %v", got)
	}
	for s, shard := range idx.shards {
		if _, ok := shard["Book"]["classic"]; ok {
			t.Fatalf("shard %d kept an empty posting entry", s)
		}
	}
}
