package keyword

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"sizelos/internal/relational"
)

// postingsOf normalizes any index layout to rel -> token -> postings,
// dropping empty lists and empty relation maps, so physically different
// layouts (and maps that emptied out incrementally) compare bit-for-bit at
// the level queries observe.
func postingsOf(t *testing.T, idx layout) map[string]map[string][]relational.TupleID {
	t.Helper()
	out := make(map[string]map[string][]relational.TupleID)
	add := func(rel, tok string, ids []relational.TupleID) {
		if len(ids) == 0 {
			return
		}
		m := out[rel]
		if m == nil {
			m = make(map[string][]relational.TupleID)
			out[rel] = m
		}
		if _, dup := m[tok]; dup {
			t.Fatalf("token %q of %s appears in two shards", tok, rel)
		}
		m[tok] = append([]relational.TupleID(nil), ids...)
	}
	switch v := idx.(type) {
	case *Index:
		for rel, tokens := range v.postings {
			for tok, ids := range tokens {
				add(rel, tok, ids)
			}
		}
	case *Sharded:
		for _, shard := range v.shards {
			for rel, tokens := range shard {
				for tok, ids := range tokens {
					add(rel, tok, ids)
				}
			}
		}
	default:
		t.Fatalf("unknown layout %T", idx)
	}
	return out
}

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
// the flat index, or "" when the relation has no string content.
func anyToken(flat *Index, rel string) string {
	tokens := flat.postings[rel]
	best := ""
	for tok := range tokens {
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
func mutationBatch(t *testing.T, db *relational.DB, flat *Index, round int) relational.Batch {
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
					tuple[ci] = relational.StrVal(fmt.Sprintf("%s zzmut%dr%dn%d", anyToken(flat, r.Name), ci, round, n))
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

// TestIncrementalEqualsRebuild mutates the DBLP and TPC-H fixtures in two
// rounds and requires, after each round, that incrementally maintained
// indexes — the flat reference and the sharded layout at 1/4/17 shards —
// are bit-identical (same tokens, same exact posting lists) to from-scratch
// rebuilds over the mutated database, and that queries agree.
func TestIncrementalEqualsRebuild(t *testing.T) {
	for name, db := range equalityDBs(t) {
		t.Run(name, func(t *testing.T) {
			flat := BuildIndex(db)
			shardeds := make(map[int]*Sharded, len(equalityShardCounts))
			for _, n := range equalityShardCounts {
				shardeds[n] = BuildSharded(db, ShardedOptions{NumShards: n})
			}
			for round := 0; round < 2; round++ {
				batch := mutationBatch(t, db, flat, round)
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
					flat.Apply(rel, res.Inserted[rel], res.Deleted[rel])
					for _, idx := range shardeds {
						idx.Apply(rel, res.Inserted[rel], res.Deleted[rel])
					}
				}

				want := postingsOf(t, BuildIndex(db))
				if got := postingsOf(t, flat); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: incremental flat != rebuilt flat", round)
				}
				for _, n := range equalityShardCounts {
					rebuilt := BuildSharded(db, ShardedOptions{NumShards: n})
					if got := postingsOf(t, shardeds[n]); !reflect.DeepEqual(got, postingsOf(t, rebuilt)) {
						t.Fatalf("round %d: incremental sharded(%d) != rebuilt sharded(%d)", round, n, n)
					}
					if got := postingsOf(t, shardeds[n]); !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d: incremental sharded(%d) != rebuilt flat", round, n)
					}
				}

				// Query-level agreement on a spread of the mutated corpus,
				// including the fresh tokens and a miss.
				scores := syntheticScores(db)
				pairs := corpusTokens(flat)
				for i := 0; i < len(pairs); i += 1 + len(pairs)/96 {
					rel, tok := pairs[i][0], pairs[i][1]
					want := flat.Search(rel, tok, scores)
					for _, n := range equalityShardCounts {
						if got := shardeds[n].Search(rel, tok, scores); !reflect.DeepEqual(got, want) {
							t.Fatalf("round %d: Search(%s, %q) sharded(%d) diverged", round, rel, tok, n)
						}
					}
				}
				if got := flat.Lookup(db.Relations[0].Name, []string{"zz-never-inserted"}); got != nil {
					t.Fatalf("round %d: miss returned %v", round, got)
				}
			}
		})
	}
}

// TestApplyEmptiesToken retracts the only tuples carrying a token and
// checks the posting entry disappears from every layout, exactly as a
// rebuild would have it.
func TestApplyEmptiesToken(t *testing.T) {
	db := libraryDB(t)
	flat := BuildIndex(db)
	sharded := BuildSharded(db, ShardedOptions{NumShards: 4})
	book := db.Relation("Book")
	// "classic" occurs only in Book pk 2.
	if _, err := db.Apply(relational.Batch{Deletes: []relational.DeleteOp{{Rel: "Book", PK: 2}}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	_ = book
	flat.Apply("Book", nil, []relational.TupleID{1})
	sharded.Apply("Book", nil, []relational.TupleID{1})
	for _, idx := range []layout{flat, sharded} {
		if got := idx.Lookup("Book", []string{"classic"}); got != nil {
			t.Fatalf("%T: deleted token still resolves: %v", idx, got)
		}
		if got := idx.Lookup("Book", []string{"graph"}); !reflect.DeepEqual(got, []relational.TupleID{0}) {
			t.Fatalf("%T: surviving token wrong: %v", idx, got)
		}
	}
	if _, ok := flat.postings["Book"]["classic"]; ok {
		t.Fatal("flat kept an empty posting entry")
	}
}
