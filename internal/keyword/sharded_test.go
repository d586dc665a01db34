package keyword

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/relational"
)

// equalityShardCounts are the partition counts the flat/sharded contract is
// verified under: degenerate (1), typical (4), and a prime that misaligns
// with every power-of-two hash pattern (17).
var equalityShardCounts = []int{1, 4, 17}

func equalityDBs(t *testing.T) map[string]*relational.DB {
	t.Helper()
	dcfg := datagen.DefaultDBLPConfig()
	dcfg.Authors = 150
	dcfg.Papers = 600
	dblp, err := datagen.GenerateDBLP(dcfg)
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	tcfg := datagen.DefaultTPCHConfig()
	tcfg.ScaleFactor = 0.002
	tpch, err := datagen.GenerateTPCH(tcfg)
	if err != nil {
		t.Fatalf("GenerateTPCH: %v", err)
	}
	return map[string]*relational.DB{"dblp": dblp, "tpch": tpch}
}

// syntheticScores fabricates a deterministic, collision-rich score table so
// ranking equality is tested without running the rank engine: many tuples
// share a score (exercising tie-breaks), the rest spread out.
func syntheticScores(db *relational.DB) relational.DBScores {
	scores := make(relational.DBScores, len(db.Relations))
	for _, rel := range db.Relations {
		s := make(relational.Scores, rel.Len())
		for i := range s {
			s[i] = float64((uint32(i) * 2654435761) % 97)
		}
		scores[rel.Name] = s
	}
	return scores
}

// corpusTokens returns every (relation, token) pair of the flat index,
// sorted for reproducible iteration.
func corpusTokens(idx *Index) [][2]string {
	var out [][2]string
	for rel, tokens := range idx.postings {
		for tok := range tokens {
			out = append(out, [2]string{rel, tok})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}

// TestShardedEqualsFlat drives every query the corpus can express — every
// single-token lookup, AND pairs, ranked Search — through the flat and
// sharded indexes at shard counts {1, 4, 17} on the DBLP and TPC-H fixtures,
// requiring identical results throughout.
func TestShardedEqualsFlat(t *testing.T) {
	for name, db := range equalityDBs(t) {
		t.Run(name, func(t *testing.T) {
			flat := BuildIndex(db)
			scores := syntheticScores(db)
			pairs := corpusTokens(flat)
			if len(pairs) == 0 {
				t.Fatal("fixture produced an empty corpus")
			}
			for _, numShards := range equalityShardCounts {
				t.Run(fmt.Sprintf("shards=%d", numShards), func(t *testing.T) {
					sharded := BuildSharded(db, ShardedOptions{NumShards: numShards})
					if got := sharded.NumShards(); got != numShards {
						t.Fatalf("NumShards = %d, want %d", got, numShards)
					}
					for _, p := range pairs {
						rel, tok := p[0], p[1]
						want := flat.Lookup(rel, []string{tok})
						got := sharded.Lookup(rel, []string{tok})
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("Lookup(%s, %q): sharded %v != flat %v", rel, tok, got, want)
						}
						wantM := flat.Search(rel, tok, scores)
						gotM := sharded.Search(rel, tok, scores)
						if !reflect.DeepEqual(gotM, wantM) {
							t.Fatalf("Search(%s, %q): sharded %+v != flat %+v", rel, tok, gotM, wantM)
						}
					}
					// AND pairs: adjacent corpus tokens of the same relation
					// (mixes shared-tuple hits and guaranteed misses).
					for i := 1; i < len(pairs); i++ {
						if pairs[i][0] != pairs[i-1][0] {
							continue
						}
						rel := pairs[i][0]
						kws := []string{pairs[i-1][1], pairs[i][1]}
						want := flat.Lookup(rel, kws)
						got := sharded.Lookup(rel, kws)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("Lookup(%s, %v): sharded %v != flat %v", rel, kws, got, want)
						}
					}
					// Misses and edge cases behave identically too.
					if got := sharded.Lookup("NoSuchRelation", []string{"x"}); got != nil {
						t.Errorf("unknown relation: got %v, want nil", got)
					}
					if got := sharded.Lookup(db.Relations[0].Name, nil); got != nil {
						t.Errorf("empty keywords: got %v, want nil", got)
					}
					if got := sharded.Search(db.Relations[0].Name, "zzz-no-such-token-zzz", scores); got != nil {
						t.Errorf("miss Search: got %v, want nil", got)
					}
				})
			}
		})
	}
}

// TestShardedDefaultOptions covers the zero-value construction path the
// engine uses.
func TestShardedDefaultOptions(t *testing.T) {
	db := libraryDB(t)
	idx := BuildSharded(db, ShardedOptions{})
	if idx.NumShards() < 1 {
		t.Fatalf("NumShards = %d", idx.NumShards())
	}
	want := []relational.TupleID{0, 1}
	if got := idx.Lookup("Author", []string{"faloutsos"}); !reflect.DeepEqual(got, want) {
		t.Fatalf("Lookup = %v, want %v", got, want)
	}
}
