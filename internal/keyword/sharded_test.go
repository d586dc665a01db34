package keyword

import (
	"fmt"
	"reflect"
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/relational"
)

// equalityShardCounts are the partition counts the index is held to the
// scan under: degenerate (1), typical (4), and a prime that misaligns with
// every power-of-two hash pattern (17).
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
// ranking is tested without running the rank engine: many tuples share a
// score (exercising tie-breaks), the rest spread out.
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

// shardPostings normalizes each shard of idx to the scan's shape, dropping
// the empty lists and relation maps Apply may leave behind and a build
// never makes.
func shardPostings(idx *Sharded) []scanIndex {
	out := make([]scanIndex, len(idx.shards))
	for s, shard := range idx.shards {
		out[s] = make(scanIndex)
		for rel, tokens := range shard {
			for tok, ids := range tokens {
				if len(ids) > 0 {
					out[s].add(rel, tok, ids...)
				}
			}
		}
	}
	return out
}

// postingsOf merges shardPostings into one rel -> token -> postings map,
// comparable with the scan, and fails if a token sits in two shards.
func postingsOf(t *testing.T, idx *Sharded) scanIndex {
	t.Helper()
	out := make(scanIndex)
	for _, shard := range shardPostings(idx) {
		for rel, tokens := range shard {
			for tok, ids := range tokens {
				if _, dup := out[rel][tok]; dup {
					t.Fatalf("token %q of %s appears in two shards", tok, rel)
				}
				out.add(rel, tok, ids...)
			}
		}
	}
	return out
}

// checkAgainstScan holds idx to the scan oracle: every (relation, token)
// posting list, every single-token and adjacent-pair Lookup, and the nil
// misses (unknown relation, empty keywords, unknown token).
func checkAgainstScan(t *testing.T, idx *Sharded, scan scanIndex) {
	t.Helper()
	if got := postingsOf(t, idx); !reflect.DeepEqual(got, scan) {
		t.Fatal("postings differ from the scan")
	}
	pairs := corpusTokens(scan)
	for i, p := range pairs {
		rel, kws := p[0], []string{p[1]}
		if got, want := idx.Lookup(rel, kws), scan.lookup(rel, kws); !reflect.DeepEqual(got, want) {
			t.Fatalf("Lookup(%s, %v) = %v, scan %v", rel, kws, got, want)
		}
		// AND pairs: adjacent corpus tokens of the same relation (mixes
		// shared-tuple hits and guaranteed misses).
		if i > 0 && pairs[i-1][0] == rel {
			kws = []string{pairs[i-1][1], p[1]}
			if got, want := idx.Lookup(rel, kws), scan.lookup(rel, kws); !reflect.DeepEqual(got, want) {
				t.Fatalf("Lookup(%s, %v) = %v, scan %v", rel, kws, got, want)
			}
		}
	}
	for _, miss := range []struct {
		rel string
		kws []string
	}{{"NoSuchRelation", []string{"x"}}, {pairs[0][0], nil}, {pairs[0][0], []string{"zz-no-such-token-zz"}}} {
		if got := idx.Lookup(miss.rel, miss.kws); got != nil {
			t.Fatalf("Lookup(%s, %v) = %#v, want nil", miss.rel, miss.kws, got)
		}
	}
}

// TestShardedEqualsFlat holds the build to the flat scan oracle at shard
// counts {1, 4, 17} on the DBLP and TPC-H fixtures: every posting list,
// every single-token and AND-pair Lookup, and every single-token stream
// drained against the scan's sorted ranking.
func TestShardedEqualsFlat(t *testing.T) {
	for name, db := range equalityDBs(t) {
		t.Run(name, func(t *testing.T) {
			scan := scanPostings(db)
			scores := syntheticScores(db)
			pairs := corpusTokens(scan)
			if len(pairs) == 0 {
				t.Fatal("fixture produced an empty corpus")
			}
			for _, numShards := range equalityShardCounts {
				t.Run(fmt.Sprintf("shards=%d", numShards), func(t *testing.T) {
					idx := BuildSharded(db, ShardedOptions{NumShards: numShards})
					if got := len(idx.shards); got != numShards {
						t.Fatalf("%d shards, want %d", got, numShards)
					}
					checkAgainstScan(t, idx, scan)
					for _, p := range pairs {
						rel, tok := p[0], p[1]
						if got, want := drain(idx.SearchStream(rel, tok, scores)), refSearch(scan, rel, tok, scores); !reflect.DeepEqual(got, want) {
							t.Fatalf("SearchStream(%s, %q) = %+v, scan %+v", rel, tok, got, want)
						}
					}
					if got := drain(idx.SearchStream(db.Relations[0].Name, "zzz-no-such-token-zzz", scores)); got != nil {
						t.Errorf("miss SearchStream: got %v, want nil", got)
					}
				})
			}
		})
	}
}

// TestShardedDefaultOptions covers the zero-value construction path the
// engine uses.
func TestShardedDefaultOptions(t *testing.T) {
	idx := BuildSharded(libraryDB(t), ShardedOptions{})
	if len(idx.shards) < 1 {
		t.Fatalf("%d shards", len(idx.shards))
	}
	want := []relational.TupleID{0, 1}
	if got := idx.Lookup("Author", []string{"faloutsos"}); !reflect.DeepEqual(got, want) {
		t.Fatalf("Lookup = %v, want %v", got, want)
	}
}
