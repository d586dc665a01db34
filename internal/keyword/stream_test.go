package keyword

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"sizelos/internal/relational"
)

// refSearch is the reference ranking: the scan's matching ids scored and
// sorted with sort.SliceStable under matchLess. SearchStream must
// reproduce it exactly; this independent path is what keeps the heap
// honest.
func refSearch(scan scanIndex, dsRel, query string, scores relational.DBScores) []Match {
	ids := scan.lookup(dsRel, Tokenize(query))
	if len(ids) == 0 {
		return nil
	}
	s := scores[dsRel]
	out := make([]Match, 0, len(ids))
	for _, id := range ids {
		m := Match{Relation: dsRel, Tuple: id}
		if int(id) < len(s) {
			m.Score = s[id]
		}
		out = append(out, m)
	}
	sort.SliceStable(out, func(a, b int) bool { return matchLess(out[a], out[b]) })
	return out
}

// streamPrefix pulls up to n matches off a stream; nil when it yields none.
func streamPrefix(s MatchStream, n int) []Match {
	var out []Match
	for len(out) < n {
		m, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, m)
	}
	return out
}

// drain pops a stream dry.
func drain(s MatchStream) []Match { return streamPrefix(s, math.MaxInt) }

// intersectAll drains the galloping intersection of lists.
func intersectAll(lists ...[]relational.TupleID) []relational.TupleID {
	var out []relational.TupleID
	it := newIntersection(lists)
	for id, ok := it.next(); ok; id, ok = it.next() {
		out = append(out, id)
	}
	return out
}

// TestStreamMatchesReference proves, for a spread of single-token and
// AND-pair queries over DBLP and TPC-H at shard counts {1, 4, 17}, that the
// streaming surface emits exactly the scan's ranking — fully drained, and
// prefix-by-prefix (every limit n yields the first n of the drain).
func TestStreamMatchesReference(t *testing.T) {
	for name, db := range equalityDBs(t) {
		t.Run(name, func(t *testing.T) {
			scan := scanPostings(db)
			scores := syntheticScores(db)
			pairs := corpusTokens(scan)
			if len(pairs) == 0 {
				t.Fatal("fixture produced an empty corpus")
			}
			queries := make(map[string][]string) // rel -> queries
			for i, p := range pairs {
				if i%7 == 0 { // thin out: the full cross product is slow
					queries[p[0]] = append(queries[p[0]], p[1])
				}
			}
			// AND pairs within a relation, plus a miss and an empty query.
			for rel, qs := range queries {
				if len(qs) >= 2 {
					queries[rel] = append(qs, qs[0]+" "+qs[1])
				}
				queries[rel] = append(queries[rel], "zzz-no-such-token", "")
			}

			for _, numShards := range equalityShardCounts {
				idx := BuildSharded(db, ShardedOptions{NumShards: numShards})
				for rel, qs := range queries {
					for _, q := range qs {
						want := refSearch(scan, rel, q, scores)
						if got := drain(idx.SearchStream(rel, q, scores)); !reflect.DeepEqual(got, want) {
							t.Fatalf("shards=%d SearchStream(%q, %q) diverged from the scan", numShards, rel, q)
						}
						// Prefix law: limit n == first n of the drain.
						for _, n := range []int{1, 2, 5, len(want)} {
							if n == 0 || n > len(want) {
								continue
							}
							prefix := streamPrefix(idx.SearchStream(rel, q, scores), n)
							if !reflect.DeepEqual(prefix, want[:n]) {
								t.Fatalf("shards=%d SearchStream(%q, %q) limit %d != drain prefix", numShards, rel, q, n)
							}
						}
					}
				}
			}
		})
	}
}

// TestStreamRemaining pins the Remaining contract: it starts at the match
// count and decrements by exactly one per pop.
func TestStreamRemaining(t *testing.T) {
	for _, db := range equalityDBs(t) {
		idx := BuildSharded(db, ShardedOptions{NumShards: 4})
		scores := syntheticScores(db)
		pairs := corpusTokens(scanPostings(db))
		for i, p := range pairs {
			if i%37 != 0 {
				continue
			}
			s := idx.SearchStream(p[0], p[1], scores)
			n := s.Remaining()
			for k := 0; k < n; k++ {
				if _, ok := s.Next(); !ok {
					t.Fatalf("stream dried up at %d of %d", k, n)
				}
				if got := s.Remaining(); got != n-k-1 {
					t.Fatalf("Remaining after %d pops = %d, want %d", k+1, got, n-k-1)
				}
			}
			if _, ok := s.Next(); ok {
				t.Fatal("stream yielded past Remaining()==0")
			}
		}
	}
}

// TestIntersectionCursor checks the lazy galloping intersection against a
// membership scan on adversarial list shapes: disjoint, nested, skewed
// lengths, shared prefixes/suffixes, singletons.
func TestIntersectionCursor(t *testing.T) {
	mk := func(ids ...int) []relational.TupleID {
		out := make([]relational.TupleID, len(ids))
		for i, v := range ids {
			out[i] = relational.TupleID(v)
		}
		return out
	}
	long := make([]relational.TupleID, 5000)
	for i := range long {
		long[i] = relational.TupleID(i * 3)
	}
	cases := [][2][]relational.TupleID{
		{mk(1, 2, 3), mk(4, 5, 6)},
		{mk(1, 2, 3, 4, 5), mk(2, 4)},
		{mk(0), mk(0)},
		{mk(0), mk(1)},
		{mk(1, 5, 9, 13), mk(1, 13)},
		{long, mk(0, 3, 2999*3, 4999*3, 5001*3)},
		{mk(7), long},
	}
	for ci, c := range cases {
		var want []relational.TupleID
		for _, id := range c[0] {
			if _, found := slices.BinarySearch(c[1], id); found {
				want = append(want, id)
			}
		}
		if got := intersectAll(c[0], c[1]); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: lazy intersection %v, want %v", ci, got, want)
		}
		// Three-way: intersect with itself must be idempotent.
		if got := intersectAll(c[0], c[1], c[1]); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: three-way lazy intersection %v, want %v", ci, got, want)
		}
	}
}

// TestGallop pins the galloping search boundary conditions.
func TestGallop(t *testing.T) {
	list := []relational.TupleID{2, 4, 4, 8, 16, 32}
	cases := []struct {
		from   int
		target relational.TupleID
		want   int
	}{
		{0, 0, 0}, {0, 2, 0}, {0, 3, 1}, {0, 4, 1}, {0, 5, 3},
		{0, 32, 5}, {0, 33, 6}, {3, 8, 3}, {4, 8, 4}, {6, 1, 6},
	}
	for _, c := range cases {
		if got := gallop(list, c.from, c.target); got != c.want {
			t.Errorf("gallop(from=%d, target=%d) = %d, want %d", c.from, c.target, got, c.want)
		}
	}
	if got := gallop(nil, 0, 5); got != 0 {
		t.Errorf("gallop(nil) = %d, want 0", got)
	}
}
