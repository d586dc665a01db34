package rank

// Fuzzing for the residual-push partitioner. The parallel scheduler's
// determinism argument leans entirely on partition invariants — regions
// tile the arena disjointly and the ascending frontier splits into
// per-region slices that concatenate back to the input — so they are
// fuzzed over arbitrary seed sets and arena geometries rather than only
// the shapes the unit tests happen to construct. The committed corpus
// under testdata/fuzz pins the interesting geometries (empty arena, one
// mega-tile, more tiles than nodes, uneven trailing tile, duplicate and
// boundary-hugging seeds) so every `go test` run replays them.

import (
	"slices"
	"testing"
)

// fuzzSeedsFromBytes derives a sorted seed list in [0, n) from raw fuzz
// bytes: a running sum folded into the arena keeps consecutive bytes
// producing clustered-but-wrapping values, covering both dense runs and
// cross-tile jumps. Duplicates are kept — the partitioner must tolerate
// them (they cannot occur in a real frontier, but nothing in its contract
// says so).
func fuzzSeedsFromBytes(data []byte, n int) []int32 {
	if n <= 0 {
		return nil
	}
	seeds := make([]int32, 0, len(data))
	v := 0
	for _, b := range data {
		v += int(b) + 1
		seeds = append(seeds, int32(v%n))
	}
	slices.Sort(seeds)
	return seeds
}

func FuzzResidualPartition(f *testing.F) {
	f.Add([]byte{}, 0, 4)             // empty arena
	f.Add([]byte{}, 17, 4)            // no seeds
	f.Add([]byte{1, 2, 3}, 1, 1)      // single-node arena
	f.Add([]byte{0, 0, 0, 0}, 8, 3)   // duplicate-heavy seeds
	f.Add([]byte{255, 255, 255}, 4096, 7) // wide jumps, uneven tiles
	f.Add([]byte{9, 9, 9, 9, 9, 9}, 5, 100) // more tiles than nodes
	f.Add([]byte{1, 1, 1, 1}, 1 << 16, 1)   // one mega-region
	f.Add([]byte{64, 64, 64, 64, 64}, 257, 4) // seeds hugging tile bounds
	f.Fuzz(func(t *testing.T, data []byte, n, tiles int) {
		if n > 1<<20 {
			n %= 1 << 20 // keep arenas allocatable; negatives stay negative
		}
		seeds := fuzzSeedsFromBytes(data, n)
		regions := partitionResidual(nil, seeds, n, tiles)

		if n <= 0 {
			if len(regions) != 0 {
				t.Fatalf("n=%d produced %d regions", n, len(regions))
			}
			return
		}
		want := tiles
		if want < 1 {
			want = 1
		}
		if want > n {
			want = n
		}
		if len(regions) == 0 || len(regions) > want {
			t.Fatalf("n=%d tiles=%d: got %d regions, want 1..%d", n, tiles, len(regions), want)
		}
		chunk := (n + want - 1) / want

		// The regions tile [0, n) exactly: contiguous, non-empty, in order,
		// none wider than the chunk — every node has exactly one owner.
		if regions[0].lo != 0 {
			t.Fatalf("first region starts at %d", regions[0].lo)
		}
		if regions[len(regions)-1].hi != int32(n) {
			t.Fatalf("last region ends at %d, arena is %d", regions[len(regions)-1].hi, n)
		}
		for i, rg := range regions {
			if rg.lo >= rg.hi {
				t.Fatalf("region %d empty or inverted: [%d, %d)", i, rg.lo, rg.hi)
			}
			if int(rg.hi-rg.lo) > chunk {
				t.Fatalf("region %d width %d exceeds chunk %d", i, rg.hi-rg.lo, chunk)
			}
			if i > 0 && rg.lo != regions[i-1].hi {
				t.Fatalf("region %d starts at %d, previous ended at %d", i, rg.lo, regions[i-1].hi)
			}
		}

		// The seed slices concatenate back to the whole input — no seed
		// dropped, none assigned twice — and every seed lands in the one
		// region that owns its arena index.
		if regions[0].seedLo != 0 {
			t.Fatalf("first seed slice starts at %d", regions[0].seedLo)
		}
		if regions[len(regions)-1].seedHi != len(seeds) {
			t.Fatalf("last seed slice ends at %d, have %d seeds", regions[len(regions)-1].seedHi, len(seeds))
		}
		for i, rg := range regions {
			if i > 0 && rg.seedLo != regions[i-1].seedHi {
				t.Fatalf("region %d seed slice starts at %d, previous ended at %d", i, rg.seedLo, regions[i-1].seedHi)
			}
			if rg.seedLo > rg.seedHi {
				t.Fatalf("region %d inverted seed slice [%d, %d)", i, rg.seedLo, rg.seedHi)
			}
			for _, s := range seeds[rg.seedLo:rg.seedHi] {
				if s < rg.lo || s >= rg.hi {
					t.Fatalf("region %d [%d, %d) was assigned out-of-range seed %d", i, rg.lo, rg.hi, s)
				}
			}
		}
	})
}
