package rank

// The round schedule of the residual push: synchronized rounds over
// owner-assigned arena tiles, so disjoint regions advance concurrently,
// with results bit-for-bit identical at any worker count.
//
// Round semantics. A round consumes every frontier node's residual at its
// value frozen at round start (cur[u] += r[u]; r[u] = 0), expands each
// consumed value along the node's out-flows, and applies the resulting
// contributions r[dst] += d·w·rv. The next frontier is every node whose
// post-round |r| ≥ ε, ascending. Frozen-value rounds make the set of
// floating-point operations a pure function of the round-start state —
// nothing depends on the order nodes are processed within a round.
//
// One expansion, two sinks. Every round runs pushRun.expand. A direct
// round (one tile, or a frontier under residualSerialFrontier) is one
// expansion over the whole frontier that adds each contribution straight
// into r; a tiled round is one expansion per sender region into per-owner
// outboxes, drained after a barrier. Which one runs is a function of the
// frontier size alone, so it is the same at every worker count above one.
//
// Determinism argument. Floating-point addition is not associative, so
// "same operations" is not enough: every destination's contributions must
// be *applied in the same order* regardless of worker count. The schedule
// fixes that order to: source arena index ascending, then plan ordinal,
// then target position — exactly the order a direct round walking the
// ascending frontier emits. Tiled rounds preserve it structurally:
//
//   - the arena is tiled into contiguous owner regions (region w owns
//     [w·chunk, (w+1)·chunk)); the ascending frontier therefore splits
//     into per-region slices that are themselves ascending;
//   - each sender region expands its frontier slice in ascending order,
//     appending contributions into one outbox per owner region (never
//     writing another region's arena state);
//   - after a barrier, each owner drains its inboxes in sender order.
//     Sender regions cover ascending disjoint ranges, so concatenating
//     inboxes in sender order replays the global ascending-source order —
//     the same adds, in the same order, as the direct walk.
//
// Cross-boundary pushes are therefore not a special case needing a region
// merge: a contribution that crosses a tile boundary simply rides the
// outbox to its owner and is applied at the same position in the
// destination's reduction order as in a direct round.
//
// The push budget is enforced at round granularity (a round either runs
// in full or not at all), so the fallback decision is also independent of
// the worker count.

import (
	"math"
	"runtime"
	"slices"
	"sync"

	"sizelos/internal/relational"
)

// residualRegion is one contiguous owner-assigned tile of the score arena
// plus the slice of the current (ascending) frontier it owns. Regions
// returned by partitionResidual tile [0, n) exactly: every node has one
// owner, every frontier seed lands in exactly one region.
type residualRegion struct {
	lo, hi         int32 // owned arena range [lo, hi)
	seedLo, seedHi int   // owned slice bounds into the sorted seed list
}

// partitionResidual tiles the arena [0, n) into at most tiles contiguous
// owner regions of width ceil(n/tiles) and assigns every seed to the
// unique region owning it. seeds must be sorted ascending with every
// value in [0, n). The returned regions cover the arena disjointly and
// their seed slices concatenate back to the input — the invariants
// FuzzResidualPartition locks down.
func partitionResidual(seeds []int32, n, tiles int) []residualRegion {
	return appendResidualPartition(nil, seeds, n, tiles)
}

// appendResidualPartition is partitionResidual into a reused buffer (every
// tiled round re-partitions its frontier).
func appendResidualPartition(dst []residualRegion, seeds []int32, n, tiles int) []residualRegion {
	dst = dst[:0]
	if n <= 0 {
		return dst
	}
	if tiles < 1 {
		tiles = 1
	}
	if tiles > n {
		tiles = n
	}
	chunk := (n + tiles - 1) / tiles
	si := 0
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		seedLo := si
		for si < len(seeds) && int(seeds[si]) < hi {
			si++
		}
		dst = append(dst, residualRegion{int32(lo), int32(hi), seedLo, si})
	}
	return dst
}

// resolveResidualWorkers maps Options.Parallel onto a region count:
// 0 sizes by GOMAXPROCS (serial on small arenas, mirroring Plans.Run),
// 1 forces serial, >1 forces that many owner tiles (capped at n).
func resolveResidualWorkers(parallel, n int) int {
	w := parallel
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
		if n < 4096 {
			w = 1
		}
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// residualSerialFrontier is the frontier size below which a round applies
// its contributions directly instead of through the outboxes, even when
// more tiles are available: the result is bit-identical either way, so
// small rounds skip the two barriers.
const residualSerialFrontier = 256

// pushOutbox holds the expanded residual contributions in flight between
// one sender region and one owner, as parallel arrays (struct-of-arrays
// keeps an entry at 12 bytes instead of a padded 16 and lets the drain
// stream two dense slices).
type pushOutbox struct {
	dst []int32
	add []float64
}

// pushRun is the state one repair's rounds share.
type pushRun struct {
	ps     *Plans
	cur, r []float64
	relOf  []int32 // arena index -> relation ordinal
	d      float64
	pushed []bool // node consumed at least once (Stats.ResidualNodes)
	// Direct rounds collect the destinations they hit: seen marks them, next
	// lists them (unsorted).
	seen []bool
	next []int32
}

// pushTiles is what tiled rounds need on top: the owner of every arena
// index (one lookup instead of a division by the chunk width per
// contribution), the [sender][owner] outboxes, and each owner's slice of
// the next frontier. Built by the first tiled round — most repairs never
// run one.
type pushTiles struct {
	ownerOf  []int32
	outbox   [][]pushOutbox
	regions  []residualRegion // the round's frontier partition
	nextPart [][]int32        // per-owner rebuilt next frontier
	below    []float64        // per-owner max sub-threshold residual
	fresh    []int            // per-sender newly pushed node counts
	handoff  []int            // per-sender cross-tile contributions
}

func newPushTiles(n, tiles int) *pushTiles {
	t := &pushTiles{
		ownerOf:  make([]int32, n),
		outbox:   make([][]pushOutbox, tiles),
		nextPart: make([][]int32, tiles),
		below:    make([]float64, tiles),
		fresh:    make([]int, tiles),
		handoff:  make([]int, tiles),
	}
	chunk := (n + tiles - 1) / tiles
	for i := range t.ownerOf {
		t.ownerOf[i] = int32(i / chunk)
	}
	for s := range t.outbox {
		t.outbox[s] = make([]pushOutbox, tiles)
	}
	return t
}

// expand is the frontier expansion of every round: consume the ascending
// frontier slice at its frozen values (frozen[i] = r[u]; r[u] = 0;
// cur[u] += frozen[i]), then emit each value's contributions d·w·rv in
// source-ascending, plan-ordinal, target-position order. With t nil the
// slice is the whole frontier and contributions are added straight into r
// (consumption must finish first, or a later source's frozen value would
// include this round's adds). Otherwise the caller is sender region self
// of a tiled round: contributions go to its outboxes and nothing outside
// the sender's own tile is written. It reports how many nodes were
// consumed for the first time and how many contributions left the tile.
func (pr *pushRun) expand(frontier []int32, frozen []float64, t *pushTiles, self int) (fresh, handoffs int) {
	ps, r, cur, d := pr.ps, pr.r, pr.cur, pr.d
	for i, u := range frontier {
		frozen[i] = r[u]
		r[u] = 0
		cur[u] += frozen[i]
		if !pr.pushed[u] {
			pr.pushed[u] = true
			fresh++
		}
	}
	var out []pushOutbox
	var ownerOf []int32
	if t != nil {
		out, ownerOf = t.outbox[self], t.ownerOf
		for o := range out {
			out[o].dst = out[o].dst[:0]
			out[o].add = out[o].add[:0]
		}
	}
	seen, next := pr.seen, pr.next
	for i, u := range frontier {
		rv := frozen[i]
		ri := pr.relOf[u]
		src := relational.TupleID(u - ps.relOff[ri])
		for _, pi := range ps.bySrc[ri] {
			p := &ps.plans[pi]
			targets, w := p.flows(src)
			dstOff := ps.relOff[p.dstRel]
			for k, tgt := range targets {
				dst := dstOff + int32(tgt)
				// Rounded here, so that no architecture fuses the product
				// into the direct add below: both sinks add the same value.
				add := float64(d * w.at(k) * rv)
				if out == nil {
					r[dst] += add
					if !seen[dst] {
						seen[dst] = true
						next = append(next, dst)
					}
					continue
				}
				o := ownerOf[dst]
				out[o].dst = append(out[o].dst, dst)
				out[o].add = append(out[o].add, add)
				if int(o) != self {
					handoffs++
				}
			}
		}
	}
	if out == nil {
		pr.next = next
	}
	return fresh, handoffs
}

// runPushRounds drives the round-synchronous residual push until the
// frontier drains (max |r| < eps) or the budget would be exceeded, in
// which case it stops without touching the remaining rounds and returns
// false so the caller can fall back. frontier must be ascending and hold
// exactly the nodes with |r| ≥ eps. cur and r are mutated in place.
// Results are bit-for-bit identical at any worker count; see the comment
// at the top of this file for the order argument.
func (ps *Plans) runPushRounds(cur, r []float64, relOf []int32, frontier []int32, d, eps float64, budget, workers int, stats *Stats) bool {
	n := ps.n
	stats.Regions = workers
	pr := &pushRun{ps: ps, cur: cur, r: r, relOf: relOf, d: d, pushed: make([]bool, n), seen: make([]bool, n)}
	var t *pushTiles
	var frozen []float64 // the round's consumed residuals, parallel to the frontier
	var spare []int32    // the previous frontier's storage, reused for the next

	for len(frontier) > 0 {
		if stats.Pushes+len(frontier) > budget {
			return false
		}
		stats.Rounds++
		stats.Pushes += len(frontier)
		if cap(frozen) < len(frontier) {
			frozen = make([]float64, len(frontier))
		}
		frozen = frozen[:len(frontier)]

		if workers == 1 || len(frontier) < residualSerialFrontier {
			// Direct round: one expansion over the whole frontier, then the
			// next frontier is whatever it hit that now sits at or above
			// threshold, ascending.
			pr.next = spare[:0]
			fresh, _ := pr.expand(frontier, frozen, nil, 0)
			stats.ResidualNodes += fresh
			slices.Sort(pr.next)
			spare = frontier
			frontier, stats.MaxDelta = filterFrontier(r, pr.next, pr.seen, eps)
			continue
		}

		// Tiled round, phase 1: each sender region expands its ascending
		// frontier slice into per-owner outboxes.
		if t == nil {
			t = newPushTiles(n, workers)
		}
		t.regions = appendResidualPartition(t.regions, frontier, n, workers)
		var wg sync.WaitGroup
		for s, reg := range t.regions {
			wg.Add(1)
			go func(s int, reg residualRegion) {
				defer wg.Done()
				t.fresh[s], t.handoff[s] = pr.expand(frontier[reg.seedLo:reg.seedHi], frozen[reg.seedLo:reg.seedHi], t, s)
			}(s, reg)
		}
		wg.Wait()

		// Phase 2: each owner drains its inboxes in sender order (global
		// source-ascending order per destination), then rebuilds its slice
		// of the next frontier by scanning its owned range — a streaming
		// pass that skips the direct round's collect/sort and yields the
		// same set: any node at or above threshold was either hit this
		// round or already in the frontier.
		for o, reg := range t.regions {
			wg.Add(1)
			go func(o int, reg residualRegion) {
				defer wg.Done()
				for s := range t.regions {
					in := &t.outbox[s][o]
					for k, dst := range in.dst {
						r[dst] += in.add[k]
					}
				}
				nf := t.nextPart[o][:0]
				mb := 0.0
				for v := reg.lo; v < reg.hi; v++ {
					if a := math.Abs(r[v]); a >= eps {
						nf = append(nf, v)
					} else if a > mb {
						mb = a
					}
				}
				t.nextPart[o], t.below[o] = nf, mb
			}(o, reg)
		}
		wg.Wait()

		stats.MaxDelta = 0
		next := spare[:0]
		for o := range t.regions {
			stats.ResidualNodes += t.fresh[o]
			stats.Handoffs += t.handoff[o]
			stats.MaxDelta = max(stats.MaxDelta, t.below[o])
			next = append(next, t.nextPart[o]...)
		}
		spare = frontier
		frontier = next
	}
	return true
}

// filterFrontier clears the seen marks of the sorted candidate list and
// keeps the nodes still carrying an above-threshold residual — the next
// round's frontier — along with the max sub-threshold residual left
// behind (MaxDelta telemetry: each round overwrites it, so the final
// round's leftover survives). The returned slice aliases cand's backing
// array.
func filterFrontier(r []float64, cand []int32, seen []bool, eps float64) ([]int32, float64) {
	out := cand[:0]
	maxBelow := 0.0
	for _, v := range cand {
		seen[v] = false
		if a := math.Abs(r[v]); a >= eps {
			out = append(out, v)
		} else if a > maxBelow {
			maxBelow = a
		}
	}
	return out, maxBelow
}
