package rank

// The round schedule of the residual push: synchronized rounds over
// owner-assigned arena tiles, so disjoint regions advance concurrently,
// with results bit-for-bit identical at any worker count.
//
// Round semantics. A round consumes every frontier node's residual at its
// value frozen at round start (score[u] += r[u]; r[u] = 0), expands each
// consumed value along the node's out-flows, and applies the resulting
// contributions r[dst] += d·w·rv. The next frontier is every node whose
// post-round |r| ≥ ε, ascending. Frozen-value rounds make the set of
// floating-point operations a pure function of the round-start state —
// nothing depends on the order nodes are processed within a round.
//
// One expansion, two sinks, one next-frontier rule. Every round runs
// pushRun.expand. A direct round (one tile, or a frontier under
// residualSerialFrontier) is one expansion over the whole frontier that
// adds each contribution straight into r; a tiled round is one expansion
// per sender region into per-owner outboxes, drained after a barrier.
// Which one runs is a function of the frontier size alone, so it is the
// same at every worker count above one. Either way whoever adds into r[dst]
// lists dst the first time the round hits it, and pushScratch.settle turns
// each list into its share of the next frontier: everything at or above
// threshold at round start was consumed, so a node that is there now was
// hit. No round scans the arena.
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
//     the same adds, in the same order, as the direct walk. A contribution
//     that crosses a tile boundary is therefore no special case.
//
// The push budget is enforced at round granularity (a round either runs
// in full or not at all), so the fallback decision is also independent of
// the worker count.
//
// The scratch invariant. The residual vector and the per-node marks are
// the only arena-sized state a repair has beyond the scores it repairs, and
// they belong to the Plans (pushScratch, on a free list): all-zero between
// repairs, and zeroed again by walking the list of nodes the repair wrote —
// a node gets on it the first time a seed or a round touches its residual —
// never by clearing the arrays.

import (
	"math"
	"runtime"
	"slices"
	"sync"

	"sizelos/internal/relational"
)

// residualRegion is one contiguous owner-assigned tile of the score arena
// plus the slice of the current (ascending) frontier it owns.
type residualRegion struct {
	lo, hi         int32 // owned arena range [lo, hi)
	seedLo, seedHi int   // owned slice bounds into the sorted seed list
}

// tileWidth is the owner-region width of an n-node arena split tiles ways:
// arena index v belongs to region v / tileWidth(n, tiles).
func tileWidth(n, tiles int) int {
	tiles = max(1, min(tiles, n))
	return (n + tiles - 1) / tiles
}

// partitionResidual tiles the arena [0, n) into at most tiles contiguous
// owner regions of width ceil(n/tiles), into dst's storage (every tiled
// round re-partitions its frontier), and assigns every seed to the unique
// region owning it. seeds must be sorted ascending with every value in
// [0, n). The returned regions cover the arena disjointly and their seed
// slices concatenate back to the input — the invariants
// FuzzResidualPartition locks down.
func partitionResidual(dst []residualRegion, seeds []int32, n, tiles int) []residualRegion {
	dst = dst[:0]
	if n <= 0 {
		return dst
	}
	chunk := tileWidth(n, tiles)
	si := 0
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		seedLo := si
		for si < len(seeds) && int(seeds[si]) < hi {
			si++
		}
		dst = append(dst, residualRegion{int32(lo), int32(hi), seedLo, si})
	}
	return dst
}

// resolveWorkers maps Options.Parallel onto a worker count for an n-node
// arena: 0 sizes by GOMAXPROCS (serial on small arenas, where goroutine
// overhead dominates), 1 forces serial, >1 forces that many (capped at n).
func resolveWorkers(parallel, n int) int {
	w := parallel
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
		if n < 4096 {
			w = 1
		}
	}
	return max(1, min(w, n))
}

// residualSerialFrontier is the frontier size below which a round applies
// its contributions directly instead of through the outboxes, even when
// more tiles are available: the result is bit-identical either way, so
// small rounds skip the two barriers.
const residualSerialFrontier = 256

// The per-node marks of a repair, one byte per arena index.
const (
	markDirty  uint8 = 1 << iota // on pushScratch.dirty: the reset walk will zero it
	markPushed                   // consumed at least once (Stats.ResidualNodes)
	markSeen                     // already listed as hit by the current round
)

// pushScratch is the arena-sized working state of one repair — the
// residual vector and the marks — plus the frontier-sized buffers its
// rounds reuse.
type pushScratch struct {
	r     []float64
	mark  []uint8
	dirty []int32 // every node whose r or mark was written, each once

	frontier, spare []int32 // the current frontier and the previous one's storage
	// The push log, round after round: node pushed[k] was consumed at
	// frozen[k]. No score is written until the push has drained and the log
	// is replayed, so a repair that trips the budget leaves the prior alone.
	pushed []int32
	frozen []float64
}

// takeScratch pops a scratch off the free list, or makes one. Arrays the
// arena outgrew are replaced, a sixteenth larger so inserts rarely do it.
func (ps *Plans) takeScratch() *pushScratch {
	var sc *pushScratch
	ps.scratchMu.Lock()
	if k := len(ps.scratchFree) - 1; k >= 0 {
		sc, ps.scratchFree = ps.scratchFree[k], ps.scratchFree[:k]
	} else {
		sc = new(pushScratch)
	}
	ps.scratchMu.Unlock()
	if len(sc.r) < ps.n {
		sc.r, sc.mark = make([]float64, ps.n+ps.n/16), make([]uint8, ps.n+ps.n/16)
	}
	return sc
}

// putScratch zeroes what the repair wrote and returns the scratch to the
// free list, without a log that outgrew the arena (a budget trip's).
func (ps *Plans) putScratch(sc *pushScratch) {
	for _, v := range sc.dirty {
		sc.r[v], sc.mark[v] = 0, 0
	}
	sc.dirty = sc.dirty[:0]
	if cap(sc.pushed) > len(sc.r) {
		sc.pushed, sc.frozen = nil, nil
	}
	ps.scratchMu.Lock()
	ps.scratchFree = append(ps.scratchFree, sc)
	ps.scratchMu.Unlock()
}

// touch puts v on the dirty list unless it is there already.
func (sc *pushScratch) touch(v int32, dirty *[]int32) {
	if sc.mark[v]&markDirty == 0 {
		sc.mark[v] |= markDirty
		*dirty = append(*dirty, v)
	}
}

// settle turns the destinations one round hit into the next frontier (or
// one owner's slice of it): seen marks cleared, first-time nodes put on
// dirty, only the nodes still at or above threshold kept, and those
// ascending. The returned slice aliases hit's backing array.
func (sc *pushScratch) settle(hit []int32, dirty *[]int32, eps float64) []int32 {
	out := hit[:0]
	for _, v := range hit {
		sc.mark[v] &^= markSeen
		sc.touch(v, dirty)
		if math.Abs(sc.r[v]) >= eps {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

// pushRun is the state one repair's rounds share, and what the prior
// score vectors it repairs stand for until the drained push is written
// through: raw[ri] is relation ri's vector, whose entries under covered[ri]
// hold the prior p and stand for c·p; the rest are fresh inserts, at base.
type pushRun struct {
	ps      *Plans
	sc      *pushScratch
	raw     []relational.Scores
	covered []int32
	c, base float64
	d       float64
}

// prior returns what entry idx of relation ri stands for.
func (pr *pushRun) prior(ri int, idx int32) float64 {
	if idx < pr.covered[ri] {
		return pr.c * pr.raw[ri][idx]
	}
	return pr.base
}

// relOf returns the ordinal of the relation arena index u belongs to.
func (ps *Plans) relOf(u int32) int {
	ri := 0
	for u >= ps.relOff[ri+1] {
		ri++
	}
	return ri
}

// pushOutbox holds the contributions in flight between one sender region
// and one owner, as parallel arrays (12 bytes an entry instead of a padded
// 16, and the drain streams two dense slices).
type pushOutbox struct {
	dst []int32
	add []float64
}

// pushTile is what one region of a tiled round collects for the serial
// step after the barriers: as a sender, an outbox per owner and what
// expand reports; as an owner, its share of the next frontier.
type pushTile struct {
	out            []pushOutbox
	fresh, handoff int
	next           []int32 // hits, settled into its next-frontier slice
	dirty          []int32 // nodes first written this round
}

// expand is the frontier expansion of every round: consume the ascending
// frontier slice at its frozen values (frozen[i] = r[u]; r[u] = 0), then
// emit each value's contributions d·w·rv in source-ascending,
// plan-ordinal, target-position order. With out nil the slice is the whole
// frontier and contributions are added straight into r and listed on *hit
// (consumption must finish first, or a later source's frozen value would
// include this round's adds). Otherwise the caller is sender region self
// of a tiled round, out is its outboxes, arena index v is owned by region
// v / chunk, and nothing outside the sender's own tile is written. It
// reports how many nodes were consumed for the first time and how many
// contributions left the tile.
func (pr *pushRun) expand(frontier []int32, frozen []float64, hit *[]int32, out []pushOutbox, chunk int32, self int) (fresh, handoffs int) {
	ps, r, mark, d := pr.ps, pr.sc.r, pr.sc.mark, pr.d
	for i, u := range frontier {
		frozen[i] = r[u]
		r[u] = 0
		if mark[u]&markPushed == 0 {
			mark[u] |= markPushed
			fresh++
		}
	}
	for o := range out {
		out[o].dst = out[o].dst[:0]
		out[o].add = out[o].add[:0]
	}
	for i, u := range frontier {
		rv := frozen[i]
		ri := ps.relOf(u)
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
					if mark[dst]&markSeen == 0 {
						mark[dst] |= markSeen
						*hit = append(*hit, dst)
					}
					continue
				}
				o := dst / chunk
				out[o].dst = append(out[o].dst, dst)
				out[o].add = append(out[o].add, add)
				if int(o) != self {
					handoffs++
				}
			}
		}
	}
	return fresh, handoffs
}

// runPushRounds drives the round-synchronous residual push from the
// scratch's frontier until it drains (max |r| < eps) or the budget would be
// exceeded, in which case it stops without touching the remaining rounds
// and returns false so the caller can fall back. sc.frontier must be
// ascending and hold exactly the nodes with |r| ≥ eps, all of them on the
// dirty list. Residuals are mutated in place; what was pushed is on the
// scratch's log. Results are bit-for-bit identical at any worker count; see
// the comment at the top of this file for the order argument.
func (pr *pushRun) runPushRounds(eps float64, budget, workers int, stats *Stats) bool {
	sc, n := pr.sc, pr.ps.n
	stats.Regions = workers
	chunk := int32(tileWidth(n, workers))
	var tiles []pushTile // built by the first tiled round: most repairs never run one
	var regions []residualRegion
	sc.pushed, sc.frozen = sc.pushed[:0], sc.frozen[:0]

	for len(sc.frontier) > 0 {
		frontier := sc.frontier
		if stats.Pushes+len(frontier) > budget {
			return false
		}
		stats.Rounds++
		stats.Pushes += len(frontier)
		sc.pushed = append(sc.pushed, frontier...)
		sc.frozen = append(sc.frozen, make([]float64, len(frontier))...)
		frozen := sc.frozen[len(sc.frozen)-len(frontier):]
		next := sc.spare[:0]

		if workers == 1 || len(frontier) < residualSerialFrontier {
			// Direct round: one expansion over the whole frontier.
			fresh, _ := pr.expand(frontier, frozen, &next, nil, 0, 0)
			stats.ResidualNodes += fresh
			next = sc.settle(next, &sc.dirty, eps)
		} else {
			// Tiled round, phase 1: each sender region expands its ascending
			// frontier slice into per-owner outboxes.
			if tiles == nil {
				tiles = make([]pushTile, workers)
				for s := range tiles {
					tiles[s].out = make([]pushOutbox, workers)
				}
			}
			regions = partitionResidual(regions, frontier, n, workers)
			var wg sync.WaitGroup
			for s, reg := range regions {
				wg.Add(1)
				go func(t *pushTile, s int, reg residualRegion) {
					defer wg.Done()
					t.fresh, t.handoff = pr.expand(frontier[reg.seedLo:reg.seedHi], frozen[reg.seedLo:reg.seedHi], nil, t.out, chunk, s)
				}(&tiles[s], s, reg)
			}
			wg.Wait()

			// Phase 2: each owner drains its inboxes in sender order (global
			// source-ascending order per destination), listing what it hits,
			// and settles the list into its slice of the next frontier.
			for o := range regions {
				wg.Add(1)
				go func(t *pushTile, o int) {
					defer wg.Done()
					hit := t.next[:0]
					for s := range regions {
						in := &tiles[s].out[o]
						for k, dst := range in.dst {
							sc.r[dst] += in.add[k]
							if sc.mark[dst]&markSeen == 0 {
								sc.mark[dst] |= markSeen
								hit = append(hit, dst)
							}
						}
					}
					t.dirty = t.dirty[:0]
					t.next = sc.settle(hit, &t.dirty, eps)
				}(&tiles[o], o)
			}
			wg.Wait()

			for o := range regions {
				t := &tiles[o]
				stats.ResidualNodes += t.fresh
				stats.Handoffs += t.handoff
				next = append(next, t.next...)
				sc.dirty = append(sc.dirty, t.dirty...)
			}
		}
		sc.frontier, sc.spare = next, frontier
	}
	return true
}
