package rank

// The round schedule of the residual push, and the scratch it runs in.
//
// Round semantics. A round consumes every frontier node's residual at its
// value frozen at round start (score[u] += r[u]; r[u] = 0), expands each
// consumed value along the node's out-flows, and applies the resulting
// contributions r[dst] += d·w·rv. The next frontier is every node whose
// post-round |r| ≥ ε, ascending. Every round is one pushRun.expand over the
// whole frontier, adding each contribution straight into r and listing dst
// the first time the round hits it; pushScratch.settle turns that list
// into the next frontier: everything at or above threshold at round start
// was consumed, so a node that is there now was hit. No round scans the
// arena.
//
// Determinism argument. Frozen values make a round a pure function of the
// round-start state, and floating-point addition is not associative, so
// the order each destination's contributions are applied in is fixed too:
// one walker, in source arena index ascending, then plan ordinal, then
// target position order.
//
// The push budget is enforced at round granularity: a round either runs in
// full or not at all.
//
// The scratch invariant. The residual vector and the per-node marks are
// the only arena-sized state a repair has beyond the scores it repairs, and
// they belong to the Plans (pushScratch, on a free list): all-zero between
// repairs, and zeroed again by walking the list of nodes the repair wrote —
// a node gets on it the first time a seed or a round touches its residual —
// never by clearing the arrays.

import (
	"math"
	"slices"

	"sizelos/internal/relational"
)

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
func (sc *pushScratch) touch(v int32) {
	if sc.mark[v]&markDirty == 0 {
		sc.mark[v] |= markDirty
		sc.dirty = append(sc.dirty, v)
	}
}

// settle turns the destinations one round hit into the next frontier: seen
// marks cleared, first-time nodes put on dirty, only the nodes still at or
// above threshold kept, and those ascending. The returned slice aliases
// hit's backing array.
func (sc *pushScratch) settle(hit []int32, eps float64) []int32 {
	out := hit[:0]
	for _, v := range hit {
		sc.mark[v] &^= markSeen
		sc.touch(v)
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

// expand is the frontier expansion of every round: consume the ascending
// frontier at its frozen values (frozen[i] = r[u]; r[u] = 0), then add each
// value's contributions d·w·rv into r in source-ascending, plan-ordinal,
// target-position order, listing on *hit every destination the round
// reaches. Consumption must finish first, or a later source's frozen value
// would include this round's adds. It reports how many nodes were consumed
// for the first time.
func (pr *pushRun) expand(frontier []int32, frozen []float64, hit *[]int32) (fresh int) {
	ps, r, mark, d := pr.ps, pr.sc.r, pr.sc.mark, pr.d
	for i, u := range frontier {
		frozen[i] = r[u]
		r[u] = 0
		if mark[u]&markPushed == 0 {
			mark[u] |= markPushed
			fresh++
		}
	}
	for i, u := range frontier {
		rv := frozen[i]
		ri := ps.relOf(u)
		src := relational.TupleID(u - ps.relOff[ri])
		for _, pi := range ps.bySrc[ri] {
			p := &ps.plans[pi]
			targets, w := p.flows(src)
			dstOff := ps.relOff[p.hop.To()]
			for k, tgt := range targets {
				dst := dstOff + int32(tgt)
				// Rounded here, so that no architecture fuses the product
				// into the add below: same bits with and without FMA.
				add := float64(d * w.at(k) * rv)
				r[dst] += add
				if mark[dst]&markSeen == 0 {
					mark[dst] |= markSeen
					*hit = append(*hit, dst)
				}
			}
		}
	}
	return fresh
}

// runPushRounds drives the residual push from the scratch's frontier until
// it drains (max |r| < eps) or the budget would be exceeded, in which case
// it stops without touching the remaining rounds and returns false so the
// caller can fall back. sc.frontier must be ascending and hold exactly the
// nodes with |r| ≥ eps, all of them on the dirty list. Residuals are
// mutated in place; what was pushed is on the scratch's log.
func (pr *pushRun) runPushRounds(eps float64, budget int, stats *Stats) bool {
	sc := pr.sc
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
		stats.ResidualNodes += pr.expand(frontier, frozen, &next)
		sc.frontier, sc.spare = sc.settle(next, eps), frontier
	}
	return true
}
