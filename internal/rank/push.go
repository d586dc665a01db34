package rank

// The residual push loop, and the scratch it runs in.
//
// The loop. One FIFO queue, seeded with the seeds at or above ε in
// ascending arena order. drain pops its head u and, unless |r[u]| has
// fallen below ε since u was queued, pushes it: r[u] goes into u's score,
// r[u] = 0, and d·w·r[u] goes to the residual of each out-flow target,
// plan ordinal then row order; a target not on the queue whose residual
// now reaches ε joins its tail. A node is on the queue at most once at a
// time, and every node at or above ε is on it, so the queue is empty
// exactly when max|r| < ε.
//
// Determinism argument. Floating-point addition is not associative, so the
// order of every add is fixed: ascending seeds, a FIFO, and one walker
// adding each push's contributions in plan-ordinal, row order. A repair is
// a pure function of the prior, the pending delta and the options.
//
// The push budget is counted per push: the loop stops before the push that
// would exceed it.
//
// The scratch invariant. The residual vector and the per-node marks are
// the only arena-sized state a repair has beyond the scores it repairs, and
// they belong to the Plans (pushScratch, on a free list): all-zero between
// repairs, and zeroed again by walking the list of nodes the repair wrote —
// a node gets on it the first time a seed or a push touches its residual —
// never by clearing the arrays.

import (
	"math"

	"sizelos/internal/relational"
)

// The per-node marks of a repair, one byte per arena index.
const (
	markDirty  uint8 = 1 << iota // on pushScratch.dirty: the reset walk will zero it
	markPushed                   // pushed at least once (Stats.ResidualNodes)
	markQueued                   // on the queue
)

// pushScratch is the arena-sized working state of one repair — the
// residual vector and the marks — plus the queue it drains.
type pushScratch struct {
	r     []float64
	mark  []uint8
	dirty []int32 // every node whose r or mark was written, each once
	queue []int32 // the FIFO of nodes to push; drain keeps it within twice its live length
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
// free list.
func (ps *Plans) putScratch(sc *pushScratch) {
	for _, v := range sc.dirty {
		sc.r[v], sc.mark[v] = 0, 0
	}
	sc.dirty, sc.queue = sc.dirty[:0], sc.queue[:0]
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

// enqueue puts v at the tail of the queue.
func (sc *pushScratch) enqueue(v int32) {
	sc.mark[v] |= markQueued
	sc.queue = append(sc.queue, v)
}

// pushRun is the state one repair shares: raw[ri] is relation ri's score
// vector, already rescaled, that every push adds into; max[ri] was its
// maximum (at least 0) after the rescale, at slot arg[ri] (-1: none); the
// rescale multiplied raw[ri][:covered[ri]] and set the rest to the base.
type pushRun struct {
	ps      *Plans
	sc      *pushScratch
	raw     []relational.Scores
	d       float64
	max     []float64
	arg     []int32
	covered []int32
}

// relOf returns the ordinal of the relation arena index u belongs to.
func (ps *Plans) relOf(u int32) int {
	ri := 0
	for u >= ps.relOff[ri+1] {
		ri++
	}
	return ri
}

// drain pushes from the scratch's queue until it is empty (max |r| < eps)
// or the next push would exceed the budget, in which case it returns false
// so the caller can fall back. Every queued node must be marked queued and
// on the dirty list. Stats.Rounds counts queue generations: the seeds, the
// nodes they queued, and so on.
func (pr *pushRun) drain(eps float64, budget int, stats *Stats) bool {
	ps, sc, d := pr.ps, pr.sc, pr.d
	r, mark := sc.r, sc.mark
	head, gen, left := 0, 0, 0 // left: entries of generation gen not yet popped
	for head < len(sc.queue) {
		if left == 0 {
			gen, left = gen+1, len(sc.queue)-head
		}
		if head > len(sc.queue)/2 {
			sc.queue = sc.queue[:copy(sc.queue, sc.queue[head:])]
			head = 0
		}
		u := sc.queue[head]
		head, left = head+1, left-1
		mark[u] &^= markQueued
		rv := r[u]
		if math.Abs(rv) < eps {
			continue
		}
		if stats.Pushes == budget {
			return false
		}
		stats.Pushes++
		stats.Rounds = gen
		r[u] = 0
		if mark[u]&markPushed == 0 {
			mark[u] |= markPushed
			stats.ResidualNodes++
		}
		ri := ps.relOf(u)
		src := relational.TupleID(u - ps.relOff[ri])
		pr.raw[ri][src] += rv
		for _, pi := range ps.bySrc[ri] {
			p := &ps.plans[pi]
			targets, w := p.flows(src)
			dstOff := ps.relOff[p.hop.To()]
			for k, tgt := range targets {
				dst := dstOff + int32(tgt)
				// Rounded here, so that no architecture fuses the product
				// into the add below: same bits with and without FMA.
				r[dst] += float64(d * w.at(k) * rv)
				sc.touch(dst)
				if mark[dst]&markQueued == 0 && math.Abs(r[dst]) >= eps {
					sc.enqueue(dst)
				}
			}
		}
	}
	return true
}
