package rank

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"sizelos/internal/relational"
)

// NumPlans reports how many flows were compiled.
func (ps *Plans) NumPlans() int { return len(ps.plans) }

// Sources reports how many source rows plan pi holds.
func (ps *Plans) Sources(pi int) int { return len(ps.plans[pi].spans) }

// Row returns source t's row of plan pi as flows reads it: the targets and
// their split weights (nil: uniform).
func (ps *Plans) Row(pi int, t relational.TupleID) ([]relational.TupleID, []float64) {
	targets, w := ps.plans[pi].flows(t)
	return targets, w.weights
}

// Store reports plan pi's row store: the address of its backing array,
// which a reclaim replaces and an append within capacity keeps, and its
// length. The address keeps the array alive, so it is never reused for a
// later store while the caller holds it.
func (ps *Plans) Store(pi int) (*relational.TupleID, int) {
	p := &ps.plans[pi]
	return unsafe.SliceData(p.targets), len(p.targets)
}

// Captured calls fn with every pre-mutation row pending holds for plan pi.
func (pd *Pending) Captured(pi int, fn func(t relational.TupleID, targets []relational.TupleID, weights []float64)) {
	for t, r := range pd.rows[pi] {
		fn(t, r.targets, r.weights)
	}
}

// RowsDiff describes the first row in which ps and other differ — in plan
// count, source count, targets or weight bits — or returns "" when every
// row is equal.
func (ps *Plans) RowsDiff(other *Plans) string {
	if len(ps.plans) != len(other.plans) {
		return fmt.Sprintf("%d plans vs %d", len(ps.plans), len(other.plans))
	}
	for pi := range ps.plans {
		a, b := &ps.plans[pi], &other.plans[pi]
		if len(a.spans) != len(b.spans) {
			return fmt.Sprintf("plan %d: %d sources vs %d", pi, len(a.spans), len(b.spans))
		}
		for t := range a.spans {
			at, aw := a.row(relational.TupleID(t))
			bt, bw := b.row(relational.TupleID(t))
			if msg := RowDiff(at, aw, bt, bw); msg != "" {
				return fmt.Sprintf("plan %d source %d: %s", pi, t, msg)
			}
		}
	}
	return ""
}

// RowDiff describes how two rows differ — targets, or weights compared bit
// for bit — or returns "" when they are equal.
func RowDiff(at []relational.TupleID, aw []float64, bt []relational.TupleID, bw []float64) string {
	if !slices.Equal(at, bt) {
		return fmt.Sprintf("targets %v vs %v", at, bt)
	}
	if !slices.EqualFunc(aw, bw, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
		return fmt.Sprintf("weights %v vs %v", aw, bw)
	}
	return ""
}

// RunGather is the reference Plans.Run is held to: the same power iteration
// in gather form. Each destination sums its own contributions, listed in a
// transpose of the current rows built in the canonical
// order — plan ordinal, then source ascending, then target position. It
// returns the raw scores and the iteration count; opts must carry Epsilon
// and MaxIter.
func (ps *Plans) RunGather(opts Options) (relational.DBScores, int) {
	type contrib struct {
		src int32
		w   float64
	}
	in := make([][]contrib, ps.n)
	for pi := range ps.plans {
		p := &ps.plans[pi]
		srcOff, dstOff := ps.relOff[p.hop.From()], ps.relOff[p.hop.To()]
		for t := range ps.relOff[p.hop.From()+1] - srcOff {
			targets, w := p.flows(relational.TupleID(t))
			for k, tgt := range targets {
				d := dstOff + int32(tgt)
				in[d] = append(in[d], contrib{srcOff + t, w.at(k)})
			}
		}
	}
	rels := ps.g.DB.Relations
	cur, next := make([]float64, ps.n), make([]float64, ps.n)
	for i := range cur {
		cur[i] = 1 / float64(ps.n)
	}
	for ri, r := range rels {
		copy(cur[ps.relOff[ri]:ps.relOff[ri+1]], opts.Warm[r.Name])
	}
	base := (1 - opts.Damping) / float64(ps.n)
	its := 0
	for its < opts.MaxIter {
		its++
		maxDelta := 0.0
		for d, cs := range in {
			sum := 0.0
			for _, c := range cs {
				sum += c.w * cur[c.src]
			}
			next[d] = base + opts.Damping*sum
			maxDelta = max(maxDelta, math.Abs(next[d]-cur[d]))
		}
		cur, next = next, cur
		if maxDelta < opts.Epsilon {
			break
		}
	}
	out := make(relational.DBScores, len(rels))
	for ri, r := range rels {
		out[r.Name] = slices.Clone(cur[ps.relOff[ri]:ps.relOff[ri+1]])
	}
	return out, its
}
