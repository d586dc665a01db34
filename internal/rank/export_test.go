package rank

import (
	"math"
	"slices"

	"sizelos/internal/relational"
)

// RunGather is the reference Plans.Run is held to: the same power iteration
// in gather form. Each destination sums its own contributions, listed in a
// transpose of the current rows (overlay included) built in the canonical
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
		srcOff, dstOff := ps.relOff[p.srcRel], ps.relOff[p.dstRel]
		for t := range ps.relOff[p.srcRel+1] - srcOff {
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
