package rank

import (
	"fmt"
	"math"
	"sync"

	"sizelos/internal/datagraph"
	"sizelos/internal/relational"
)

// Plans is a G_A compiled against one data graph: the reusable half of the
// power iteration. Compilation resolves every flow into CSR push plans,
// lays the per-relation score vectors out in one contiguous arena, and
// transposes the flows into per-destination contribution lists so the push
// phase writes each score once, summed in one canonical order.
//
// After Compile a *Plans is safe for concurrent Run/RunResidual calls: the
// engine compiles each G_A once and runs the three GA1 dampings over the
// same compiled plans, concurrently. Apply mutates the plans in place
// (splicing a committed batch's row changes into a per-source overlay) and
// must be serialized against runs by the caller — the engine does both
// under its write lock.
type Plans struct {
	g     *datagraph.Graph
	plans []plan
	vf    func(float64) float64

	// Arena layout: scores of relation ordinal ri live at
	// arena[relOff[ri]:relOff[ri+1]]; n is the total node count.
	relOff []int32
	n      int

	// bySrc[ri] lists the ordinals of plans whose source relation is ri —
	// the out-flows a residual push at a node of ri propagates along.
	bySrc [][]int32

	// Pull form: the transpose of every push plan, concatenated in
	// canonical order (plan ordinal, then source tuple, then target
	// ordinal). Destination arena index d receives contributions
	// pullW[k]*cur[pullSrc[k]] for k in [pullOff[d], pullOff[d+1]).
	// pullW folds together the flow rate and the split weight (uniform
	// 1/outdegree, or the value-proportional ValueRank weight), so one
	// fused multiply-add per contribution is the whole push phase.
	//
	// The pull arrays are derived state, released when Apply invalidates
	// them and rebuilt lazily (pullOnce is swapped for a fresh sync.Once):
	// the residual path never needs them, so a mutation stream that stays
	// on residual re-ranks neither pays the transpose nor holds a stale one.
	pullOff  []int32
	pullSrc  []int32
	pullW    []float64
	pullOnce *sync.Once
	pullErr  error

	// scratchFree holds the arena-sized working state of residual repairs
	// (pushScratch), all-zero while it sits here: as many as repairs ever
	// ran at once over these plans, gone when the plans are.
	scratchMu   sync.Mutex
	scratchFree []*pushScratch
}

// Compile resolves ga's flows against the data graph into reusable push
// plans: the per-flow CSR rows, the arena layout, the source index, and the
// eager first pull transpose (so layout overflow surfaces at compile time,
// not mid-query). vf is the ValueRank f(·) applied to value columns (nil
// means identity; it must map non-negative inputs to non-negative outputs)
// and is baked into the compiled split weights.
func Compile(g *datagraph.Graph, ga *GA, vf func(float64) float64) (*Plans, error) {
	if vf == nil {
		vf = func(x float64) float64 { return x }
	}
	plans, err := compile(g, ga, vf)
	if err != nil {
		return nil, err
	}
	db := g.DB
	nRel := len(db.Relations)
	ps := &Plans{g: g, plans: plans, vf: vf, relOff: make([]int32, nRel+1), pullOnce: new(sync.Once)}
	for ri := 0; ri < nRel; ri++ {
		ps.relOff[ri+1] = ps.relOff[ri] + int32(g.RelSize(ri))
	}
	ps.n = int(ps.relOff[nRel])
	ps.bySrc = make([][]int32, nRel)
	for pi := range ps.plans {
		src := ps.plans[pi].srcRel
		ps.bySrc[src] = append(ps.bySrc[src], int32(pi))
	}
	if err := ps.ensurePull(); err != nil {
		return nil, err
	}
	return ps, nil
}

// ensurePull (re)builds the pull transpose if an Apply invalidated it.
// Safe for concurrent Run callers; Apply must not run concurrently.
func (ps *Plans) ensurePull() error {
	ps.pullOnce.Do(func() { ps.pullErr = ps.buildPull() })
	return ps.pullErr
}

// buildPull transposes the push plans into per-destination CSR lists. The
// canonical contribution order per destination — plan ordinal, then source
// tuple ascending, then target position — fixes the floating-point
// accumulation order: it is the float program every Run executes. Rows are
// read through the overlay, which yields the same arrays a fresh Compile over
// the mutated graph would (plan rows are recomputed from the graph, and
// the graph is maintained edge-exact).
func (ps *Plans) buildPull() error {
	// The pull CSR uses int32 offsets; guard the total contribution count
	// before building so overflow surfaces as an error, not corruption.
	total := int64(0)
	for pi := range ps.plans {
		p := &ps.plans[pi]
		srcN := int(ps.relOff[p.srcRel+1] - ps.relOff[p.srcRel])
		if p.patch == nil {
			total += int64(len(p.targets))
			continue
		}
		for t := 0; t < srcN; t++ {
			row, _ := p.row(relational.TupleID(t))
			total += int64(len(row))
		}
	}
	if total > math.MaxInt32 {
		return fmt.Errorf("rank: %d flow contributions exceed the int32 plan layout", total)
	}
	counts := make([]int32, ps.n+1)
	for pi := range ps.plans {
		p := &ps.plans[pi]
		dstOff := ps.relOff[p.dstRel]
		if p.patch == nil {
			for _, t := range p.targets {
				counts[dstOff+int32(t)+1]++
			}
			continue
		}
		srcN := int(ps.relOff[p.srcRel+1] - ps.relOff[p.srcRel])
		for t := 0; t < srcN; t++ {
			row, _ := p.row(relational.TupleID(t))
			for _, tgt := range row {
				counts[dstOff+int32(tgt)+1]++
			}
		}
	}
	for d := 0; d < ps.n; d++ {
		counts[d+1] += counts[d]
	}
	ps.pullOff = counts
	ps.pullSrc = make([]int32, total)
	ps.pullW = make([]float64, total)
	fill := make([]int32, ps.n)
	copy(fill, ps.pullOff[:ps.n])
	for pi := range ps.plans {
		p := &ps.plans[pi]
		srcOff := ps.relOff[p.srcRel]
		dstOff := ps.relOff[p.dstRel]
		srcN := int(ps.relOff[p.srcRel+1]) - int(srcOff)
		for t := 0; t < srcN; t++ {
			targets, w := p.flows(relational.TupleID(t))
			src := srcOff + int32(t)
			for k, tgt := range targets {
				d := dstOff + int32(tgt)
				ps.pullSrc[fill[d]] = src
				ps.pullW[fill[d]] = w.at(k)
				fill[d]++
			}
		}
	}
	return nil
}

// NumNodes reports the arena size (total tuples across all relations).
func (ps *Plans) NumNodes() int { return ps.n }

// Run executes the ObjectRank/ValueRank power iteration over the compiled
// plans and returns one score per tuple, keyed by relation name. The
// recurrence per tuple v is
//
//	r(v) = d · Σ_{u→v} α(e)·w(u→v)·r(u) + (1−d)/N
//
// where the sum ranges over incoming flows, α(e) is the flow rate and
// w(u→v) is u's split weight over the tuples it reaches on that flow
// (uniform, or value-proportional when the flow carries a ValueCol). Safe
// to call concurrently on the same *Plans.
//
// One goroutine runs every iteration: each destination's contributions are
// summed in canonical order, and the max-delta convergence scan is fused
// into the same pass. The engine's parallelism is one level up, settings
// side by side (Engine.rankSettings).
func (ps *Plans) Run(opts Options) (relational.DBScores, Stats, error) {
	if opts.Damping < 0 || opts.Damping > 1 {
		return nil, Stats{}, fmt.Errorf("rank: damping %v outside [0,1]", opts.Damping)
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 500
	}
	if opts.Epsilon <= 0 {
		opts.Epsilon = 1e-9
	}
	if err := ps.ensurePull(); err != nil {
		return nil, Stats{}, err
	}
	db := ps.g.DB
	if ps.n == 0 {
		return relational.DBScores{}, Stats{Converged: true}, nil
	}

	cur := make([]float64, ps.n)
	next := make([]float64, ps.n)
	inv := 1 / float64(ps.n)
	for i := range cur {
		cur[i] = inv
	}
	warm := false
	if opts.Warm != nil {
		// Seed from the prior run's raw scores, positionally per relation;
		// slots the prior doesn't cover keep the uniform start.
		for ri, r := range db.Relations {
			w := opts.Warm[r.Name]
			off := int(ps.relOff[ri])
			size := int(ps.relOff[ri+1]) - off
			if len(w) > size {
				w = w[:size]
			}
			copy(cur[off:off+len(w)], w)
			warm = true
		}
	}
	base := (1 - opts.Damping) / float64(ps.n)

	stats := Stats{WarmStart: warm}
	for it := 0; it < opts.MaxIter; it++ {
		maxDelta := ps.pushAll(cur, next, opts.Damping, base)
		cur, next = next, cur
		stats.Iterations = it + 1
		stats.MaxDelta = maxDelta
		if maxDelta < opts.Epsilon {
			stats.Converged = true
			break
		}
	}
	stats.Updates = stats.Iterations * ps.n

	scores := make(relational.DBScores, len(db.Relations))
	for ri, r := range db.Relations {
		s := make(relational.Scores, ps.relOff[ri+1]-ps.relOff[ri])
		copy(s, cur[ps.relOff[ri]:ps.relOff[ri+1]])
		scores[r.Name] = s
	}
	if opts.NormalizeMax > 0 {
		Normalize(scores, opts.NormalizeMax)
	}
	return scores, stats, nil
}

// pushAll computes one iteration's scores for every destination arena index
// and returns the max |next-cur| delta (the convergence scan fused into the
// push).
func (ps *Plans) pushAll(cur, next []float64, damping, base float64) float64 {
	maxDelta := 0.0
	pullOff, pullSrc, pullW := ps.pullOff, ps.pullSrc, ps.pullW
	for d := 0; d < ps.n; d++ {
		sum := 0.0
		for k := pullOff[d]; k < pullOff[d+1]; k++ {
			sum += pullW[k] * cur[pullSrc[k]]
		}
		s := base + damping*sum
		next[d] = s
		if delta := math.Abs(s - cur[d]); delta > maxDelta {
			maxDelta = delta
		}
	}
	return maxDelta
}
