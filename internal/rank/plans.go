package rank

import (
	"fmt"
	"math"
	"sync"

	"sizelos/internal/datagraph"
	"sizelos/internal/relational"
)

// Plans is a G_A compiled against one data graph: the reusable half of the
// power iteration. Compilation resolves every flow into push rows — one
// span per source tuple into the flow's append-only row store — and lays
// the per-relation score vectors out in one contiguous arena; the rows are
// the one form of the flows that Run, RunResidual and Apply share.
//
// After Compile a *Plans is safe for concurrent Run/RunResidual calls: the
// engine compiles each G_A once and runs the three GA1 dampings over the
// same compiled plans, concurrently. Apply mutates the plans in place
// (appending a committed batch's rebuilt rows to the stores) and must be
// serialized against runs by the caller — the engine does both under its
// write lock.
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

	// scratchFree holds the arena-sized working state of residual repairs
	// (pushScratch), all-zero while it sits here: as many as repairs ever
	// ran at once over these plans, gone when the plans are.
	scratchMu   sync.Mutex
	scratchFree []*pushScratch
}

// Compile resolves ga's flows against the data graph into reusable push
// plans: every source tuple's row, the arena layout and the source index.
// vf is the ValueRank f(·) applied to value columns (nil means identity; it
// must map non-negative inputs to non-negative outputs) and is baked into
// the rows' split weights.
func Compile(g *datagraph.Graph, ga *GA, vf func(float64) float64) (*Plans, error) {
	if vf == nil {
		vf = func(x float64) float64 { return x }
	}
	db := g.DB
	nRel := len(db.Relations)
	ps := &Plans{g: g, vf: vf, relOff: make([]int32, nRel+1), bySrc: make([][]int32, nRel)}
	for _, f := range ga.Flows {
		if f.Rate == 0 {
			continue
		}
		p, err := ps.compilePlan(f)
		if err != nil {
			return nil, err
		}
		ps.bySrc[p.hop.From()] = append(ps.bySrc[p.hop.From()], int32(len(ps.plans)))
		ps.plans = append(ps.plans, p)
	}
	for ri := 0; ri < nRel; ri++ {
		ps.relOff[ri+1] = ps.relOff[ri] + int32(g.RelSize(ri))
	}
	ps.n = int(ps.relOff[nRel])
	return ps, nil
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
// One goroutine runs every iteration: it scatters every source's score
// along its rows, so each destination sums its contributions in canonical
// order, and the max-delta convergence scan is fused into the closing pass.
// The engine's parallelism is one level up, settings side by side
// (Engine.rankSettings).
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

// pushAll computes one iteration's scores into next and returns the max
// |next-cur| delta. Walking plans by ordinal, sources ascending and targets
// in row order, it adds each destination's contributions in the canonical
// order: that order is the float program.
func (ps *Plans) pushAll(cur, next []float64, damping, base float64) float64 {
	clear(next)
	for pi := range ps.plans {
		p := &ps.plans[pi]
		src := cur[ps.relOff[p.hop.From()]:ps.relOff[p.hop.From()+1]]
		dst := next[ps.relOff[p.hop.To()]:ps.relOff[p.hop.To()+1]]
		p.scatterRows(src, dst)
	}
	maxDelta := 0.0
	for d, sum := range next {
		s := base + damping*sum
		next[d] = s
		if delta := math.Abs(s - cur[d]); delta > maxDelta {
			maxDelta = delta
		}
	}
	return maxDelta
}

// scatterRows adds every source's row of p at the source's score in src,
// sources ascending. It is a function of its own because inlined into
// pushAll's plan loop the same loop spilled to the stack and ran about 8 %
// slower on DBLP at ten times the default size.
func (p *plan) scatterRows(src, dst []float64) {
	for t, x := range src {
		if targets, weights := p.row(relational.TupleID(t)); len(targets) > 0 {
			scatter(dst, targets, p.splitOf(len(targets), weights), x)
		}
	}
}

// scatter adds what one source row at score x transfers to each target.
func scatter(dst []float64, targets []relational.TupleID, w split, x float64) {
	for k, tgt := range targets {
		dst[tgt] += w.at(k) * x
	}
}
