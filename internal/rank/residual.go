package rank

// Incremental rank maintenance: instead of re-running the full power
// iteration after every mutation batch (even warm-started, each iteration
// touches every node), Apply rebuilds the rows a committed batch changed
// and RunResidual repairs the prior fixed point with a
// Gauss–Southwell-style residual push that only touches the region the
// mutation actually perturbed.
//
// The math. The power iteration solves the linear system
//
//	x = b·1 + M·x,   b = (1−d)/N,   M[v,u] = d·α(e)·w(u→v)
//
// whose per-node residual r = b·1 + M·x − x is exactly the per-node delta
// the full iteration's convergence scan measures. Given the prior fixed
// point p (residual ≈ 0 under the OLD M and N) and the new system:
//
//   - Inserts grow N, which changes b for every node — a full-graph
//     residual. But x is linear in b, so rescaling the prior by
//     c = N_old/N_new makes c·p the exact fixed point of the new b under
//     the old M, cancelling the uniform residual entirely. New slots seed
//     at b_new (= c·b_old, the value that extends the old fixed point
//     consistently).
//   - Edge changes are local: M differs from the old M only in the columns
//     of sources whose rows a batch changed. Seeding
//     r[v] += d·(w_new(u→v) − w_old(u→v))·c·p[u] over exactly those rows
//     yields the true residual of c·p under the new system (up to the
//     prior's own sub-epsilon residual).
//
// A push at node u then moves r[u] into the score and propagates
// d·w(u→v)·r[u] to u's flow targets, preserving the invariant
// x = cur + (I−M)⁻¹r. The push runs in rounds (push.go): each round
// consumes every above-threshold residual at its round-start value and
// applies the expanded contributions per destination in a fixed
// source-ascending order, so the repair is deterministic and round-empty ⟺
// max|r| < Options.Epsilon — the same convergence criterion, hence the same
// fixed-point tolerance class, as the full iteration. Because the
// per-source rate sums of real G_As can exceed 1 (DBLP's Paper emits 1.2),
// the push is not 1-norm contractive at high damping; the push budget, not
// a contraction argument, guarantees termination: a run that exhausts it —
// or whose seed mass already dwarfs the prior's — falls back to the warm
// full iteration, which is correct from any seed.
//
// The rescaled prior is never materialized on its own. The seeds read c·p
// on demand; the pushed amounts are logged, not applied; and a drained
// push is written through with the rescale in the one pass over the arena
// a repair makes, in the caller's own vectors. A run that falls back has
// written no score.

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"sizelos/internal/relational"
)

// Pending accumulates what residual re-ranking must know about the batches
// applied since the last re-rank: the pre-mutation rows of every changed
// source (first capture wins — the prior scores date from before the first
// batch) and the arena geometry at capture time. One Pending serves every
// damping run over the same Plans; the caller discards it after a
// successful re-rank, or whenever a compaction remaps TupleIDs out from
// under the captured rows.
type Pending struct {
	// oldN and oldSizes snapshot the arena at creation: the node count the
	// prior scores converged under, and each relation's slot count (slots
	// at or beyond oldSizes[ri] are fresh inserts the prior doesn't cover).
	oldN     int
	oldSizes []int32
	// rows[pi] maps a changed source tuple of plan pi to its pre-mutation
	// row. Row slices alias plan stores that are only ever appended to, so
	// captures stay valid across later batches and reclaims.
	rows []map[relational.TupleID]capturedRow
}

// NewPending snapshots the current arena geometry. Call it before the
// first Apply after a re-rank, while the plans still describe the state
// the prior scores converged under.
func (ps *Plans) NewPending() *Pending {
	p := &Pending{
		oldN:     ps.n,
		oldSizes: make([]int32, len(ps.relOff)-1),
		rows:     make([]map[relational.TupleID]capturedRow, len(ps.plans)),
	}
	for ri := range p.oldSizes {
		p.oldSizes[ri] = ps.relOff[ri+1] - ps.relOff[ri]
	}
	return p
}

// capture records src's pre-mutation row for plan pi unless one is already
// held (the prior predates every batch, so the first capture is the one
// that pairs with it).
func (p *Pending) capture(pi int, src relational.TupleID, targets []relational.TupleID, weights []float64) {
	if p.rows[pi] == nil {
		p.rows[pi] = make(map[relational.TupleID]capturedRow)
	}
	if _, ok := p.rows[pi][src]; !ok {
		p.rows[pi][src] = capturedRow{targets: targets, weights: weights}
	}
}

// Apply splices one committed relational batch into the compiled plans:
// every source row the batch changed is rebuilt from the (already
// incrementally maintained) data graph and appended to its plan's store,
// in work proportional to the tuples touched. The batch must already be
// applied to the plans' database AND data graph — exactly the engine's
// Mutate ordering. pending, when non-nil, captures each changed row's
// pre-mutation state for a later RunResidual; nil just keeps the plans
// current.
//
// After Apply, Run produces the same scores a fresh Compile over the
// mutated graph would: every row is what Compile would have built for it,
// read in the same canonical order.
func (ps *Plans) Apply(res relational.BatchResult, pending *Pending) {
	var buf []relational.TupleID
	for pi := range ps.plans {
		p := &ps.plans[pi]
		if n := ps.g.RelSize(p.hop.From()); n > len(p.spans) {
			p.spans = append(p.spans, make([]span, n-len(p.spans))...)
		}
		for _, t := range ps.changedSources(p, res) {
			if pending != nil {
				oldT, oldW := p.row(t)
				pending.capture(pi, t, oldT, oldW)
			}
			ps.build(p, t, &buf)
		}
	}
	nRel := len(ps.relOff) - 1
	for ri := 0; ri < nRel; ri++ {
		ps.relOff[ri+1] = ps.relOff[ri] + int32(ps.g.RelSize(ri))
	}
	ps.n = int(ps.relOff[nRel])
}

// changedSources returns, ascending and deduplicated, the source tuples of
// p whose rows the batch changed: deleted and inserted tuples of the source
// relation itself, plus — for backward and junction flows — the sources
// whose neighbor lists gained or lost an edge because a referencing tuple
// (FK owner or junction row) was inserted or deleted (Hop.ChangedFrom).
func (ps *Plans) changedSources(p *plan, res relational.BatchResult) []relational.TupleID {
	db := ps.g.DB
	srcRel := db.Relations[p.hop.From()]
	// Early out for the common streaming case: the batch touched neither
	// the source relation nor the relation whose tuples carry this plan's
	// edges — no row can have changed, so skip the allocations entirely.
	owner := db.Relations[p.hop.Owner()]
	touched := len(res.Deleted[srcRel.Name])+len(res.Inserted[srcRel.Name]) > 0
	if !touched && !p.hop.Forward() {
		touched = len(res.Deleted[owner.Name])+len(res.Inserted[owner.Name]) > 0
	}
	if !touched {
		return nil
	}
	seen := make(map[relational.TupleID]bool)
	for _, t := range res.Deleted[srcRel.Name] {
		seen[t] = true
	}
	for _, t := range res.Inserted[srcRel.Name] {
		seen[t] = true
	}
	p.hop.ChangedFrom(db, res, func(t relational.TupleID) { seen[t] = true })
	if len(seen) == 0 {
		return nil
	}
	return slices.Sorted(maps.Keys(seen))
}

// residualMassBound is the fallback safety bound on the seeded residual:
// when the batch perturbs more than this fraction of the prior's total
// score mass, the mutation is global in effect and the warm full iteration
// is the cheaper, better-vectorized repair.
const residualMassBound = 0.5

// outweighs reports whether seedMass exceeds residualMassBound of the
// prior's mass — the sum, in arena order, of what every entry stands for —
// without summing further than the answer needs. The terms are magnitudes,
// so the running sum never decreases: once it clears the bar the full sum
// does too, and for a localized batch that is a few entries in.
func (pr *pushRun) outweighs(seedMass float64) bool {
	mass := 0.0
	for ri, x := range pr.raw {
		for i := range x {
			mass += math.Abs(pr.prior(ri, int32(i)))
			if seedMass <= residualMassBound*mass {
				return false
			}
		}
	}
	return seedMass > residualMassBound*mass
}

// residualSeedFrac caps how much of the arena may carry an above-threshold
// seed before the localized premise is already void.
const residualSeedFrac = 4 // fall back when seeds > n/residualSeedFrac

// RunResidual repairs the prior fixed point after the batches recorded in
// pending (the math is at the top of this file) and drives the max residual
// below Options.Epsilon — the criterion the full iteration stops on, so the
// result lands in the same fixed-point tolerance class.
//
// Options.Warm must hold the prior RAW scores the pending delta was
// accumulated against, and a completed repair returns that same table,
// every vector rewritten in place (one too short for its relation is grown
// first and its entry replaced); Options.NormalizeMax is ignored, a table
// repaired again must stay raw. Nothing of arena size is allocated, cleared
// or copied: the residual vector and the node marks are a scratch of the
// Plans', and no score is written until the push has drained.
//
// Options.ResidualBudget caps the pushes (enforced at round granularity: a
// round runs in full or not at all). When the seed mass exceeds the safety
// bound, the seeds cover too much of the arena, or the budget runs out,
// RunResidual falls back to the warm full iteration over the same plans
// (Stats.Fallback reports it) and returns that run's fresh table, Options.Warm being, as on an error, exactly what was
// passed in. Either way the returned scores satisfy the convergence
// contract.
//
// Safe to call concurrently on the same *Plans and *Pending with distinct
// Warm tables (each run takes its own scratch); Apply must not run
// concurrently.
func (ps *Plans) RunResidual(pending *Pending, opts Options) (relational.DBScores, Stats, error) {
	if opts.Damping < 0 || opts.Damping > 1 {
		return nil, Stats{}, fmt.Errorf("rank: damping %v outside [0,1]", opts.Damping)
	}
	if opts.Warm == nil {
		return nil, Stats{}, fmt.Errorf("rank: RunResidual requires prior raw scores in Options.Warm")
	}
	if pending == nil {
		return nil, Stats{}, fmt.Errorf("rank: RunResidual requires a Pending delta")
	}
	if opts.Epsilon <= 0 {
		opts.Epsilon = 1e-9
	}
	db := ps.g.DB
	if ps.n == 0 {
		return relational.DBScores{}, Stats{Converged: true, WarmStart: true}, nil
	}
	budget := opts.ResidualBudget
	if budget <= 0 {
		budget = 4 * ps.n
	}
	d := opts.Damping
	pr := &pushRun{
		ps:      ps,
		raw:     make([]relational.Scores, len(db.Relations)),
		covered: make([]int32, len(db.Relations)),
		c:       float64(pending.oldN) / float64(ps.n),
		base:    (1 - d) / float64(ps.n),
		d:       d,
	}

	for ri, rel := range db.Relations {
		w := opts.Warm[rel.Name]
		size := int(ps.relOff[ri+1] - ps.relOff[ri])
		pr.covered[ri] = int32(min(int(pending.oldSizes[ri]), len(w), size))
		if len(w) < size {
			w = append(w, make(relational.Scores, size-len(w))...)
		}
		pr.raw[ri] = w[:size]
	}

	// Seed residuals from the changed rows: remove each captured old row's
	// contributions, add the current row's, both valued at the rescaled
	// prior of the source. Deterministic order: plan ordinal, then source
	// ascending.
	sc := ps.takeScratch()
	pr.sc = sc
	seed := func(dstOff int32, targets []relational.TupleID, w split, pv float64) {
		for k, tgt := range targets {
			v := dstOff + int32(tgt)
			sc.r[v] += d * w.at(k) * pv
			sc.touch(v)
		}
	}
	for pi, rows := range pending.rows {
		p := &ps.plans[pi]
		dstOff := ps.relOff[p.hop.To()]
		for _, src := range slices.Sorted(maps.Keys(rows)) {
			pv := pr.prior(p.hop.From(), int32(src))
			if pv == 0 {
				continue
			}
			old := rows[src]
			seed(dstOff, old.targets, p.splitOf(len(old.targets), old.weights), -pv)
			targets, w := p.flows(src)
			seed(dstOff, targets, w, pv)
		}
	}

	stats := Stats{WarmStart: true}
	fallback := func() (relational.DBScores, Stats, error) {
		ps.putScratch(sc)
		opts.NormalizeMax = 0
		full, st, err := ps.Run(opts) // Options.Warm seeds the full iteration
		stats.Fallback, stats.Iterations, stats.Converged, stats.MaxDelta = true, st.Iterations, st.Converged, st.MaxDelta
		stats.Updates += st.Updates // the abandoned repair was real work
		return full, stats, err
	}

	seedMass := 0.0
	for _, v := range sc.dirty {
		seedMass += math.Abs(sc.r[v])
	}
	if pr.outweighs(seedMass) || len(sc.dirty)*residualSeedFrac > ps.n {
		return fallback()
	}

	// Seeds form the first frontier in ascending arena order; every round
	// consumes the whole frontier at frozen values, and frontier-empty ⟺
	// max|r| < ε.
	eps := opts.Epsilon
	sc.frontier = sc.frontier[:0]
	for _, v := range sc.dirty {
		if math.Abs(sc.r[v]) >= eps {
			sc.frontier = append(sc.frontier, v)
		}
	}
	slices.Sort(sc.frontier)
	drained := pr.runPushRounds(eps, budget, &stats)
	stats.Updates = stats.Pushes
	if !drained {
		return fallback()
	}
	stats.Converged = true

	// The push can no longer fall back. Write it through: every score takes
	// the value it stood for, then the log's amounts in the order they were
	// consumed.
	for ri, rel := range db.Relations {
		x, covered := pr.raw[ri], int(pr.covered[ri])
		for i, v := range x[:covered] {
			x[i] = pr.c * v
		}
		for i := covered; i < len(x); i++ {
			x[i] = pr.base
		}
		opts.Warm[rel.Name] = x
	}
	for k, u := range sc.pushed {
		ri := ps.relOf(u)
		pr.raw[ri][u-ps.relOff[ri]] += sc.frozen[k]
	}
	ps.putScratch(sc)
	return opts.Warm, stats, nil
}
