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
// Without captured rows one exact sweep seeds r = b·1 + M·x − x where
// |r| ≥ ε, after the rescale by the Geometry the prior converged under.
//
// A push at node u then moves r[u] into the score and propagates
// d·w(u→v)·r[u] to u's flow targets, preserving the invariant
// x = cur + (I−M)⁻¹r. The pushes drain one FIFO queue (push.go) that holds
// every node whose residual is at or above Options.Epsilon, seeded in
// ascending order, so the repair is deterministic and queue-empty ⟺
// max|r| < Options.Epsilon — the same convergence criterion, hence the same
// fixed-point tolerance class, as the full iteration. Because the
// per-source rate sums of real G_As can exceed 1 (DBLP's Paper emits 1.2),
// the push is not 1-norm contractive at high damping; the push budget, not
// a contraction argument, guarantees termination: a run that exhausts it —
// or whose seed mass already dwarfs the prior's — falls back to the warm
// full iteration, which is correct from any seed.
//
// The repair works in the caller's own vectors: one pass over the arena
// rescales the prior in place, the seeds read c·p there, and every push
// adds into them as it is made. A run that falls back warm-starts the full
// iteration from what it left there.

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
// batch) and the arena geometry the prior converged under. One Pending
// serves every damping run over the same Plans; the caller discards it
// after a successful re-rank, or whenever a compaction remaps TupleIDs out
// from under the captured rows.
type Pending struct {
	// oldN and oldSizes are that geometry: the node count the prior
	// scores converged under, and each relation's slot count (slots at or
	// beyond oldSizes[ri] are fresh inserts the prior doesn't cover).
	oldN     int
	oldSizes []int32
	// rows[pi] maps a changed source tuple of plan pi to its pre-mutation
	// row. Row slices alias plan stores that are only ever appended to, so
	// captures stay valid across later batches and reclaims.
	rows []map[relational.TupleID]Row
}

// Geometry is a Pending for an arena whose relations held slots[ri]
// slots, tombstones included, when the prior scores converged. Without
// rows, a RunResidual over it seeds from one exact sweep and rescales by
// the node count the slots sum to; passed to Apply, it captures the rows
// a later RunResidual seeds from instead. slots is kept, not copied.
func Geometry(slots []int32) *Pending {
	n := 0
	for _, s := range slots {
		n += int(s)
	}
	return &Pending{oldN: n, oldSizes: slots}
}

// capture records src's pre-mutation row for plan pi unless one is already
// held (the prior predates every batch, so the first capture is the one
// that pairs with it).
func (p *Pending) capture(pi int, src relational.TupleID, targets []relational.TupleID, weights []float64) {
	if p.rows[pi] == nil {
		p.rows[pi] = make(map[relational.TupleID]Row)
	}
	if _, ok := p.rows[pi][src]; !ok {
		p.rows[pi][src] = Row{Targets: targets, Weights: weights}
	}
}

// Rows returns copies of p's per-plan maps of captured rows (not of rows).
func (p *Pending) Rows() []map[relational.TupleID]Row {
	out := make([]map[relational.TupleID]Row, len(p.rows))
	for pi, m := range p.rows {
		out[pi] = maps.Clone(m)
	}
	return out
}

// Attach gives p, a Geometry no Apply captured into, rows Rows returned for
// ps's plans, for a later RunResidual to seed from. A plan past ps's, a
// source or target past its relation's slots, or weights other than one
// per target of a value split and none of a uniform one is an error and
// leaves p as it was. The maps are copied.
func (p *Pending) Attach(ps *Plans, rows []map[relational.TupleID]Row) error {
	if len(rows) > len(ps.plans) {
		return fmt.Errorf("rank: rows for %d plans, %d compiled", len(rows), len(ps.plans))
	}
	out := make([]map[relational.TupleID]Row, len(ps.plans))
	outside := func(t relational.TupleID, ri int) bool { return t < 0 || int(t) >= ps.g.RelSize(ri) }
	for pi, m := range rows {
		pl := &ps.plans[pi]
		for src, row := range m {
			w, split := len(row.Weights), pl.valueCol >= 0
			if outside(src, pl.hop.From()) || slices.ContainsFunc(row.Targets, func(t relational.TupleID) bool { return outside(t, pl.hop.To()) }) ||
				split && w != len(row.Targets) || !split && w > 0 {
				return fmt.Errorf("rank: plan %d source %d: no capture holds %d targets with %d weights", pi, src, len(row.Targets), w)
			}
		}
		out[pi] = maps.Clone(m)
	}
	p.rows = out
	return nil
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
	if pending != nil && pending.rows == nil {
		pending.rows = make([]map[relational.TupleID]Row, len(ps.plans))
	}
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
// rescaled prior's mass — the sum of its entries' magnitudes, in arena
// order — without summing further than the answer needs. The terms are magnitudes,
// so the running sum never decreases: once it clears the bar the full sum
// does too, and for a localized batch that is a few entries in.
func (pr *pushRun) outweighs(seedMass float64) bool {
	mass := 0.0
	for _, x := range pr.raw {
		for _, v := range x {
			mass += math.Abs(v)
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
// result lands in the same fixed-point tolerance class. pending is the
// Geometry the prior converged under; one no Apply captured into (and no
// Attach gave rows) seeds from one exact sweep instead of captured rows.
//
// Options.Warm must hold the prior RAW scores the pending delta was
// accumulated against, and a completed repair returns that same table,
// every vector rewritten in place (one too short for its relation is grown
// first and its entry replaced); Options.NormalizeMax is ignored, a table
// repaired again must stay raw. Nothing of arena size is allocated, cleared
// or copied: the residual vector and the node marks are a scratch of the
// Plans'.
//
// Options.ResidualBudget caps the pushes (counted per push: the repair
// stops before the push that would exceed it). When the seed mass exceeds
// the safety bound, the seeds cover too much of the arena, or the budget
// runs out, RunResidual falls back to the warm full iteration over the same
// plans (Stats.Fallback reports it), seeded from what the repair left in
// Options.Warm — the rescaled prior plus the pushes made so far — and
// returns that run's fresh table. Either way the returned scores satisfy
// the convergence contract; an invalid call errors before writing anything.
//
// Safe to call concurrently on the same *Plans and *Pending with distinct
// Warm tables (each run takes its own scratch); Apply must not run
// concurrently.
func (ps *Plans) RunResidual(pending *Pending, opts Options) (relational.DBScores, Stats, error) {
	if opts.Damping < 0 || opts.Damping > 1 {
		return nil, Stats{}, fmt.Errorf("rank: damping %v outside [0,1]", opts.Damping)
	}
	if pending == nil || opts.Warm == nil {
		return nil, Stats{}, fmt.Errorf("rank: RunResidual requires the prior's Geometry and raw scores in Options.Warm")
	}
	if opts.Epsilon <= 0 {
		opts.Epsilon = 1e-9
	}
	if ps.n == 0 {
		return relational.DBScores{}, Stats{Converged: true, WarmStart: true}, nil
	}
	budget := opts.ResidualBudget
	if budget <= 0 {
		budget = 4 * ps.n
	}
	sweep := pending.rows == nil
	pr := ps.rescale(pending, opts.Warm, opts.Damping)
	sc, eps := ps.takeScratch(), opts.Epsilon
	pr.sc = sc
	stats := Stats{WarmStart: true}
	if sweep {
		pr.sweep(eps)
		stats.Updates = ps.n // the sweep reads every node once
	} else {
		// Remove each captured old row's contributions and add the current
		// row's, both valued at the rescaled prior of the source, plan
		// ordinal then source ascending.
		seed := func(dstOff int32, targets []relational.TupleID, w split, pv float64) {
			for k, tgt := range targets {
				v := dstOff + int32(tgt)
				sc.r[v] += pr.d * w.at(k) * pv
				sc.touch(v)
			}
		}
		for pi, rows := range pending.rows {
			p := &ps.plans[pi]
			dstOff := ps.relOff[p.hop.To()]
			for _, src := range slices.Sorted(maps.Keys(rows)) {
				if pv := pr.raw[p.hop.From()][src]; pv != 0 {
					old := rows[src]
					seed(dstOff, old.Targets, p.splitOf(len(old.Targets), old.Weights), -pv)
					targets, w := p.flows(src)
					seed(dstOff, targets, w, pv)
				}
			}
		}
	}
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

	// The seeds at or above ε, ascending, are the queue drain starts from.
	slices.Sort(sc.dirty)
	for _, v := range sc.dirty {
		if math.Abs(sc.r[v]) >= eps {
			sc.enqueue(v)
		}
	}
	drained := pr.drain(eps, budget, &stats)
	stats.Updates += stats.Pushes
	if !drained {
		return fallback()
	}
	stats.Converged = true
	stats.Max, stats.MaxRescans = pr.maxima()
	stats.Moved = pr.moved()

	ps.putScratch(sc)
	return opts.Warm, stats, nil
}

// rescale rescales the prior in warm in place — c·p on the slots pending
// covers, b on fresh ones, each vector grown to its relation first — and
// returns the push run over it, with each relation's maximum and the slot
// that holds it (-1 when no score is positive).
func (ps *Plans) rescale(pending *Pending, warm relational.DBScores, d float64) *pushRun {
	db := ps.g.DB
	nRel := len(db.Relations)
	pr := &pushRun{ps: ps, raw: make([]relational.Scores, nRel), d: d, max: make([]float64, nRel), arg: make([]int32, nRel), covered: make([]int32, nRel)}
	c, base := float64(pending.oldN)/float64(ps.n), (1-d)/float64(ps.n)
	for ri, rel := range db.Relations {
		w := warm[rel.Name]
		size := int(ps.relOff[ri+1] - ps.relOff[ri])
		covered := min(len(w), size, int(pending.oldSizes[ri]))
		if len(w) < size {
			w = append(w, make(relational.Scores, size-len(w))...)
		}
		x := w[:size]
		m, arg := 0.0, int32(-1)
		for i, v := range x[:covered] {
			v = c * v
			x[i] = v
			if v > m {
				m, arg = v, int32(i)
			}
		}
		if covered < size && base > m {
			m, arg = base, int32(covered)
		}
		for i := covered; i < size; i++ {
			x[i] = base
		}
		warm[rel.Name], pr.raw[ri], pr.covered[ri] = x, x, int32(covered)
		pr.max[ri], pr.arg[ri] = m, arg
	}
	return pr
}

// maxima returns each relation's maximum after the drain, and how many
// relations it rescanned. Only pushed nodes moved since rescale, so a
// relation's maximum is rescale's or a pushed node's, unless the node that
// held it was pushed below it: only then is the relation rescanned.
func (pr *pushRun) maxima() ([]float64, int) {
	ps, sc := pr.ps, pr.sc
	out, lost := slices.Clone(pr.max), make([]bool, len(pr.max))
	for _, v := range sc.dirty {
		if sc.mark[v]&markPushed != 0 {
			ri := ps.relOf(v)
			t := v - ps.relOff[ri]
			x := pr.raw[ri][t]
			out[ri] = max(out[ri], x)
			lost[ri] = lost[ri] || (t == pr.arg[ri] && x < pr.max[ri])
		}
	}
	rescans := 0
	for ri := range out {
		if lost[ri] {
			out[ri], rescans = pr.raw[ri].MaxScore(), rescans+1
		}
	}
	return out, rescans
}

// moved returns Stats.Moved after the drain: each relation's fresh slots
// and pushed nodes.
func (pr *pushRun) moved() [][]relational.TupleID {
	out := make([][]relational.TupleID, len(pr.raw))
	for ri, x := range pr.raw {
		for t := pr.covered[ri]; t < int32(len(x)); t++ {
			out[ri] = append(out[ri], relational.TupleID(t))
		}
	}
	for _, v := range pr.sc.dirty {
		if ri := pr.ps.relOf(v); pr.sc.mark[v]&markPushed != 0 && v-pr.ps.relOff[ri] < pr.covered[ri] {
			out[ri] = append(out[ri], relational.TupleID(v-pr.ps.relOff[ri]))
		}
	}
	return out
}

// sweep seeds the exact residual: it sums M·x into the scratch in
// pushAll's order, then one ascending pass sets r[v] = b + d·(M·x)[v] − x[v]
// — one full iteration's step minus x — where that is at or above eps and
// zeroes r[v] elsewhere, so the dirty list is the seeds, ascending.
func (pr *pushRun) sweep(eps float64) {
	ps, sc := pr.ps, pr.sc
	r, base := sc.r[:ps.n], (1-pr.d)/float64(ps.n)
	for pi := range ps.plans {
		p := &ps.plans[pi]
		p.scatterRows(pr.raw[p.hop.From()], r[ps.relOff[p.hop.To()]:ps.relOff[p.hop.To()+1]])
	}
	for ri, x := range pr.raw {
		off := ps.relOff[ri]
		for i, xv := range x {
			v := off + int32(i)
			if r[v] = base + pr.d*r[v] - xv; math.Abs(r[v]) >= eps {
				sc.touch(v)
			} else {
				r[v] = 0
			}
		}
	}
}
