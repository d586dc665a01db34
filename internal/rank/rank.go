package rank

import (
	"fmt"
	"math"

	"sizelos/internal/datagraph"
	"sizelos/internal/relational"
)

// Flow is one authority-transfer edge of G_A: authority moves from tuples
// of a source relation to adjacent tuples of a target relation at the given
// rate.
type Flow struct {
	// Direct foreign-key step: the FK identified by (Rel, FK); Forward=true
	// pushes from the FK owner to the referenced tuple (M:1 direction),
	// Forward=false the opposite.
	Rel     string
	FK      int
	Forward bool

	// Junction step (set Junction != ""): authority moves from the relation
	// referenced by the junction's JFKFrom to the relation referenced by
	// JFKTo, hopping over the junction rows.
	Junction string
	JFKFrom  int
	JFKTo    int

	// Rate is the authority transfer rate α(e) of this flow. The rate mass
	// of a source tuple is split among the tuples it reaches.
	Rate float64
	// ValueCol optionally names a numeric column on the *target* relation;
	// if set, the split is proportional to f(value) of each receiving tuple
	// (ValueRank, e.g. "Si = 0.5*f(TotalPrice)"); otherwise uniform
	// (ObjectRank).
	ValueCol string
}

// GA is an Authority Transfer Schema Graph: a named list of flows.
// Directions not listed transfer no authority, which is how the paper
// expresses e.g. "cited 0" for DBLP.
type GA struct {
	Name  string
	Flows []Flow
}

// NewGA creates an empty authority transfer graph.
func NewGA(name string) *GA { return &GA{Name: name} }

// Direct appends a direct FK flow and returns ga for chaining.
func (ga *GA) Direct(rel string, fk int, forward bool, rate float64) *GA {
	ga.Flows = append(ga.Flows, Flow{Rel: rel, FK: fk, Forward: forward, Rate: rate})
	return ga
}

// DirectValue appends a direct FK flow whose split is proportional to the
// target relation's valueCol (ValueRank).
func (ga *GA) DirectValue(rel string, fk int, forward bool, rate float64, valueCol string) *GA {
	ga.Flows = append(ga.Flows, Flow{Rel: rel, FK: fk, Forward: forward, Rate: rate, ValueCol: valueCol})
	return ga
}

// Hop appends a junction flow from the relation referenced by junction's
// jfkFrom to the one referenced by jfkTo.
func (ga *GA) Hop(junction string, jfkFrom, jfkTo int, rate float64) *GA {
	ga.Flows = append(ga.Flows, Flow{Junction: junction, JFKFrom: jfkFrom, JFKTo: jfkTo, Rate: rate})
	return ga
}

// UniformLike copies ga's flow topology with every rate replaced by rate and
// value columns stripped: the paper's GA2 for DBLP ("common transfer rates
// (0.3) for all edges").
func (ga *GA) UniformLike(name string, rate float64) *GA {
	out := NewGA(name)
	for _, f := range ga.Flows {
		f.Rate = rate
		f.ValueCol = ""
		out.Flows = append(out.Flows, f)
	}
	return out
}

// StripValues copies ga with every ValueCol cleared, keeping rates: the
// paper's GA2 for TPC-H ("neglects values, i.e. becomes an ObjectRank GA").
func (ga *GA) StripValues(name string) *GA {
	out := NewGA(name)
	for _, f := range ga.Flows {
		f.ValueCol = ""
		out.Flows = append(out.Flows, f)
	}
	return out
}

// Options controls the power iteration.
type Options struct {
	// Damping is the PageRank damping factor d. The paper evaluates
	// d1=0.85 (default), d2=0.10 and d3=0.99.
	Damping float64
	// Epsilon is the convergence threshold on the max per-node delta.
	Epsilon float64
	// MaxIter caps the number of iterations.
	MaxIter int
	// NormalizeMax, if positive, linearly rescales the final scores so the
	// global maximum equals this value. The paper reports local-importance
	// magnitudes like 21.74; scaling is cosmetic and preserves all rankings.
	NormalizeMax float64
	// Warm, when non-nil, seeds the power iteration with a prior score
	// vector instead of the uniform distribution — the warm start that
	// makes re-ranking after a small mutation converge in a handful of
	// iterations. Entries are matched per relation by position; tuples the
	// prior does not cover (fresh inserts beyond its length, or relations
	// absent from the map) start at the uniform 1/N. The prior must be RAW
	// scores (NormalizeMax == 0 output): a rescaled vector sits far from
	// the fixed point and squanders the head start. The fixed point of the
	// iteration is unique, so any seed converges to the same scores — Warm
	// affects only how fast.
	Warm relational.DBScores
	// ResidualBudget caps the number of residual pushes a
	// Plans.RunResidual call may perform before giving up on the localized
	// path and falling back to the warm full iteration. 0 means four full
	// sweeps' worth (4× the arena size): warm re-ranks typically run 15-30
	// iterations of arena-wide updates, so a residual run still wins well
	// past one sweep, while a genuinely global perturbation trips the
	// budget early and takes the vectorized iteration instead. The budget
	// is enforced at push-round granularity — a round either runs in full
	// or falls back before starting.
	ResidualBudget int
}

// DefaultOptions mirrors the paper's default setting: d=0.85, converged
// power iteration, scores scaled to a human-friendly range.
func DefaultOptions() Options {
	return Options{Damping: 0.85, Epsilon: 1e-9, MaxIter: 500, NormalizeMax: 100}
}

// Stats reports how the computation went.
type Stats struct {
	Iterations int
	Converged  bool
	MaxDelta   float64 // the last iteration's largest per-node change (Run only)
	// WarmStart records whether a prior score vector seeded the run
	// (Options.Warm or a residual run's prior), so callers can attribute
	// saved work.
	WarmStart bool
	// Updates counts node-score writes: Iterations × arena size for a full
	// power iteration, the push count for a residual run. It is the common
	// work metric residual mode is measured against.
	Updates int
	// Pushes counts residual pushes — frontier nodes consumed across all
	// rounds (RunResidual only).
	Pushes int
	// ResidualNodes counts the distinct nodes a residual run touched
	// (RunResidual only).
	ResidualNodes int
	// Fallback records that RunResidual abandoned the localized path (seed
	// mass over the safety bound or the push budget exhausted) and the
	// reported scores come from the warm full iteration instead.
	Fallback bool
	// Rounds counts the frozen-value push rounds a RunResidual executed.
	Rounds int
}

// planKind discriminates how a source tuple's row of a compiled plan is
// recomputed after a mutation (see residual.go).
type planKind uint8

const (
	// planForward: direct FK flow, FK owner -> referenced tuple.
	planForward planKind = iota
	// planBackward: direct FK flow, referenced tuple -> its owners.
	planBackward
	// planJunction: two-hop flow through a junction relation.
	planJunction
)

// plan is one compiled flow: a CSR adjacency from every tuple of srcRel to
// its targets, with optional per-edge split weights. After Compile the CSR
// arrays are frozen; Plans.Apply overlays mutated rows in patch (a present
// key overrides the packed range — exactly the datagraph overlay idea, one
// level up).
type plan struct {
	srcRel  int
	dstRel  int
	rate    float64
	offsets []int32
	targets []relational.TupleID
	weights []float64 // nil => uniform split per source tuple

	// Incremental-maintenance metadata: how to detect and recompute the
	// source rows a committed batch changed.
	kind planKind
	// owner is the relation ordinal owning fk: the FK owner of a direct
	// plan, the junction of a junction plan. Its fk leads to srcRel on a
	// backward or junction plan, and ownerCol is that FK's column.
	owner    int
	fk       int
	ownerCol int
	fkTo     int // junction plans: the junction's FK into dstRel
	valueCol int // ValueRank value column in dstRel, -1 for uniform

	// patch overrides rows that diverged from the packed CSR since
	// Compile: sources touched by mutations, and sources inserted after
	// the build (beyond offsets). Row slices are never mutated in place,
	// so captured pre-mutation rows stay valid (see Pending).
	patch map[relational.TupleID]patchRow
}

// patchRow is one overlaid source row: the current target list and split
// weights (nil weights => uniform split).
type patchRow struct {
	targets []relational.TupleID
	weights []float64
}

// row returns t's current target list and split weights (nil => uniform):
// the overlay entry if one exists, the packed CSR range if t predates the
// compile, empty otherwise. The returned slices must not be modified.
func (p *plan) row(t relational.TupleID) ([]relational.TupleID, []float64) {
	if p.patch != nil {
		if r, ok := p.patch[t]; ok {
			return r.targets, r.weights
		}
	}
	if int(t)+1 < len(p.offsets) {
		lo, hi := p.offsets[t], p.offsets[t+1]
		if p.weights != nil {
			return p.targets[lo:hi], p.weights[lo:hi]
		}
		return p.targets[lo:hi], nil
	}
	return nil, nil
}

// split is how one source row divides its plan's rate among the row's
// targets — the only place the rule is written: entry k carries
// rate·weights[k] under a value-proportional split (ValueRank) and
// rate/len(row) under the uniform one (ObjectRank).
type split struct {
	weights []float64 // nil => uniform
	scale   float64   // rate, or rate/len(row) when uniform
}

// splitOf returns the split of a row of p with n targets and the given
// weights (nil => uniform). An empty row's split is never read.
func (p *plan) splitOf(n int, weights []float64) split {
	if weights == nil {
		return split{scale: p.rate / float64(n)}
	}
	return split{weights: weights, scale: p.rate}
}

// at returns the transfer weight of the row's k-th entry.
func (s split) at(k int) float64 {
	if s.weights == nil {
		return s.scale
	}
	return s.scale * s.weights[k]
}

// flows returns t's current targets and their split.
func (p *plan) flows(t relational.TupleID) ([]relational.TupleID, split) {
	targets, weights := p.row(t)
	return targets, p.splitOf(len(targets), weights)
}

// compile resolves ga's flows against the data graph into push plans.
func compile(g *datagraph.Graph, ga *GA, vf func(float64) float64) ([]plan, error) {
	db := g.DB
	var plans []plan
	for _, f := range ga.Flows {
		if f.Rate == 0 {
			continue
		}
		var p plan
		var err error
		if f.Junction != "" {
			p, err = compileJunction(g, f)
		} else {
			p, err = compileDirect(g, f)
		}
		if err != nil {
			return nil, err
		}
		// The packed rows use int32 offsets: a plan past them is an error,
		// not a wrapped layout.
		if len(p.targets) > math.MaxInt32 {
			return nil, fmt.Errorf("rank: %d flow contributions exceed the int32 plan layout", len(p.targets))
		}
		p.rate = f.Rate
		p.valueCol = -1
		if f.ValueCol != "" {
			target := db.Relations[p.dstRel]
			col := target.ColIndex(f.ValueCol)
			if col < 0 {
				return nil, fmt.Errorf("rank: %s has no value column %s", target.Name, f.ValueCol)
			}
			p.valueCol = col
			p.weights = splitWeights(p, target, col, vf)
		}
		plans = append(plans, p)
	}
	return plans, nil
}

func compileDirect(g *datagraph.Graph, f Flow) (plan, error) {
	db := g.DB
	rel := db.Relation(f.Rel)
	if rel == nil {
		return plan{}, fmt.Errorf("rank: flow on unknown relation %s", f.Rel)
	}
	if f.FK < 0 || f.FK >= len(rel.FKs) {
		return plan{}, fmt.Errorf("rank: flow on %s: FK ordinal %d out of range", f.Rel, f.FK)
	}
	owner, ref := db.RelIndex(f.Rel), db.RelIndex(rel.FKs[f.FK].Ref)
	p := plan{
		srcRel: owner, dstRel: ref, kind: planForward,
		owner: owner, fk: f.FK, ownerCol: rel.ColIndex(rel.FKs[f.FK].Column),
	}
	if !f.Forward {
		p.srcRel, p.dstRel, p.kind = ref, owner, planBackward
	}
	n := g.RelSize(p.srcRel)
	p.offsets = make([]int32, n+1)
	for t := 0; t < n; t++ {
		p.offsets[t] = int32(len(p.targets))
		p.targets = append(p.targets, g.Along(owner, f.FK, f.Forward, relational.TupleID(t))...)
	}
	p.offsets[n] = int32(len(p.targets))
	return p, nil
}

func compileJunction(g *datagraph.Graph, f Flow) (plan, error) {
	db := g.DB
	j := db.Relation(f.Junction)
	if j == nil {
		return plan{}, fmt.Errorf("rank: unknown junction %s", f.Junction)
	}
	if f.JFKFrom < 0 || f.JFKFrom >= len(j.FKs) || f.JFKTo < 0 || f.JFKTo >= len(j.FKs) {
		return plan{}, fmt.Errorf("rank: junction %s: FK ordinals (%d,%d) out of range", f.Junction, f.JFKFrom, f.JFKTo)
	}
	src := db.RelIndex(j.FKs[f.JFKFrom].Ref)
	dst := db.RelIndex(j.FKs[f.JFKTo].Ref)
	jIdx := db.RelIndex(f.Junction)
	p := plan{
		srcRel: src, dstRel: dst,
		kind: planJunction, owner: jIdx, fk: f.JFKFrom, fkTo: f.JFKTo,
		ownerCol: j.ColIndex(j.FKs[f.JFKFrom].Column),
	}
	n := g.RelSize(src)
	p.offsets = make([]int32, n+1)
	for t := 0; t < n; t++ {
		p.offsets[t] = int32(len(p.targets))
		for _, row := range g.Along(jIdx, f.JFKFrom, false, relational.TupleID(t)) {
			p.targets = append(p.targets, g.Along(jIdx, f.JFKTo, true, row)...)
		}
	}
	p.offsets[n] = int32(len(p.targets))
	return p, nil
}

// splitWeights computes value-proportional split weights aligned with the
// plan's target list.
func splitWeights(p plan, target *relational.Relation, col int, vf func(float64) float64) []float64 {
	weights := make([]float64, len(p.targets))
	for t := 0; t+1 < len(p.offsets); t++ {
		lo, hi := p.offsets[t], p.offsets[t+1]
		valueSplit(weights[lo:hi], p.targets[lo:hi], target, col, vf)
	}
	return weights
}

// valueSplit fills weights with one source row's value-proportional split
// (ValueRank): entry k is vf of target k's value column, floored at zero,
// over the row's sum. A row whose values sum to zero splits uniformly.
func valueSplit(weights []float64, targets []relational.TupleID, target *relational.Relation, col int, vf func(float64) float64) {
	sum := 0.0
	for k, tgt := range targets {
		w := vf(numericValue(target.Tuples[tgt][col]))
		if w < 0 {
			w = 0
		}
		weights[k] = w
		sum += w
	}
	for k := range weights {
		if sum == 0 {
			weights[k] = 1 / float64(len(weights))
		} else {
			weights[k] /= sum
		}
	}
}

func numericValue(v relational.Value) float64 {
	switch v.Kind {
	case relational.KindInt:
		return float64(v.Int)
	case relational.KindFloat:
		return v.Float
	default:
		return 0
	}
}

// Normalize linearly rescales scores in place so the global maximum equals
// max (a no-op when every score is zero or max <= 0). Scaling is cosmetic —
// it preserves all rankings — and must never be fed back into Options.Warm:
// warm starts need the raw vector.
func Normalize(scores relational.DBScores, max float64) {
	if max <= 0 {
		return
	}
	top := 0.0
	for _, s := range scores {
		if m := s.MaxScore(); m > top {
			top = m
		}
	}
	if top == 0 {
		return
	}
	f := max / top
	for _, s := range scores {
		for i := range s {
			s[i] *= f
		}
	}
}
