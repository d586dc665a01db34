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
	// is counted per push: a repair falls back before the push that would
	// exceed it.
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
	// WarmStart records whether a prior score vector seeded the run.
	WarmStart bool
	// Updates counts node-score work, the common work metric: Iterations ×
	// arena size for a full power iteration, the push count for a residual
	// run plus the arena size when a sweep seeded it.
	Updates int
	// Pushes counts residual pushes — queue pops whose residual was still
	// at or above Epsilon (RunResidual only).
	Pushes int
	// ResidualNodes counts the distinct nodes a residual run touched
	// (RunResidual only).
	ResidualNodes int
	// Fallback records that RunResidual abandoned the localized path (seed
	// mass over the safety bound or the push budget exhausted) and the
	// reported scores come from the warm full iteration instead.
	Fallback bool
	// Rounds counts the queue generations a RunResidual pushed from: the
	// seeds, the nodes they queued, the nodes those queued, and so on.
	Rounds int
	// Max[ri] is relation ri's largest returned score, 0 when none is
	// positive (relational.Scores.MaxScore), tracked by a completed
	// RunResidual through its rescale and pushes; nil after Run or a
	// fallback, whose callers scan.
	Max []float64
	// MaxRescans counts the relations whose maximum a completed
	// RunResidual rescanned: their maximum node was pushed below it.
	MaxRescans int
	// Moved[ri] lists, in no order, the slots of relation ri a completed
	// RunResidual changed beyond rescaling the prior by one factor: the
	// pushed nodes and the fresh slots set to the base. nil after Run or a
	// fallback, whose scores are all new.
	Moved [][]relational.TupleID
}

// span locates one source's row in its plan's store: targets[lo:hi], and
// weights[lo:hi] under a value split.
type span struct{ lo, hi int32 }

// plan is one compiled flow: the row of every tuple of the hop's From
// relation — its targets, with their split weights under a value split —
// as a span of one append-only store. A row is only ever appended (build),
// never written over, and a full store is replaced, not written, so a row
// read before a batch stays valid after it (see Pending); the rows a batch
// left dead are dropped when the store next has to grow (reclaim).
type plan struct {
	// hop is the flow's edge: a row of source t is Cross(hop, t).
	hop      datagraph.Hop
	rate     float64
	valueCol int // ValueRank value column in the target relation, -1 for uniform

	spans   []span // one per source tuple
	targets []relational.TupleID
	weights []float64 // parallel to targets; nil => uniform split
	dead    int       // store entries no span points at
}

// Row is one source row as it was read: the target list and split weights
// (nil weights => uniform split).
type Row struct {
	Targets []relational.TupleID
	Weights []float64
}

// row returns t's target list and split weights (nil => uniform), capped
// at the row's end so that an append to them cannot reach the next row.
// The returned slices must not be modified.
func (p *plan) row(t relational.TupleID) ([]relational.TupleID, []float64) {
	s := p.spans[t]
	if p.weights == nil {
		return p.targets[s.lo:s.hi:s.hi], nil
	}
	return p.targets[s.lo:s.hi:s.hi], p.weights[s.lo:s.hi:s.hi]
}

// build crosses p's hop from source t and appends what it reaches — with
// its value split under ValueRank — to the store as t's row: the one way a
// row is made. Compile builds every source's row, Apply a changed one's.
func (ps *Plans) build(p *plan, t relational.TupleID, buf *[]relational.TupleID) {
	p.dead += int(p.spans[t].hi - p.spans[t].lo) // the old row is dead from here on
	p.spans[t] = span{}
	row := ps.g.Cross(p.hop, t, buf)
	if len(p.targets)+len(row) > cap(p.targets) {
		p.reclaim(len(row))
	}
	lo := len(p.targets)
	p.targets = append(p.targets, row...)
	if p.valueCol >= 0 {
		p.weights = p.weights[:len(p.targets)]
		valueSplit(p.weights[lo:], row, ps.g.DB.Relations[p.hop.To()], p.valueCol, ps.vf)
	}
	p.spans[t] = span{int32(lo), int32(len(p.targets))}
}

// reclaim replaces a full store with new arrays that hold only the live
// rows, with room for k entries and an eighth more: dead rows are dropped
// here, when the store has to grow, and nowhere else, and the live rows are
// then copied in source order. The old arrays are never written again, so
// rows read from them stay valid.
func (p *plan) reclaim(k int) {
	live := len(p.targets) - p.dead
	size := live + live/8 + k
	targets := make([]relational.TupleID, 0, size)
	var weights []float64
	if p.valueCol >= 0 {
		weights = make([]float64, 0, size)
	}
	if p.dead == 0 {
		// Nothing to drop (always so in Compile): every row keeps its place.
		targets = append(targets, p.targets...)
		weights = append(weights, p.weights...)
	} else {
		for t, s := range p.spans {
			lo := int32(len(targets))
			targets = append(targets, p.targets[s.lo:s.hi]...)
			if weights != nil {
				weights = append(weights, p.weights[s.lo:s.hi]...)
			}
			p.spans[t] = span{lo, int32(len(targets))}
		}
	}
	p.targets, p.weights, p.dead = targets, weights, 0
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

// compilePlan binds f to its hop and builds the row of every source tuple,
// ascending.
func (ps *Plans) compilePlan(f Flow) (plan, error) {
	db := ps.g.DB
	h, err := f.hop(db)
	if err != nil {
		return plan{}, fmt.Errorf("rank: flow: %w", err)
	}
	p := plan{hop: h, rate: f.Rate, valueCol: -1, spans: make([]span, ps.g.RelSize(h.From()))}
	if f.ValueCol != "" {
		target := db.Relations[h.To()]
		if p.valueCol = target.ColIndex(f.ValueCol); p.valueCol < 0 {
			return plan{}, fmt.Errorf("rank: %s has no value column %s", target.Name, f.ValueCol)
		}
	}
	// One entry per tuple of the hop's owner at most (each is one edge): the
	// store never grows while it is compiled.
	room := ps.g.RelSize(h.Owner())
	p.targets = make([]relational.TupleID, 0, room)
	if p.valueCol >= 0 {
		p.weights = make([]float64, 0, room)
	}
	var buf []relational.TupleID
	for t := range p.spans {
		ps.build(&p, relational.TupleID(t), &buf)
	}
	// Spans are int32: a plan past them is an error, not a wrapped layout.
	if len(p.targets) > math.MaxInt32 {
		return plan{}, fmt.Errorf("rank: %d flow contributions exceed the int32 plan layout", len(p.targets))
	}
	// A fresh plan holds exactly its rows: the first Apply to add an entry
	// reclaims.
	p.targets = append(make([]relational.TupleID, 0, len(p.targets)), p.targets...)
	if p.weights != nil {
		p.weights = append(make([]float64, 0, len(p.weights)), p.weights...)
	}
	return p, nil
}

// hop binds f to db's schema.
func (f Flow) hop(db *relational.DB) (datagraph.Hop, error) {
	if f.Junction != "" {
		return datagraph.JunctionHop(db, f.Junction, f.JFKFrom, f.JFKTo)
	}
	return datagraph.FKHop(db, f.Rel, f.FK, f.Forward)
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
