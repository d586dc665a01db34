// Package sizelos is a from-scratch Go implementation of "Size-l Object
// Summaries for Relational Keyword Search" (Fakas, Cai, Mamoulis, PVLDB
// 5(3), 2011).
//
// A keyword query against a relational database identifies Data Subject
// (DS) tuples; for each, the system produces a size-l Object Summary: the
// most important l tuples around the DS tuple, connected so the summary is
// a stand-alone synopsis. The Engine type wires together the substrates —
// relational storage, tuple data graph, ObjectRank/ValueRank global
// importance, Data Subject Schema Graphs — and exposes keyword search and
// summary generation:
//
//	eng, _ := sizelos.OpenDBLP(datagen.DefaultDBLPConfig())
//	page, _, _, _ := eng.QueryPage(sizelos.QueryRequest{Rel: "Author", Query: "Faloutsos", L: 15})
//	for _, r := range page {
//	    fmt.Println(r.Text)
//	}
//
// QueryPage is the one read entry: it serves a page on the caller's
// goroutine under a single lock acquisition, computes summaries only for the
// page it serves, and returns the cursor that resumes after it.
package sizelos

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"sizelos/internal/datagen"
	"sizelos/internal/datagraph"
	"sizelos/internal/keyword"
	"sizelos/internal/ostree"
	"sizelos/internal/rank"
	"sizelos/internal/relational"
	"sizelos/internal/schemagraph"
	"sizelos/internal/searchexec"
	"sizelos/internal/sizel"
)

// Algorithm selects the size-l computation method.
type Algorithm string

// The available size-l algorithms (paper §4 and §5).
const (
	// AlgoDP is the exact dynamic program (Algorithm 1), O(n·min(n, l)).
	AlgoDP Algorithm = "dp"
	// AlgoBottomUp is greedy leaf pruning (Algorithm 2): fastest.
	AlgoBottomUp Algorithm = "bottom-up"
	// AlgoTopPath is greedy path insertion (Algorithm 3): best quality
	// among the greedy methods.
	AlgoTopPath Algorithm = "top-path"
)

// Setting names one precomputed global-importance configuration, e.g.
// "GA1-d1". The paper's four evaluation settings are produced by the Open*
// constructors.
type Setting struct {
	Name string
	GA   *rank.GA
	// Damping is the PageRank damping factor d.
	Damping float64
}

// DefaultSettings returns the paper's four evaluation settings for a pair
// of authority transfer graphs: GA1 with d1=0.85, d2=0.10, d3=0.99 and GA2
// with d1 (§6).
func DefaultSettings(ga1, ga2 *rank.GA) []Setting {
	return []Setting{
		{Name: "GA1-d1", GA: ga1, Damping: 0.85},
		{Name: "GA1-d2", GA: ga1, Damping: 0.10},
		{Name: "GA1-d3", GA: ga1, Damping: 0.99},
		{Name: "GA2-d1", GA: ga2, Damping: 0.85},
	}
}

// DefaultSetting is the paper's default configuration (GA1, d=0.85).
const DefaultSetting = "GA1-d1"

// Engine bundles a database with its derived structures: data graph,
// per-setting global importance, per-(DS relation, setting) annotated
// G_DS, and the keyword index.
//
// The engine is mutation-aware: Mutate applies a batch of tuple inserts and
// deletes, maintains the keyword index and the data graph incrementally,
// and stamps the Data Subjects whose OS the batch can reach, which rotates
// exactly their summary-cache keys. Mutations serialize against in-flight
// searches through an internal reader/writer lock: searches observe either
// the full pre-batch or the full post-batch state, never a mix, and a
// search that began before a mutation can never leak its result into a
// post-mutation lookup.
type Engine struct {
	// mu orders mutations (write side) against searches and derived-state
	// reads (read side).
	mu    sync.RWMutex
	db    *relational.DB
	graph *datagraph.Graph
	// index is the sharded keyword index NewEngine builds; Mutate maintains
	// it incrementally (Apply) and compaction remaps it (Remap).
	index *keyword.Sharded
	// settings are the ranking configurations NewEngine computed, retained
	// so Mutate can re-run them on demand (MutationBatch.Rerank).
	settings []Setting
	// plans holds each distinct G_A compiled once against the data graph,
	// kept current across mutations via rank.Plans.Apply so re-ranks never
	// recompile; recompiled only when compaction rebuilds the graph.
	plans map[*rank.GA]*rank.Plans
	// pending accumulates, per G_A, the pre-mutation rows of every source
	// changed since the last re-rank (empty: nothing changed; a snapshot
	// keeps them). nil means the rows do not cover (after a compaction or
	// an older snapshot's restore), so the next re-rank seeds from a sweep.
	pending map[*rank.GA]*rank.Pending
	// convergedSlots is each relation's slot count when rawScores last
	// became a fixed point (a re-rank or a compaction): the geometry a
	// sweep-seeded re-rank rescales by (rank.Geometry).
	convergedSlots []int32
	// residualBudget is rank.Options.ResidualBudget for every residual
	// re-rank: the push count past which one abandons the localized path and
	// falls back to the full iteration. 0, what every engine serves with,
	// means the rank package default (4× the node count); only in-package
	// tests set it.
	residualBudget int
	// residualRuns counts consecutive re-ranks seeded from captured rows;
	// every residualRefreshInterval-th re-rank seeds from one exact sweep
	// instead, re-grounding the epsilon-scale drift each repair inherits
	// from its prior. A snapshot keeps it (EngineState.ResidualRuns).
	residualRuns int
	// rawScores per setting name: the unnormalized converged vectors, kept
	// for the next re-rank to repair in place or warm-start from — a rescaled
	// vector would sit far from the fixed point (rank.Options.Warm). Every
	// read serves them through the setting's scale.
	rawScores map[string]relational.DBScores
	// scales per setting name: how rawScores are served (scale).
	scales map[string]scale
	// served holds the tables Scores materialized, per setting, since the
	// raw scores or their scale last changed; whatever changes them clears
	// it under the write lock. servedMu orders the readers that fill it.
	servedMu sync.Mutex
	served   map[string]relational.DBScores
	// ordered per setting name holds the lists TOP-l extractions walk; a
	// write that changes the graph or the raw scores repairs or drops them.
	ordered map[string]*ostree.Ordered
	// compactMin and compactRatio are the auto-compaction trigger: a
	// relation is physically compacted when it carries at least compactMin
	// tombstones AND they exceed compactRatio of its slots. compactMin <= 0
	// disables the automatic trigger (CompactNow still works). Every engine
	// serves with the Default* constants; only in-package tests lower them.
	compactMin   int
	compactRatio float64
	// gds[dsRel][setting] is the annotated G_DS clone for that setting.
	gds map[string]map[string]*schemagraph.GDS
	// baseGDS[dsRel] is the unannotated G_DS, bound to db.
	baseGDS map[string]*schemagraph.GDS
	// epochs counts, per relation, the mutation batches that touched it.
	// Everything bound to a match sequence — cursors, ranked bound tables —
	// binds to the sum over its DS relation's deps (epochForLocked): any
	// batch inside deps can reorder, add or drop matches. A summary binds
	// to less: see wide and subj.
	epochs map[string]uint64
	// deps[dsRel] lists, sorted, the relations dsRel's G_DS touches
	// (including junction relations): a batch outside it can change neither
	// the match sequence nor any summary of dsRel.
	deps map[string][]string
	// A summary's cache key ends in its subject's stamp, the larger of
	// wide[dsRel] and subj[dsRel][tuple]. An OS is the tree a G_DS traversal
	// reaches from its subject, so a plain batch sets subj, to the
	// dependency-set epoch it left behind, for just the subjects from which
	// a G_DS path reaches an edge it added or removed (stampFootprintLocked).
	// A batch whose footprint is the relation — a re-rank that changed
	// scores, a compaction inside deps, a walk over footprintBudget — sets
	// wide instead and subj[dsRel] starts over (widenLocked).
	wide map[string]uint64
	subj map[string]map[relational.TupleID]uint64
	// cache, when non-nil, memoizes size-l summaries across queries. Held
	// through an atomic pointer so EnableSummaryCache can be toggled while
	// searches are in flight.
	cache atomic.Pointer[searchexec.LRU[summaryKey, Summary]]
	// bounds is what ranked queries have learned (boundTable). They fill it
	// under the read lock, ordered by boundsMu; writers hold mu exclusively.
	boundsMu sync.Mutex
	bounds   map[boundKey]*boundTable
	// arenas are the trees evaluate builds prelim-l OSs into, up to one per
	// P that can build at once; a summary keeps only a compact copy.
	arenas chan *ostree.Tree
	// mlog, when non-nil, receives every committed mutation before Mutate
	// acknowledges it — the durability hook (SetMutationLog). Appends run
	// under mu's write side, so records land in commit order.
	mlog MutationLog
	// logErr is the first failed mlog append. The engine then holds a batch
	// its log never got, so Mutate and CompactNow refuse with it before
	// touching the store: nothing more is served that a restart would lose.
	logErr error
}

// NewEngine builds an engine over db: computes every setting's global
// importance on the data graph and indexes keywords. Register G_DSs with
// RegisterGDS before searching.
//
// Each distinct G_A is compiled to push plans exactly once (the three GA1
// dampings share one compilation) and the independent settings' power
// iterations run concurrently.
func NewEngine(db *relational.DB, settings []Setting) (*Engine, error) {
	e, err := newUnrankedEngine(db, settings)
	if err != nil {
		return nil, err
	}
	if _, err := e.rankSettings(); err != nil {
		return nil, err
	}
	e.pending = make(map[*rank.GA]*rank.Pending)
	e.convergedSlots = e.arenaSlots()
	return e, nil
}

// arenaSlots is each relation's slot count, tombstones included.
func (e *Engine) arenaSlots() []int32 {
	slots := make([]int32, len(e.db.Relations))
	for ri, rel := range e.db.Relations {
		slots[ri] = int32(rel.Len())
	}
	return slots
}

// newUnrankedEngine is an engine with everything but scores: data graph,
// keyword index, compiled plans and empty score tables. It captures no rows
// (pending nil) until a re-rank converges.
func newUnrankedEngine(db *relational.DB, settings []Setting) (*Engine, error) {
	if len(settings) == 0 {
		return nil, fmt.Errorf("sizelos: at least one ranking setting required")
	}
	g, err := datagraph.Build(db)
	if err != nil {
		return nil, fmt.Errorf("sizelos: build data graph: %w", err)
	}
	e := &Engine{
		db:           db,
		graph:        g,
		index:        keyword.BuildSharded(db, keyword.ShardedOptions{}),
		settings:     append([]Setting(nil), settings...),
		gds:          make(map[string]map[string]*schemagraph.GDS),
		baseGDS:      make(map[string]*schemagraph.GDS),
		epochs:       make(map[string]uint64, len(db.Relations)),
		deps:         make(map[string][]string),
		wide:         make(map[string]uint64),
		subj:         make(map[string]map[relational.TupleID]uint64),
		compactMin:   DefaultCompactMinTombstones,
		compactRatio: DefaultCompactRatio,
		rawScores:    make(map[string]relational.DBScores, len(settings)),
		scales:       make(map[string]scale, len(settings)),
		served:       make(map[string]relational.DBScores, len(settings)),
		ordered:      make(map[string]*ostree.Ordered, len(settings)),
		arenas:       make(chan *ostree.Tree, runtime.GOMAXPROCS(0)),
	}
	for _, r := range db.Relations {
		e.epochs[r.Name] = 0
	}
	for _, s := range settings {
		e.ordered[s.Name] = new(ostree.Ordered)
	}
	if e.plans, err = compilePlans(g, e.settings); err != nil {
		return nil, err
	}
	return e, nil
}

// compilePlans compiles each distinct G_A of the settings exactly once
// against the data graph (the three GA1 dampings share one compilation).
func compilePlans(g *datagraph.Graph, settings []Setting) (map[*rank.GA]*rank.Plans, error) {
	plansByGA := make(map[*rank.GA]*rank.Plans, len(settings))
	for _, s := range settings {
		if _, ok := plansByGA[s.GA]; ok {
			continue
		}
		ps, err := rank.Compile(g, s.GA, nil)
		if err != nil {
			return nil, fmt.Errorf("sizelos: setting %s: %w", s.Name, err)
		}
		plansByGA[s.GA] = ps
	}
	return plansByGA, nil
}

// DefaultCompactMinTombstones and DefaultCompactRatio are the engine's
// auto-compaction trigger: a relation is physically compacted — tombstoned
// slots reclaimed, TupleIDs remapped through the keyword index and score
// vectors, the data graph rebuilt — once it carries at least
// DefaultCompactMinTombstones tombstones and they exceed
// DefaultCompactRatio of its slots. Below that, tombstones are cheaper than
// the remap.
const (
	DefaultCompactMinTombstones = 256
	DefaultCompactRatio         = 0.5
)

// rankSettings brings every setting's raw converged vectors (what queries
// are served from and the next re-rank starts from) and their scale up to
// date with the graph. A setting without a raw table runs the cold power
// iteration (NewEngine); any other has it repaired in place by the
// residual push over its G_A's pending rows, or from a sweep under the
// converged geometry when there are none. The repair tracks the
// per-relation maxima the scale comes from; the cold run and a fallback
// scan for them.
//
// At most GOMAXPROCS settings run at once, each on one goroutine: more
// would only queue, and the cap bounds the push scratches the plans hold.
// Settings do not read each other's results, so the cap changes nothing
// observable. Callers hold the write lock (or are
// still constructing e); an error leaves the tables half updated.
func (e *Engine) rankSettings() (map[string]rank.Stats, error) {
	type result struct {
		raw   relational.DBScores
		scale scale
		stats rank.Stats
		err   error
	}
	results := make([]result, len(e.settings))
	searchexec.ForEach(len(e.settings), 0, func(i int) {
		s, res := e.settings[i], &results[i]
		opts := rank.DefaultOptions()
		opts.Damping = s.Damping
		// Run unnormalized: the raw fixed point is what the next re-rank
		// must start from.
		opts.NormalizeMax = 0
		opts.Warm, opts.ResidualBudget = e.rawScores[s.Name], e.residualBudget
		pending := e.pending[s.GA]
		if pending == nil {
			pending = rank.Geometry(e.convergedSlots)
		}
		if opts.Warm == nil {
			res.raw, res.stats, res.err = e.plans[s.GA].Run(opts)
		} else {
			res.raw, res.stats, res.err = e.plans[s.GA].RunResidual(pending, opts)
		}
		if res.err == nil && !res.stats.Converged {
			res.err = fmt.Errorf("did not converge after %d iterations", res.stats.Iterations)
		}
		if res.err == nil {
			res.scale = newScale(e.db, res.raw, res.stats.Max)
		}
	})
	stats := make(map[string]rank.Stats, len(e.settings))
	for i, s := range e.settings {
		res := &results[i]
		if res.err != nil {
			return nil, fmt.Errorf("sizelos: setting %s: %w", s.Name, res.err)
		}
		e.rawScores[s.Name], e.scales[s.Name] = res.raw, res.scale
		stats[s.Name] = res.stats
	}
	clear(e.served)
	return stats, nil
}

// scale is how one setting's raw scores are served: tuple t of a relation
// scores float64(raw[t]*f), where f rescales the global maximum to
// rank.DefaultOptions().NormalizeMax (1 when no score is positive) — bit
// for bit what rank.Normalize writes, without writing it — and relMax[rel]
// is rel's largest served score, the G_DS Max/MMax annotation input.
type scale struct {
	f      float64
	relMax map[string]float64
}

// newScale is the scale of raw, a table of db's relations. rawMax[ri],
// when given, is relation ri's largest raw score (at least 0); nil scans.
// Rounding is monotone under a positive f, so each relation's largest
// served score is its largest raw score scaled.
func newScale(db *relational.DB, raw relational.DBScores, rawMax []float64) scale {
	maxes := make(map[string]float64, len(raw))
	top := 0.0
	for ri, r := range db.Relations {
		v, ok := raw[r.Name]
		if !ok {
			continue
		}
		var m float64
		if rawMax != nil {
			m = rawMax[ri]
		} else {
			m = v.MaxScore()
		}
		maxes[r.Name], top = m, max(top, m)
	}
	f := 1.0
	if normMax := rank.DefaultOptions().NormalizeMax; top > 0 && normMax > 0 {
		f = normMax / top
	}
	for rel, m := range maxes {
		maxes[rel] = float64(m * f)
	}
	return scale{f: f, relMax: maxes}
}

// RegisterGDS installs a Data Subject Schema Graph; one annotated clone is
// prepared per ranking setting. Registration takes the engine's write lock,
// so it is safe while searches are in flight; the summaries cached under
// the previous G_DS of this DS relation are discarded wholesale. The
// engine keeps a clone bound to its database (GDS.Bind); gds itself is
// not modified.
func (e *Engine) RegisterGDS(gds *schemagraph.GDS) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	gds = gds.Clone()
	if err := gds.Bind(e.db); err != nil {
		return err
	}
	perSetting, err := e.annotateLocked(gds)
	if err != nil {
		return err
	}
	e.baseGDS[gds.DSName] = gds
	e.gds[gds.DSName] = perSetting
	e.deps[gds.DSName] = gdsDeps(e.db, gds)
	// The cache swapped in below starts empty, so the stamps start over with
	// it (under a smaller deps the old ones could exceed every later epoch).
	delete(e.wide, gds.DSName)
	delete(e.subj, gds.DSName)
	// Bounds learned under the previous G_DS describe other OSs, and lists
	// of hops it no longer binds are dead weight.
	e.bounds = nil
	e.resetOrderedLocked()
	// Summaries cached under the previous G_DS of this DS relation are now
	// stale; swap in a fresh cache of the same capacity. CAS so a
	// concurrent EnableSummaryCache reconfiguration wins over the swap.
	for {
		c := e.cache.Load()
		if c == nil {
			break
		}
		if e.cache.CompareAndSwap(c, searchexec.NewLRU[summaryKey, Summary](c.Stats().Cap)) {
			break
		}
	}
	return nil
}

// resetOrderedLocked drops every setting's lists. Callers hold the write
// lock.
func (e *Engine) resetOrderedLocked() {
	for _, o := range e.ordered {
		o.Reset()
	}
}

// annotateLocked clones gds once per setting and annotates each clone from
// that setting's per-relation maxima (its scale's; no per-node score-vector
// scans). Callers hold the write lock.
func (e *Engine) annotateLocked(gds *schemagraph.GDS) (map[string]*schemagraph.GDS, error) {
	perSetting := make(map[string]*schemagraph.GDS, len(e.scales))
	for name, sc := range e.scales {
		c := gds.Clone()
		if err := c.AnnotateMax(sc.relMax); err != nil {
			return nil, fmt.Errorf("sizelos: annotate %s under %s: %w", gds.DSName, name, err)
		}
		perSetting[name] = c
	}
	return perSetting, nil
}

// reannotateLocked re-annotates every registered G_DS from e.scales, which
// the caller has just refreshed (a re-rank that changed scores, a
// compaction): a few 6–8 node clones, 11 µs for DBLP's two G_DSs under four
// settings, so nothing decides whether it is needed. Callers hold the
// write lock.
func (e *Engine) reannotateLocked() error {
	for ds, base := range e.baseGDS {
		perSetting, err := e.annotateLocked(base)
		if err != nil {
			return err
		}
		e.gds[ds] = perSetting
	}
	return nil
}

// gdsDeps lists, sorted and deduplicated, every relation a traversal of
// the bound gds can touch: the node relations plus the owners of the hops
// between them (a junction hopped over, or a node's own relation). A
// mutation outside this set cannot change any summary rooted at the G_DS.
func gdsDeps(db *relational.DB, gds *schemagraph.GDS) []string {
	set := make(map[string]bool)
	for _, n := range gds.Nodes() {
		set[n.Rel] = true
		if n.Parent != nil {
			set[db.Relations[n.Hop.Owner()].Name] = true
		}
	}
	out := make([]string, 0, len(set))
	for rel := range set {
		out = append(out, rel)
	}
	sort.Strings(out)
	return out
}

// DB exposes the underlying database. Treat it as read-only: all mutations
// must go through Mutate, which keeps the index, data graph and cache
// epochs consistent.
func (e *Engine) DB() *relational.DB { return e.db }

// Index exposes the keyword index the engine queries. Treat it as
// read-only, and do not probe it concurrently with Mutate.
func (e *Engine) Index() *keyword.Sharded { return e.index }

// Graph exposes the tuple data graph. Mutate edits each batch into this
// same object in place (only compaction replaces it), so the returned
// pointer must not be traversed concurrently with — or retained across —
// any Mutate: use it within one mutation quiescence and re-fetch
// afterwards.
func (e *Engine) Graph() *datagraph.Graph {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.graph
}

// Scores returns the global importance of a setting, normalized for
// presentation: every score exactly as searches read it. The table is the
// caller's to read, never written again: a later Mutate that changes any
// score leaves it as it was and the next call returns a new one. It is
// built on the first call after such a change (the engine serves its raw
// vectors through a scale and keeps no such table otherwise); treat it as
// read-only, calls in between share it.
func (e *Engine) Scores(setting string) (relational.DBScores, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	raw, f, err := e.scoresLocked(setting)
	if err != nil {
		return nil, err
	}
	e.servedMu.Lock()
	defer e.servedMu.Unlock()
	if sc, ok := e.served[setting]; ok {
		return sc, nil
	}
	sc := make(relational.DBScores, len(raw))
	for rel, v := range raw {
		out := make(relational.Scores, len(v))
		for i, x := range v {
			out[i] = float64(x * f)
		}
		sc[rel] = out
	}
	e.served[setting] = sc
	return sc, nil
}

// scoresLocked returns a setting's raw scores and the scale f they are
// served at (relational.Scaled). Callers hold at least the read lock.
func (e *Engine) scoresLocked(setting string) (relational.DBScores, float64, error) {
	raw, ok := e.rawScores[setting]
	if !ok {
		return nil, 0, fmt.Errorf("%w: unknown setting %q (have %v)", ErrInvalidRequest, setting, e.settingNamesLocked())
	}
	return raw, e.scales[setting].f, nil
}

// SettingNames lists the configured settings, sorted.
func (e *Engine) SettingNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.settingNamesLocked()
}

func (e *Engine) settingNamesLocked() []string {
	out := make([]string, 0, len(e.rawScores))
	for k := range e.rawScores {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// GDS returns the annotated G_DS of a DS relation under a setting.
func (e *Engine) GDS(dsRel, setting string) (*schemagraph.GDS, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.gdsLocked(dsRel, setting)
}

func (e *Engine) gdsLocked(dsRel, setting string) (*schemagraph.GDS, error) {
	per, ok := e.gds[dsRel]
	if !ok {
		return nil, fmt.Errorf("sizelos: no G_DS registered for %s", dsRel)
	}
	g, ok := per[setting]
	if !ok {
		return nil, fmt.Errorf("sizelos: unknown setting %q", setting)
	}
	return g, nil
}

// Summary is one size-l OS result.
type Summary struct {
	// DSRel and Tuple identify the data subject.
	DSRel string
	Tuple relational.TupleID
	// Headline is the DS tuple's displayable description.
	Headline string
	// Result holds the selected nodes and Im(S).
	Result sizel.Result
	// Tree is the size-l OS itself, compacted out of the prelim-l or
	// complete OS it was selected from: Result.Nodes are 0..Len()-1.
	Tree *ostree.Tree
	// Text is the rendered size-l OS in the style of Example 5.
	Text string
	// Wire holds a server's encoding of the summary for every copy of it.
	// Only a cache entry has its own; the rest share noWire, which keeps
	// nothing, so equal summaries stay equal whether or not cached.
	Wire *Wire
}

// Wire is where a server keeps a summary's encoding.
type Wire struct{ p atomic.Pointer[[]byte] }

var noWire Wire

// Load returns the kept encoding, or nil.
func (w *Wire) Load() *[]byte { return w.p.Load() }

// CompareAndSwap keeps b in place of old; noWire keeps nothing.
func (w *Wire) CompareAndSwap(old, b *[]byte) bool { return w != &noWire && w.p.CompareAndSwap(old, b) }

// kernel is what one request's evaluations share on its goroutine: the
// extraction source, made at the first. Nothing in it outlives the request.
type kernel struct {
	src *ostree.GraphSource
}

// scored is one evaluated subject: its summary (rendered if the cache served
// it or the caller asked, else DSRel, Tuple, Result and Tree only); the
// prefix sums of its prelim-l OS's l largest local importances, descending,
// so top[i-1] bounds Im(S) of any i of its tuples from above (nil on a cache
// hit); and whether top sealed it under the caller's threshold unselected,
// leaving Result empty (a ranking remembers an unsealed Result.Importance).
type scored struct {
	sum    Summary
	top    []float64
	sealed bool
}

// summaryLocked produces one subject's summary cache-first; on a miss it
// evaluates the subject against tau and, with serve set, renders and
// memoizes the result at once — what a caller that serves every summary it
// computes passes, with tau = -Inf. req must be resolved and the subject
// validated live; k is the request's; callers hold at least the read lock.
func (e *Engine) summaryLocked(req QueryRequest, tuple relational.TupleID, tau float64, serve bool, k *kernel) (sc scored, err error) {
	// A cache hit is microseconds of work; serve it without waiting on the
	// shared budget so hot cached queries stay fast even while the pool is
	// saturated by cold computations.
	key := e.summaryKeyFor(req, tuple)
	cache := e.cache.Load()
	if cache != nil {
		if s, ok := cache.Get(key); ok {
			return scored{sum: s}, nil
		}
	}
	// Each computation holds one shared-pool slot for its duration, so the
	// machine-wide budget is enforced across requests (a nil Pool runs
	// inline).
	req.Pool.Do(func() {
		// Re-probe after the (possibly long) slot wait: a sibling may have
		// cached this summary meanwhile, and recomputing it would waste
		// scarce cold-compute budget. Stat-neutral — the probe above already
		// recorded this lookup's outcome.
		if cache != nil {
			if hit, ok := cache.Peek(key); ok {
				sc.sum = hit
				return
			}
		}
		if sc, err = e.evaluate(req, tuple, tau, k); err != nil || !serve {
			return
		}
		e.materialize(req, &sc.sum)
		if cache != nil {
			sc.sum.Wire = new(Wire)
			cache.Put(key, sc.sum)
		}
	})
	return sc, err
}

// summaryKey identifies one memoizable size-l computation: every
// QueryRequest field that affects the produced Summary participates, plus
// the subject's stamp — a batch that can reach the subject moves it, so a
// pre-mutation entry can never satisfy a post-mutation lookup (it lingers
// unreferenced until the LRU evicts it), while the entries of every subject
// the batch cannot reach keep hitting.
type summaryKey struct {
	// Scope isolates tenants sharing one engine (QueryRequest.CacheScope).
	Scope       string
	DSRel       string
	Tuple       relational.TupleID
	L           int
	Setting     string
	Algorithm   Algorithm
	Complete    bool
	ShowWeights bool
	// Epoch is the subject's stamp: the dependency-set epoch of the last
	// batch that could have changed this subject's OS (Engine.wide, subj).
	Epoch uint64
}

// summaryKeyFor builds the memoization key of one size-l computation; req
// must be resolved so defaults and explicit settings share entries.
// Callers hold at least the read lock.
func (e *Engine) summaryKeyFor(req QueryRequest, tuple relational.TupleID) summaryKey {
	return summaryKey{
		Scope: req.CacheScope,
		DSRel: req.Rel, Tuple: tuple, L: req.L,
		Setting: req.Setting, Algorithm: req.Algorithm,
		Complete: req.Complete, ShowWeights: req.ShowWeights,
		Epoch: max(e.wide[req.Rel], e.subj[req.Rel][tuple]),
	}
}

// widenLocked moves the stamp of every subject of dsRel at once and records
// that in result. Callers hold the write lock, the event's epochs advanced.
func (e *Engine) widenLocked(dsRel string, result *MutationResult) {
	e.wide[dsRel] = e.epochForLocked(dsRel)
	delete(e.subj, dsRel)
	result.Footprint[dsRel] = -1
}

// epochForLocked returns the dependency-set epoch of one DS relation: the
// sum of the mutation epochs of every relation its G_DS touches. Epoch
// counters only grow, so the sum changes exactly when a mutation lands
// inside the dependency set. Before a G_DS is registered the DS relation's
// own epoch stands in. Callers hold at least the read lock.
func (e *Engine) epochForLocked(dsRel string) uint64 {
	deps, ok := e.deps[dsRel]
	if !ok {
		return e.epochs[dsRel]
	}
	var sum uint64
	for _, rel := range deps {
		sum += e.epochs[rel]
	}
	return sum
}

// EnableSummaryCache installs an LRU cache of up to capacity size-l
// summaries, keyed by (cache scope, DS relation, tuple, l, setting,
// algorithm, complete/prelim, source, weights, subject stamp). Repeated
// queries from many users then skip regeneration entirely. Mutations never
// wipe the cache: a plain batch rotates the keys of exactly the subjects
// from which a G_DS path reaches a tuple it inserted or deleted, a re-rank
// or a compaction those of the DS relations it reaches — stale entries
// become unreachable and age out, unrelated entries keep hitting. A
// RankBySummary query is served from the cache where it can be
// but adds nothing to it: what it would add — the K largest OSs of every
// ranking asked for — is the most memory per entry for the least reuse.
// What a ranking keeps instead is each scored subject's exact Im(S), 16
// bytes in its bound table, so a repeat builds only the K it serves.
// Cached summaries share their Tree and Wire pointers; treat returned
// summaries as read-only. capacity <= 0 disables caching. Safe to toggle
// while searches are in flight: running queries finish against the cache
// they started with.
func (e *Engine) EnableSummaryCache(capacity int) {
	if capacity <= 0 {
		e.cache.Store(nil)
		return
	}
	e.cache.Store(searchexec.NewLRU[summaryKey, Summary](capacity))
}

// SummaryCacheStats snapshots the cache's hit/miss counters; ok is false
// when no cache is enabled.
func (e *Engine) SummaryCacheStats() (stats searchexec.CacheStats, ok bool) {
	c := e.cache.Load()
	if c == nil {
		return searchexec.CacheStats{}, false
	}
	return c.Stats(), true
}

// SizeL computes the size-l OS of one data subject tuple of req.Rel — the
// paper's single-subject primitive. Only the summary-shaping fields of req
// (and Pool) apply; Query, the ranking and the paging fields are ignored.
func (e *Engine) SizeL(req QueryRequest, tuple relational.TupleID) (Summary, error) {
	req, err := req.resolve()
	if err != nil {
		return Summary{}, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	// Tombstoned tuples are rejected like out-of-range ones.
	if skip, err := e.classifySubject(req.Rel, tuple); err != nil {
		return Summary{}, err
	} else if skip {
		return Summary{}, fmt.Errorf("sizelos: tuple %d of %s is deleted", tuple, req.Rel)
	}
	sc, err := e.summaryLocked(req, tuple, math.Inf(-1), true, &kernel{})
	return sc.sum, err
}

// evaluate is the first half of a summary computation: source → prelim-l
// tree → select → compact; Headline and Text are left to materialize. The
// tree is built into an arena from e.arenas, given back on return. When its
// bound at l is under tau (sealedBy) selection is skipped; -Inf selects.
func (e *Engine) evaluate(req QueryRequest, tuple relational.TupleID, tau float64, k *kernel) (scored, error) {
	dsRel, l := req.Rel, req.L
	raw, f, err := e.scoresLocked(req.Setting)
	if err != nil {
		return scored{}, err
	}
	gds, err := e.gdsLocked(dsRel, req.Setting)
	if err != nil {
		return scored{}, err
	}
	if k.src == nil {
		k.src = ostree.NewOrderedGraphSource(e.graph, raw, f, e.ordered[req.Setting])
	}

	var arena *ostree.Tree // nil: PrelimL makes one
	select {
	case arena = <-e.arenas:
	default:
	}
	// With both avoidance conditions off, PrelimL builds the complete OS.
	tree, stats, err := sizel.PrelimL(k.src, gds, tuple, l, sizel.PrelimOptions{
		MaxDepth: ostree.SizeLDepth(l), DisableAC1: req.Complete, DisableAC2: req.Complete, Into: arena,
	})
	if err != nil {
		return scored{}, err
	}
	defer func() {
		select {
		case e.arenas <- tree:
		default:
		}
	}()
	top := stats.TopWeights
	for i := 1; i < len(top); i++ {
		top[i] += top[i-1]
	}
	out := scored{sum: Summary{DSRel: dsRel, Tuple: tuple}, top: top}
	if out.sealed = sealedBy(top[len(top)-1], tau); out.sealed {
		return out, nil
	}

	// resolve admits only the three names sizel.Select knows.
	if out.sum.Result, err = sizel.Select(context.Background(), string(req.Algorithm), tree, l); err != nil {
		return scored{}, err
	}
	out.sum.Tree = tree.Compact(out.sum.Result.Nodes)
	copy(out.sum.Result.Nodes, ostree.Iota(len(out.sum.Result.Nodes)))
	return out, nil
}

// materialize is the second half: it renders an evaluated summary.
func (e *Engine) materialize(req QueryRequest, sum *Summary) {
	sum.Headline = headline(e.db, sum.DSRel, sum.Tuple)
	sum.Text = sum.Tree.Render(ostree.RenderOptions{ShowWeights: req.ShowWeights})
	sum.Wire = &noWire
}

// RegisterAutoGDS derives a G_DS for dsRel automatically from the schema
// (schemagraph.Treealize) instead of using an expert preset: junctions
// names the pure M:N connector relations, theta prunes low-affinity
// branches (0 uses the engine default θ).
func (e *Engine) RegisterAutoGDS(dsRel string, junctions []string, theta float64) error {
	if theta == 0 {
		theta = Theta
	}
	jset := make(map[string]bool, len(junctions))
	for _, j := range junctions {
		jset[j] = true
	}
	gds, err := schemagraph.Treealize(e.db, dsRel, schemagraph.AutoOptions{
		Junctions: jset,
		Theta:     theta,
	})
	if err != nil {
		return err
	}
	return e.RegisterGDS(gds)
}

// headline renders the DS tuple's first displayable string attribute.
// Callers validate rel and tuple; the checks here are defense in depth so a
// bad input degrades to a placeholder instead of a panic.
func headline(db *relational.DB, rel string, tuple relational.TupleID) string {
	r := db.Relation(rel)
	if r == nil {
		return fmt.Sprintf("%s #%d (unknown relation)", rel, tuple)
	}
	if tuple < 0 || int(tuple) >= r.Len() {
		return fmt.Sprintf("%s #%d (out of range)", rel, tuple)
	}
	tup := r.Tuples[tuple]
	for ci, col := range r.Columns {
		if col.Kind == relational.KindString && ci != r.PKCol {
			return tup[ci].Str
		}
	}
	return fmt.Sprintf("%s #%d", rel, r.PK(tuple))
}

// recipe is one dataset's engine shape: the paper's four settings over its
// two authority transfer graphs, and the G_DSs an engine over it registers
// at θ. A fresh build (Open*) and a snapshot restore (Restore*) both take
// it from here, so the two serve the same shape.
type recipe struct {
	ga1, ga2 func() *rank.GA
	gds      []func() *schemagraph.GDS
}

var (
	// At θ=0.7 the DBLP G_DSs keep all their relations (paper §2.1), so
	// thresholding them is a no-op kept for symmetry with TPC-H.
	dblpRecipe = recipe{datagen.DBLPGA1, datagen.DBLPGA2, []func() *schemagraph.GDS{datagen.AuthorGDS, datagen.PaperGDS}}
	// ValueRank GA1, ObjectRank GA2; the Customer and Supplier G_DS(θ).
	tpchRecipe = recipe{datagen.TPCHGA1, datagen.TPCHGA2, []func() *schemagraph.GDS{datagen.CustomerGDS, datagen.SupplierGDS}}
)

func (r recipe) settings() []Setting { return DefaultSettings(r.ga1(), r.ga2()) }

// register finishes an engine a constructor returned by registering r's
// G_DSs, each thresholded at Theta.
func (r recipe) register(eng *Engine, err error) (*Engine, error) {
	if err != nil {
		return nil, err
	}
	for _, gds := range r.gds {
		if err := eng.RegisterGDS(gds().Threshold(Theta)); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// OpenDBLP generates the DBLP-like database and returns an engine with the
// paper's four settings and the Author and Paper G_DSs registered.
func OpenDBLP(cfg datagen.DBLPConfig) (*Engine, error) {
	db, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		return nil, err
	}
	return dblpRecipe.register(NewEngine(db, dblpRecipe.settings()))
}

// Theta is the affinity threshold θ applied to G_DSs (§2.1): the paper's
// experiments use G_DS(0.7), which e.g. reduces the Customer G_DS to
// Customer, Nation, Region, Order, Lineitem and Partsupp.
const Theta = 0.7

// OpenTPCH generates the TPC-H-like database and returns an engine with the
// paper's four settings (ValueRank GA1, ObjectRank GA2) and the Customer
// and Supplier G_DS(θ) registered.
func OpenTPCH(cfg datagen.TPCHConfig) (*Engine, error) {
	db, err := datagen.GenerateTPCH(cfg)
	if err != nil {
		return nil, err
	}
	return tpchRecipe.register(NewEngine(db, tpchRecipe.settings()))
}
