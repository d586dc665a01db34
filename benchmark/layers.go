package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"sizelos"
	"sizelos/internal/datagen"
	"sizelos/internal/datagraph"
	"sizelos/internal/durable"
	"sizelos/internal/keyword"
	"sizelos/internal/nodehost"
	"sizelos/internal/ostree"
	"sizelos/internal/placement"
	"sizelos/internal/rank"
	"sizelos/internal/relational"
	"sizelos/internal/searchexec"
	"sizelos/internal/sizel"
)

// This file holds the replicas the traced run calls below the HTTP surface:
// bare engines over a counting filesystem (E), the read pipeline run by
// hand on an engine's substrates (K), and the write pipeline run by hand on
// a throwaway (DB, index, graph) triple. Everything here calls public
// functions of the layer it times and nothing else.

// countingFS counts what the durability tier writes: bytes, fsyncs (file
// and directory) and the time spent inside Write and Sync. It is used by
// one goroutine at a time.
type countingFS struct {
	durable.FS
	bytes, syncs int64
	busy         time.Duration
	// first is when the first Write or Sync since the last reset began.
	first time.Time
}

type countingFile struct {
	durable.File
	fs *countingFS
}

func (c *countingFS) reset() { c.bytes, c.syncs, c.busy, c.first = 0, 0, 0, time.Time{} }

func (c *countingFS) timed(fn func() error) error {
	t0 := time.Now()
	if c.first.IsZero() {
		c.first = t0
	}
	err := fn()
	c.busy += time.Since(t0)
	return err
}

func (c *countingFS) Create(name string) (durable.File, error) {
	f, err := c.FS.Create(name)
	return &countingFile{f, c}, err
}

func (c *countingFS) Append(name string) (durable.File, error) {
	f, err := c.FS.Append(name)
	return &countingFile{f, c}, err
}

func (c *countingFS) SyncDir(dir string) error {
	c.syncs++
	return c.timed(func() error { return c.FS.SyncDir(dir) })
}

func (f *countingFile) Write(p []byte) (n int, err error) {
	err = f.fs.timed(func() error { n, err = f.File.Write(p); return err })
	f.fs.bytes += int64(n)
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs++
	return f.fs.timed(f.File.Sync)
}

// engineReplica is one tenant's bare engine: same dataset, same cache
// budget and a WAL with the fleet's commit discipline, but called as
// Engine.QueryPage and Engine.Mutate.
type engineReplica struct {
	eng    *sizelos.Engine
	ts     *durable.TenantStore
	cursor string
}

// openReplica builds (or recovers) tenant's engine through its durable
// store and returns it with the recovery report and how long that took.
func openReplica(store *durable.Store, p *plan, tenant int, fresh func() (*sizelos.Engine, error)) (*engineReplica, durable.RecoveryInfo, time.Duration, error) {
	restore, err := nodehost.Restorer(p.wl.dataset)
	if err != nil {
		return nil, durable.RecoveryInfo{}, 0, err
	}
	ts := store.Tenant(p.tenants[tenant])
	start := time.Now()
	eng, info, err := ts.Recover(restore, fresh)
	if err != nil {
		return nil, info, 0, err
	}
	took := time.Since(start)
	eng.EnableSummaryCache(p.sz.cache)
	return &engineReplica{eng: eng, ts: ts}, info, took, nil
}

// stage is the time one pipeline stage was busy during one op.
type stage struct {
	first time.Time
	busy  time.Duration
	calls int
}

func (s *stage) time(fn func()) {
	t0 := time.Now()
	if s.first.IsZero() {
		s.first = t0
	}
	fn()
	s.busy += time.Since(t0)
	s.calls++
}

// readStages are the stages of one read op below Engine.QueryPage.
type readStages struct {
	keyword, cache, prelim, sel, render stage
}

func (r *readStages) each(fn func(name string, s *stage)) {
	fn("keyword", &r.keyword)
	fn("cache", &r.cache)
	fn("prelim", &r.prelim)
	fn("select", &r.sel)
	fn("render", &r.render)
}

// summaryKey mirrors the engine's summary-cache key for a fixed engine
// state (no mutations happen on the workloads the pipeline serves).
type summaryKey struct {
	rel           string
	tuple         relational.TupleID
	l             int
	setting, algo string
}

// pipelineTotals accumulates, over the traced ops, what the hand-run read
// pipeline did: the paper's own cost counters and per-algorithm times.
type pipelineTotals struct {
	summaries                       int // computed (cache misses)
	hits                            int
	accesses                        int64
	extracted, ac1, ac2             int
	prelim, render                  time.Duration
	algoTime                        map[string]time.Duration
	algoCalls                       map[string]int
	qualityN                        int
	topPathQuality, bottomUpQuality float64
	postings, queries, rendered     int
}

func newTotals() pipelineTotals {
	return pipelineTotals{algoTime: make(map[string]time.Duration), algoCalls: make(map[string]int)}
}

// qualityEvery is how often a computed OS is also handed to all three
// size-l algorithms (off the clock) to compare Im(S) with the optimum.
const qualityEvery = 20

// pipeline runs the read path by hand on one engine's substrates: keyword
// stream pops, summary-cache probe, PrelimL, the size-l selection and
// Render. The cache is an LRU of the same capacity fed the same key
// sequence as the engine's own, so it hits and misses where the engine
// does.
type pipeline struct {
	eng      *sizelos.Engine
	cache    *searchexec.LRU[summaryKey, float64]
	postings map[string]int
	totals   *pipelineTotals
}

func newPipeline(eng *sizelos.Engine, capacity int, totals *pipelineTotals) *pipeline {
	return &pipeline{
		eng:      eng,
		cache:    searchexec.NewLRU[summaryKey, float64](capacity),
		postings: make(map[string]int),
		totals:   totals,
	}
}

func (k *pipeline) run(q *query, paged bool, st *readStages) error {
	setting, algo := q.setting, q.algo
	if setting == "" {
		setting = sizelos.DefaultSetting
	}
	if algo == "" {
		algo = string(sizelos.AlgoTopPath)
	}
	scores, err := k.eng.Scores(setting)
	if err != nil {
		return err
	}
	gds, err := k.eng.GDS(q.rel, setting)
	if err != nil {
		return err
	}
	idx, graph := k.eng.Index(), k.eng.Graph()
	tot := k.totals
	tot.queries++
	if _, seen := k.postings[q.params]; !seen {
		n := 0
		for _, tok := range keyword.Tokenize(q.keywords) {
			n += len(idx.Lookup(q.rel, []string{tok}))
		}
		k.postings[q.params] = n
	}
	tot.postings += k.postings[q.params]

	var stream keyword.MatchStream
	st.keyword.time(func() { stream = idx.SearchStream(q.rel, q.keywords, scores) })
	if paged {
		// The engine replays the served prefix before the page; that is
		// its own time, not the keyword layer's.
		for i := 0; i < pageLimit; i++ {
			stream.Next()
		}
	}
	want := pageLimit
	if q.ranked {
		want = stream.Remaining()
	}
	src := ostree.NewGraphSource(graph, scores)
	for i := 0; i < want; i++ {
		var (
			m  keyword.Match
			ok bool
		)
		st.keyword.time(func() { m, ok = stream.Next() })
		if !ok {
			break
		}
		key := summaryKey{q.rel, m.Tuple, q.l, setting, algo}
		var hit bool
		st.cache.time(func() { _, hit = k.cache.Get(key) })
		if hit {
			tot.hits++
			continue
		}
		var (
			tree  *ostree.Tree
			stats sizel.PrelimStats
			res   sizel.Result
		)
		st.prelim.time(func() {
			tree, stats, err = sizel.PrelimL(src, gds, m.Tuple, q.l, sizel.PrelimOptions{MaxDepth: q.l - 1})
		})
		if err != nil {
			return err
		}
		before := st.sel.busy
		st.sel.time(func() { res, err = selectL(algo, tree, q.l) })
		if err != nil {
			return err
		}
		// rendered keeps the text alive so the call cannot be elided.
		st.render.time(func() { tot.rendered += len(tree.Render(ostree.RenderOptions{Keep: res.Nodes})) })
		st.cache.time(func() { k.cache.Put(key, res.Importance) })
		tot.summaries++
		tot.accesses += stats.Accesses
		tot.extracted += stats.Extracted
		tot.ac1 += stats.AC1Skips
		tot.ac2 += stats.AC2TopL
		tot.algoTime[algo] += st.sel.busy - before
		tot.algoCalls[algo]++
		if tot.summaries%qualityEvery == 0 {
			if err := k.quality(tree, q.l); err != nil {
				return err
			}
		}
	}
	tot.prelim += st.prelim.busy
	tot.render += st.render.busy
	return nil
}

func selectL(algo string, tree *ostree.Tree, l int) (sizel.Result, error) {
	switch sizelos.Algorithm(algo) {
	case sizelos.AlgoDP:
		return sizel.DP(context.Background(), tree, l)
	case sizelos.AlgoBottomUp:
		return sizel.BottomUp(tree, l)
	case sizelos.AlgoTopPath:
		return sizel.TopPath(tree, l, sizel.TopPathOptions{})
	}
	return sizel.Result{}, fmt.Errorf("unknown algorithm %q", algo)
}

// quality compares the two heuristics with the exact dynamic program on
// one OS: Im(S)/Im(S_dp). A faster heuristic that got worse shows here.
func (k *pipeline) quality(tree *ostree.Tree, l int) error {
	best, err := selectL(string(sizelos.AlgoDP), tree, l)
	if err != nil || best.Importance == 0 {
		return err
	}
	tp, err := selectL(string(sizelos.AlgoTopPath), tree, l)
	if err != nil {
		return err
	}
	bu, err := selectL(string(sizelos.AlgoBottomUp), tree, l)
	if err != nil {
		return err
	}
	k.totals.qualityN++
	k.totals.topPathQuality += tp.Importance / best.Importance
	k.totals.bottomUpQuality += bu.Importance / best.Importance
	return nil
}

// triple is the write path's substrates without an engine around them: the
// relational store, the keyword index and the data graph, each taking the
// batch through its own public Apply.
type triple struct {
	db  *relational.DB
	idx *keyword.Sharded
	g   *datagraph.Graph
}

// writeStages are the stages of one write op below Engine.Mutate; wal is
// filled from the counting filesystem of the engine replica.
type writeStages struct {
	relational, keyword, datagraph, wal stage
}

func (w *writeStages) each(fn func(name string, s *stage)) {
	fn("relational", &w.relational)
	fn("keyword", &w.keyword)
	fn("datagraph", &w.datagraph)
	fn("wal", &w.wal)
}

func (t *triple) apply(w *write, st *writeStages) error {
	mb := w.batch()
	var batch relational.Batch
	for _, d := range mb.Deletes {
		batch.Deletes = append(batch.Deletes, relational.DeleteOp{Rel: d.Rel, PK: d.PK})
	}
	for _, in := range mb.Inserts {
		batch.Inserts = append(batch.Inserts, relational.InsertOp{Rel: in.Rel, Tuple: in.Tuple})
	}
	var (
		res relational.BatchResult
		err error
	)
	st.relational.time(func() { res, err = t.db.Apply(batch) })
	if err != nil {
		return err
	}
	touched := make([]string, 0, 3)
	for rel := range batch.Relations() {
		touched = append(touched, rel)
	}
	sort.Strings(touched)
	st.keyword.time(func() {
		for _, rel := range touched {
			t.idx.Apply(rel, res.Inserted[rel], res.Deleted[rel])
		}
	})
	st.datagraph.time(func() { err = t.g.Apply(res) })
	return err
}

// buildTimes are the set-up layers, each timed around its public
// constructor, in ms.
type buildTimes struct {
	generate, graph, index, compile, run, newEngine float64
}

// buildTriple generates one tenant's dataset and builds the write-path
// substrates over it, timing each constructor.
func buildTriple(p *plan, tenant int, bt *buildTimes) (*triple, error) {
	t0 := time.Now()
	db, err := generateDB(p.wl.dataset, p.sz, p.tenantSeeds[tenant])
	if err != nil {
		return nil, err
	}
	bt.generate = ms(time.Since(t0))
	t0 = time.Now()
	g, err := datagraph.Build(db)
	if err != nil {
		return nil, err
	}
	bt.graph = ms(time.Since(t0))
	t0 = time.Now()
	idx := keyword.BuildSharded(db, keyword.ShardedOptions{})
	bt.index = ms(time.Since(t0))
	return &triple{db: db, idx: idx, g: g}, nil
}

func gas(dataset string) (ga1, ga2 *rank.GA) {
	if dataset == "dblp" {
		return datagen.DBLPGA1(), datagen.DBLPGA2()
	}
	return datagen.TPCHGA1(), datagen.TPCHGA2()
}

// timeRank times compiling GA1 against the triple's graph and one cold
// power iteration at the default damping, then a whole NewEngine (which
// contains all of the above, four settings wide) over the same dataset; the
// engine only reads it and is dropped at once.
func timeRank(p *plan, t *triple, bt *buildTimes) error {
	ga1, ga2 := gas(p.wl.dataset)
	t0 := time.Now()
	plans, err := rank.Compile(t.g, ga1, nil)
	if err != nil {
		return err
	}
	bt.compile = ms(time.Since(t0))
	t0 = time.Now()
	opts := rank.DefaultOptions()
	opts.NormalizeMax = 0
	if _, _, err := plans.Run(opts); err != nil {
		return err
	}
	bt.run = ms(time.Since(t0))
	t0 = time.Now()
	if _, err := sizelos.NewEngine(t.db, sizelos.DefaultSettings(ga1, ga2)); err != nil {
		return err
	}
	bt.newEngine = ms(time.Since(t0))
	return nil
}

// timeOwner is the mean time of one Ring.Owner lookup on the fleet's ring.
func timeOwner(tenants []string) float64 {
	ring := placement.New(0)
	for _, n := range nodeNames {
		ring.Add(n)
	}
	const rounds = 20000
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		ring.Owner(tenants[i%len(tenants)])
	}
	return float64(time.Since(t0).Nanoseconds()) / rounds
}
