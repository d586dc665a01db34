package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"sizelos"
	"sizelos/internal/durable"
	"sizelos/internal/searchexec"
)

// span is one timed call into a layer. Spans of one op share Op; Parent is
// the ID of the span one layer up (-1 for front). The node span lies inside
// the front span on the clock; the engine span and the stages below it are
// timed on their own replicas, so their intervals follow their parent's:
// containment is by duration, and a layer's self time is its duration
// minus its children's. Calls > 1 marks a stage the op entered
// several times (once per summary); its End is Start plus the summed time.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// selfTimes returns every span's self time by ID: its duration minus the
// durations of its direct children, and whether those children fit inside
// it (a span that fits has a self time >= 0; one that does not gets 0).
func selfTimes(spans []span) (self map[int]time.Duration, fits map[int]bool) {
	self = make(map[int]time.Duration, len(spans))
	fits = make(map[int]bool, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		fits[s.ID] = true
	}
	for _, s := range spans {
		if _, ok := fits[s.Parent]; ok {
			self[s.Parent] -= s.dur()
		}
	}
	for id, d := range self {
		if d < 0 {
			self[id], fits[id] = 0, false
		}
	}
	return self, fits
}

// tracer replays one client's ops against lockstep replicas of the same
// state, built from the same seeds: F a fleet behind its router whose node
// handlers are wrapped in a timer, E bare engines, K the hand-run pipelines.
// Every replica receives every op in the same order, so caches and epochs
// evolve alike and each op yields
//
//	front > node > engine > {keyword, cache, prelim, select, render}   (reads)
//	front > node > engine > {relational, keyword, datagraph, wal}      (writes)
//
// from the benchmark's own side of each layer boundary.
type tracer struct {
	p *plan
	f *fleet
	// front is the traced client, at F's router.
	front *clientState
	// handler is the node-handler call of the op in flight, written by the
	// serving goroutine before the response ends.
	handlerMu sync.Mutex
	handler   stage
	cfs       *countingFS
	e         []*engineReplica
	k         []*pipeline
	w         []*triple
	pool      *searchexec.Pool
	totals    pipelineTotals
	builds    buildTimes

	start  time.Time
	spans  []span
	nextID int

	// Per-op figures of the traced ops, by kind.
	reads, writes, reranks opFigures
	respBytes              int
	matches, summaries     int
	walBytes, walSyncs     int64
	rerank                 rerankTotals
	divergent              int
}

// opFigures holds, per traced op of one kind, the span durations the
// per-layer medians and shares are taken from.
type opFigures struct {
	front, node, engine []time.Duration
	stages              map[string][]time.Duration
}

func (o *opFigures) add(front, node, engine time.Duration) {
	o.front, o.node, o.engine = append(o.front, front), append(o.node, node), append(o.engine, engine)
}

type rerankTotals struct {
	settings, pushes, updates, rounds, fallbacks, accelerated int
}

// newTracer builds the four replicas of p's state.
func newTracer(p *plan) (t *tracer, err error) {
	t = &tracer{p: p, pool: searchexec.NewPool(0), totals: newTotals()}
	t.reads.stages, t.writes.stages, t.reranks.stages = map[string][]time.Duration{}, map[string][]time.Duration{}, map[string][]time.Duration{}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	dir, err := newDataDir(p.scratch)
	if err != nil {
		return t, err
	}
	if t.f, err = bootFleet(dir, p, true, t.timeHandler); err != nil {
		return t, err
	}
	t.front = &clientState{c: newClient(t.f.front.url)}
	if dir, err = newDataDir(p.scratch); err != nil {
		return t, err
	}
	t.cfs = &countingFS{FS: durable.NewDirFS(dir)}
	store, err := durable.Open(t.cfs, durable.Options{})
	if err != nil {
		return t, err
	}
	for tenant := range p.tenants {
		seed := p.tenantSeeds[tenant]
		rep, _, _, err := openReplica(store, p, tenant, func() (*sizelos.Engine, error) {
			return openDataset(p.sz)(p.wl.dataset, seed)
		})
		if err != nil {
			return t, err
		}
		t.e = append(t.e, rep)
		if !p.wl.writes {
			t.k = append(t.k, newPipeline(rep.eng, p.sz.cache, &t.totals))
		}
	}
	// The write-path triples double as the timed set-up layers; a read-only
	// workload builds (and drops) one for the timings alone.
	n := 1
	if p.wl.writes {
		n = numTenants
	}
	for tenant := 0; tenant < n; tenant++ {
		tr, err := buildTriple(p, tenant, &t.builds)
		if err != nil {
			return t, err
		}
		if tenant == 0 {
			if err := timeRank(p, tr, &t.builds); err != nil {
				return t, err
			}
		}
		if p.wl.writes {
			t.w = append(t.w, tr)
		}
	}
	return t, nil
}

func (t *tracer) close() {
	if t.front != nil {
		t.front.c.close()
	}
	if t.f != nil {
		t.f.discard()
	}
	for _, e := range t.e {
		if err := e.ts.Close(); err != nil {
			stderrLog("close replica WAL: %v", err)
		}
	}
	if t.cfs != nil {
		if err := t.cfs.RemoveAll("."); err != nil {
			stderrLog("remove replica data dir: %v", err)
		}
	}
}

// timeHandler wraps a node's handler so that the call into the tenancy
// layer is timed inside the very request the front span times.
func (t *tracer) timeHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var s stage
		s.time(func() { h.ServeHTTP(w, r) })
		t.handlerMu.Lock()
		t.handler = s
		t.handlerMu.Unlock()
	})
}

// emit records one timed call (or one stage's summed calls) as a span and
// returns its ID.
func (t *tracer) emit(opID, parent int, name string, s stage) int {
	id := t.nextID
	t.nextID++
	s0 := s.first.Sub(t.start).Nanoseconds()
	calls := s.calls
	if calls == 1 {
		calls = 0
	}
	t.spans = append(t.spans, span{Op: opID, ID: id, Parent: parent, Name: name, Start: s0, End: s0 + s.busy.Nanoseconds(), Calls: calls})
	return id
}

// replay runs the traced client: an untimed warm-up prefix, then the traced
// ops, each on F, E and K in turn. It runs with one P, so that a layer's
// wall time is its busy time: with more, the engine would spread one
// query's summaries over idle cores that the measured run's other clients
// keep busy.
func (t *tracer) replay() error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	warm, n := t.p.sz.scaled(t.p.wl.traceWarm, 4), t.p.sz.scaled(t.p.wl.traceOps, 20)
	ops := t.p.ops[0]
	if warm+n > len(ops) {
		return fmt.Errorf("traced replay wants %d ops, client 0 has %d", warm+n, len(ops))
	}
	t.start = time.Now()
	for i, o := range ops[:warm+n] {
		if i == warm {
			// The pipeline totals count traced ops only.
			t.totals = newTotals()
		}
		if err := t.step(i-warm, o); err != nil {
			return fmt.Errorf("traced op %d: %w", i, err)
		}
	}
	return nil
}

// step runs one op on every replica; opID < 0 is warm-up (no spans kept).
func (t *tracer) step(opID int, o op) error {
	traced := opID >= 0
	var (
		front, engine stage
		ok, pagedF    bool
		body          []byte
	)
	front.time(func() { ok, pagedF, body = t.front.issue(o) })
	if !ok {
		return fmt.Errorf("front: %s failed: %s", o, body)
	}
	respBytes := len(body)
	t.handlerMu.Lock()
	node := t.handler
	t.handlerMu.Unlock()
	e := t.e[o.tenant]
	if o.w != nil {
		return t.stepWrite(opID, o, e, front, node)
	}

	req := o.q.request(t.p.tenants[o.tenant])
	req.Pool = t.pool
	pagedE := o.cursor && e.cursor != ""
	if pagedE {
		req.Cursor = e.cursor
	}
	if pagedE != pagedF {
		return fmt.Errorf("%s: replicas diverged (front paged=%v, engine paged=%v)", o, pagedF, pagedE)
	}
	before, _ := e.eng.SummaryCacheStats()
	var (
		cursor string
		stats  sizelos.QueryStats
		err    error
	)
	engine.time(func() { _, cursor, stats, err = e.eng.QueryPage(req) })
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if o.keep {
		e.cursor = cursor
	}
	after, _ := e.eng.SummaryCacheStats()

	var st readStages
	hitsBefore := t.totals.hits
	if t.k != nil {
		if err := t.k[o.tenant].run(o.q, pagedE, &st); err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
		if uint64(t.totals.hits-hitsBefore) != after.Hits-before.Hits {
			t.divergent++
		}
	}
	if !traced {
		return nil
	}
	eid := t.emitOp(opID, &t.reads, front, node, engine)
	if t.k != nil {
		st.each(func(name string, s *stage) {
			if s.calls > 0 {
				t.emit(opID, eid, name, *s)
			}
			t.reads.stages[name] = append(t.reads.stages[name], s.busy)
		})
	}
	t.respBytes += respBytes
	t.matches += stats.Matches
	t.summaries += stats.Summaries
	return nil
}

// emitOp records the front > node > engine chain of one op and returns the
// engine span's ID.
func (t *tracer) emitOp(opID int, figures *opFigures, front, node, engine stage) int {
	fid := t.emit(opID, -1, "front", front)
	nid := t.emit(opID, fid, "node", node)
	figures.add(front.busy, node.busy, engine.busy)
	return t.emit(opID, nid, "engine", engine)
}

func (t *tracer) stepWrite(opID int, o op, e *engineReplica, front, node stage) error {
	var (
		st     writeStages
		engine stage
		res    sizelos.MutationResult
		err    error
	)
	t.cfs.reset()
	engine.time(func() { res, err = e.eng.Mutate(o.w.batch()) })
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	st.wal = stage{first: t.cfs.first, busy: t.cfs.busy, calls: 1}
	if err := t.w[o.tenant].apply(o.w, &st); err != nil {
		return fmt.Errorf("triple: %w", err)
	}
	if opID < 0 {
		return nil
	}
	figures := &t.writes
	if o.w.rerank {
		figures = &t.reranks
	}
	eid := t.emitOp(opID, figures, front, node, engine)
	st.each(func(name string, s *stage) {
		t.emit(opID, eid, name, *s)
		figures.stages[name] = append(figures.stages[name], s.busy)
	})
	t.walBytes += t.cfs.bytes
	t.walSyncs += t.cfs.syncs
	for _, rs := range res.RerankStats {
		t.rerank.settings++
		t.rerank.pushes += rs.Pushes
		t.rerank.updates += rs.Updates
		t.rerank.rounds += rs.Rounds
		if rs.FallbackTaken {
			t.rerank.fallbacks++
		}
		if rs.Accelerated {
			t.rerank.accelerated++
		}
	}
	return nil
}

// restart closes tenant 0's engine replica, recovers it from its WAL and
// snapshots it: the restart cost after this workload's writes.
func (t *tracer) restart() (recover time.Duration, replayed int, snapshot time.Duration, snapshotBytes int64, err error) {
	old := t.e[0]
	if err := old.ts.Close(); err != nil {
		return 0, 0, 0, 0, err
	}
	store, err := durable.Open(t.cfs, durable.Options{})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	seed := t.p.tenantSeeds[0]
	rep, info, took, err := openReplica(store, t.p, 0, func() (*sizelos.Engine, error) {
		return openDataset(t.p.sz)(t.p.wl.dataset, seed)
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	t.e[0] = rep
	t.cfs.reset()
	t0 := time.Now()
	if _, err := rep.ts.Snapshot(rep.eng); err != nil {
		return took, info.Replayed, 0, 0, err
	}
	return took, info.Replayed, time.Since(t0), t.cfs.bytes, nil
}

func sum(ds []time.Duration) (total time.Duration) {
	for _, d := range ds {
		total += d
	}
	return total
}

// share is part/whole, 0 when there is no whole.
func share(part, whole time.Duration) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// metrics derives the span-based per-layer metrics from the traced ops.
func (t *tracer) metrics(out map[string]float64) {
	diffs := func(a, b []time.Duration) []time.Duration {
		d := make([]time.Duration, len(a))
		for i := range a {
			d[i] = a[i] - b[i]
		}
		return d
	}
	all := opFigures{}
	for _, f := range []*opFigures{&t.reads, &t.writes, &t.reranks} {
		all.front, all.node, all.engine = append(all.front, f.front...), append(all.node, f.node...), append(all.engine, f.engine...)
	}
	nReads := len(t.reads.front)
	out["router.hop_us"] = us(medianDuration(diffs(all.front, all.node)))
	out["tenancy.http_us"] = us(medianDuration(diffs(all.node, all.engine)))
	out["tenancy.resp_bytes"] = mean(float64(t.respBytes), nReads)
	out["engine.query_us"] = us(medianDuration(t.reads.engine))
	out["engine.matches_per_query"] = mean(float64(t.matches), nReads)
	out["engine.summaries_per_query"] = mean(float64(t.summaries), nReads)
	out["keyword.stream_us"] = us(medianDuration(t.reads.stages["keyword"]))

	self, fits := selfTimes(t.spans)
	var engineSelf []time.Duration
	fit, ops := 0, 0
	opFits := make(map[int]bool)
	for _, s := range t.spans {
		if s.Name == "engine" && len(t.k) > 0 {
			engineSelf = append(engineSelf, self[s.ID])
		}
		if _, seen := opFits[s.Op]; !seen {
			opFits[s.Op] = true
		}
		if !fits[s.ID] {
			opFits[s.Op] = false
		}
	}
	for _, ok := range opFits {
		ops++
		if ok {
			fit++
		}
	}
	out["engine.query_self_us"] = us(medianDuration(engineSelf))
	out["trace.fit_ratio"] = mean(float64(fit), ops)

	tot := &t.totals
	out["keyword.postings_per_query"] = mean(float64(tot.postings), tot.queries)
	out["sizel.prelim_us"] = mean(us(tot.prelim), tot.summaries)
	out["sizel.prelim_accesses"] = mean(float64(tot.accesses), tot.summaries)
	out["sizel.prelim_extracted"] = mean(float64(tot.extracted), tot.summaries)
	out["sizel.ac1_skips"] = mean(float64(tot.ac1), tot.summaries)
	out["sizel.ac2_topl"] = mean(float64(tot.ac2), tot.summaries)
	out["ostree.render_us"] = mean(us(tot.render), tot.summaries)
	for algo, name := range map[string]string{"top-path": "sizel.toppath_us", "bottom-up": "sizel.bottomup_us", "dp": "sizel.dp_us"} {
		out[name] = mean(us(tot.algoTime[algo]), tot.algoCalls[algo])
	}
	out["sizel.toppath_quality"] = mean(tot.topPathQuality, tot.qualityN)
	out["sizel.bottomup_quality"] = mean(tot.bottomUpQuality, tot.qualityN)

	summary := sum(t.reads.stages["prelim"]) + sum(t.reads.stages["select"]) + sum(t.reads.stages["render"])
	readFront := sum(t.reads.front)
	out["trace.summary_share"] = share(summary, readFront)
	out["trace.http_share"] = share(readFront-sum(t.reads.engine), readFront)

	nWrites := len(t.writes.front) + len(t.reranks.front)
	out["engine.mutate_us"] = us(medianDuration(t.writes.engine))
	out["engine.mutate_rerank_us"] = us(medianDuration(t.reranks.engine))
	stage := func(name string) []time.Duration {
		return append(append([]time.Duration(nil), t.writes.stages[name]...), t.reranks.stages[name]...)
	}
	out["relational.apply_us"] = us(medianDuration(stage("relational")))
	out["keyword.apply_us"] = us(medianDuration(stage("keyword")))
	out["datagraph.apply_us"] = us(medianDuration(stage("datagraph")))
	out["durable.wal_append_us"] = us(medianDuration(stage("wal")))
	out["durable.wal_bytes_per_mutation"] = mean(float64(t.walBytes), nWrites)
	out["durable.fsyncs_per_mutation"] = mean(float64(t.walSyncs), nWrites)
	nReranks := len(t.reranks.front)
	out["rank.pushes_per_rerank"] = mean(float64(t.rerank.pushes), nReranks)
	out["rank.updates_per_rerank"] = mean(float64(t.rerank.updates), nReranks)
	out["rank.rounds_per_rerank"] = mean(float64(t.rerank.rounds), nReranks)
	out["rank.fallback_ratio"] = mean(float64(t.rerank.fallbacks), t.rerank.settings)
	out["rank.accelerated_ratio"] = mean(float64(t.rerank.accelerated), t.rerank.settings)
	out["trace.write_engine_share"] = share(sum(t.writes.engine)+sum(t.reranks.engine), sum(t.writes.front)+sum(t.reranks.front))

	out["datagen.generate_ms"] = t.builds.generate
	out["datagraph.build_ms"] = t.builds.graph
	out["keyword.build_ms"] = t.builds.index
	out["rank.compile_ms"] = t.builds.compile
	out["rank.run_ms"] = t.builds.run
	out["engine.new_ms"] = t.builds.newEngine
	out["placement.owner_ns"] = timeOwner(t.p.tenants)
}

// traceFile is what trace.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Note     string `json:"note"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.p.wl.name+".json")
	data, err := json.Marshal(traceFile{
		Workload: t.p.wl.name, Seed: t.p.seed, Spans: t.spans,
		Note: "node lies inside front on the clock; engine and the stages below it are timed on lockstep replicas, so their intervals follow their parent's and containment is by duration (see benchmark/README.md)",
	})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
