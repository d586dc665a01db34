package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestSameSeedSameOps(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		a, err := generate(wl, smokeSizes, 3, 2, 1)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		b, err := generate(wl, smokeSizes, 3, 2, 1)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		c, err := generate(wl, smokeSizes, 4, 2, 1)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if !reflect.DeepEqual(a.ops, b.ops) || a.digest() != b.digest() {
			t.Errorf("%s: seed 3 generated two different op sequences", wl.name)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 3 and 4 generated the same op sequence", wl.name)
		}
	}
}

func TestInputPropertyChecks(t *testing.T) {
	hot, cold, mixed := findWorkload("hot_point"), findWorkload("cold_summary"), findWorkload("mixed_write")
	for _, tc := range []struct {
		name string
		wl   *workload
		p    properties
		ok   bool
	}{
		{"hot fits", hot, properties{keysPerCache: []float64{0.3, 0.5}, ops: 10}, true},
		{"hot too big", hot, properties{keysPerCache: []float64{0.3, 0.51}, ops: 10}, false},
		{"hot with a write", hot, properties{keysPerCache: []float64{0.3}, ops: 10, writes: 1}, false},
		{"cold defeats cache", cold, properties{keysPerCache: []float64{8, 30}, ops: 10}, true},
		{"cold too small", cold, properties{keysPerCache: []float64{7.9, 30}, ops: 10}, false},
		{"mix exact", mixed, properties{ops: 1000, writes: 200, reranks: 20, deletes: 50}, true},
		{"mix write share off", mixed, properties{ops: 1000, writes: 215, reranks: 21, deletes: 54}, false},
		{"mix rerank share off", mixed, properties{ops: 1000, writes: 200, reranks: 23, deletes: 50}, false},
	} {
		if err := tc.p.check(tc.wl); (err == nil) != tc.ok {
			t.Errorf("%s: check = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestPercentileArithmetic(t *testing.T) {
	ds := make([]time.Duration, 200)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	for p, want := range map[int]time.Duration{50: 100 * time.Millisecond, 95: 190 * time.Millisecond, 99: 198 * time.Millisecond, 100: 200 * time.Millisecond} {
		if got := percentile(ds, p); got != want {
			t.Errorf("p%d of 1..200 ms = %v, want %v", p, got, want)
		}
	}
	if percentile(nil, 95) != 0 {
		t.Error("percentile of nothing is not 0")
	}
	// p95 of 200 samples leaves exactly ten beyond it; of 199, nine.
	for _, tc := range []struct {
		n, p int
		want bool
	}{{200, 95, true}, {199, 95, false}, {1000, 99, true}, {999, 99, false}, {20, 50, true}, {19, 50, false}} {
		if got := supported(tc.n, tc.p); got != tc.want {
			t.Errorf("supported(%d, p%d) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
	if got := median([]float64{5, 1, 9, 3, 7}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestQuietWindows(t *testing.T) {
	// Eight one-second windows. Five complete 200 reads of 0.01..2 ms each;
	// windows 1, 2 and 5 stall: 100 reads of 50 ms. The stalls are dropped
	// with the slower half of the run, so they move no result.
	const phase = numWindows * time.Second
	var samples []sample
	for w := 0; w < numWindows; w++ {
		stalled := w == 1 || w == 2 || w == 5
		for i := 0; i < 200; i++ {
			d := time.Duration(i+1) * 10 * time.Microsecond
			if stalled {
				if i >= 100 {
					break
				}
				d = 50 * time.Millisecond
			}
			samples = append(samples, sample{at: time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond, dur: d, ok: true})
		}
	}
	counts, quiet := quietWindows(samples, phase)
	if want := []int{200, 100, 100, 200, 200, 100, 200, 200}; !reflect.DeepEqual(counts, want) {
		t.Fatalf("counts = %v, want %v", counts, want)
	}
	// Five windows tie at 200; the four earliest are kept.
	if want := []bool{true, false, false, true, true, false, true, false}; !reflect.DeepEqual(quiet, want) {
		t.Fatalf("quiet = %v, want %v", quiet, want)
	}
	all := func(sample) bool { return true }
	p95 := latencyOver(samples, phase, quiet, 95, all)
	if p95.Samples != 800 || math.Abs(p95.Value-1.9) > 1e-9 || p95.Windows[2] != 50 {
		t.Errorf("p95 = %+v, want 1.9 over 800 samples with window 2 at 50", p95)
	}
	m := measured{samples: samples, phase: phase, cpu: make([]time.Duration, numWindows+1)}
	for w := range m.cpu {
		m.cpu[w] = time.Duration(w) * time.Second // one CPU-second a window
	}
	e2e, _, slowdown, attempted, failed := m.endToEndMetrics()
	if attempted != len(samples) || failed != 0 || slowdown != 1 {
		t.Errorf("attempted %d failed %d slowdown %v", attempted, failed, slowdown)
	}
	if got := e2e["ops_per_s"]; got.Value != 200 || got.Samples != 800 || got.Windows[1] != 100 {
		t.Errorf("ops_per_s = %+v, want 200 from 800 ops", got)
	}
	if got := e2e["cpu_ms_per_op"]; got.Value != 5 || got.Windows[1] != 10 {
		t.Errorf("cpu_ms_per_op = %+v, want 5 (10 in a stalled window)", got)
	}
	// A probe that found the machine at half the reference speed in the kept
	// windows (and slower still in a dropped one) halves the times and
	// doubles the rate; what the clock read stays beside them.
	m.start = time.Unix(1000, 0)
	m.probe = &probe{}
	for w := 0; w < numWindows; w++ {
		took := 2 * probeRef
		if w == 2 {
			took = 10 * probeRef
		}
		for i := 0; i < 10; i++ {
			at := m.start.Add(time.Duration(w)*time.Second + time.Duration(i)*50*time.Millisecond)
			m.probe.samples = append(m.probe.samples, probeSample{at: at, took: took})
		}
	}
	e2e, _, slowdown, _, _ = m.endToEndMetrics()
	if slowdown != 2 {
		t.Errorf("slowdown = %v, want 2", slowdown)
	}
	if got := e2e["ops_per_s"]; got.Value != 400 || got.Raw != 200 {
		t.Errorf("ops_per_s at reference speed = %+v, want 400 (clock 200)", got)
	}
	if got := e2e["read_p95_ms"]; math.Abs(got.Value-0.95) > 1e-9 || math.Abs(got.Raw-1.9) > 1e-9 {
		t.Errorf("read_p95_ms at reference speed = %+v, want 0.95 (clock 1.9)", got)
	}
	if got := e2e["cpu_ms_per_op"]; got.Value != 2.5 {
		t.Errorf("cpu_ms_per_op at reference speed = %+v, want 2.5", got)
	}
	// A request still in flight when the phase ends belongs to no window.
	late := sample{at: phase - time.Millisecond, dur: time.Second, ok: true}
	if w := windowOf(late, phase); w != -1 {
		t.Errorf("window of a request that outlives the phase = %d, want -1", w)
	}
	// 199 kept samples leave nine beyond p95: the percentile is read off the
	// whole phase, stalls included.
	var few []sample
	for w := 0; w < numWindows; w++ {
		n := 49
		if w < keptWindows {
			n = 50
		}
		for i := 0; i < n; i++ {
			few = append(few, sample{at: time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond, dur: time.Duration(w*100+i+1) * time.Microsecond, ok: true})
		}
	}
	_, quiet = quietWindows(few, phase)
	if got := latencyOver(few, phase, quiet, 95, all); got.Samples != 200 {
		t.Errorf("p95 over 200 kept samples used %d", got.Samples)
	}
	if got := latencyOver(few[1:], phase, quiet, 95, all); got.Samples != len(few)-1 {
		t.Errorf("p95 over 199 kept samples used %d, want the whole phase (%d)", got.Samples, len(few)-1)
	}
	// Failed requests carry no latency and complete no op.
	few[0].ok = false
	if counts, _ := quietWindows(few, phase); counts[0] != 49 {
		t.Errorf("window 0 counts %d ops, want 49", counts[0])
	}
}

func TestProbe(t *testing.T) {
	// The mean of the fastest nine tenths: one interrupted sample in ten
	// does not count.
	p := &probe{}
	t0 := time.Unix(0, 0)
	for i := 0; i < 20; i++ {
		// 100, 120, 100, ... and two of the 120s interrupted.
		took := time.Duration(100+i%2*20) * time.Microsecond
		if i == 7 || i == 13 {
			took = 5 * time.Millisecond
		}
		p.samples = append(p.samples, probeSample{at: t0.Add(time.Duration(i) * time.Second), took: took})
	}
	all := func(time.Time) bool { return true }
	if got, want := p.took(all), (10*100+8*120)*time.Microsecond/18; got != want {
		t.Errorf("took = %v, want %v", got, want)
	}
	first := func(at time.Time) bool { return at.Before(t0.Add(2 * time.Second)) }
	if got := p.slowdown(first); math.Abs(got-110.0/190) > 1e-9 {
		t.Errorf("slowdown over the first two samples = %v, want 110/190", got)
	}
	if got := p.slowdown(func(time.Time) bool { return false }); got != 1 {
		t.Errorf("slowdown without samples = %v, want 1", got)
	}
	// A live probe takes samples until it is stopped, and stops twice.
	live := startProbe()
	time.Sleep(5 * probeEvery)
	live.stop()
	live.stop()
	if n := len(live.samples); n < 2 {
		t.Errorf("a probe left running for %v took %d samples", 5*probeEvery, n)
	}
	if got := live.took(all); got <= 0 {
		t.Errorf("live probe took %v", got)
	}
}

// TestRankedDeal checks what rankedOps promises: every hand of twelve holds
// three Customer and one Supplier scan per tenant, and every five l values
// dealt in a row to a relation hold one of each decade.
func TestRankedDeal(t *testing.T) {
	p, err := generate(findWorkload("ranked_scan"), smokeSizes, 5, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ops := p.ops[0]
	for h := 0; h+12 <= len(ops); h += 12 {
		var customer, supplier [numTenants]int
		for _, o := range ops[h : h+12] {
			if o.q.rel == "Supplier" {
				supplier[o.tenant]++
			} else {
				customer[o.tenant]++
			}
		}
		if customer != [numTenants]int{3, 3, 3} || supplier != [numTenants]int{1, 1, 1} {
			t.Fatalf("hand at %d: %v Customer and %v Supplier scans per tenant", h, customer, supplier)
		}
	}
	byRel := map[string][]int{}
	for _, o := range ops {
		byRel[o.q.rel] = append(byRel[o.q.rel], o.q.l)
	}
	for rel, ls := range byRel {
		for i := 0; i+5 <= len(ls); i += 5 {
			var decades [5]bool
			for _, l := range ls[i : i+5] {
				if l < 5 || l > 54 {
					t.Fatalf("%s: l = %d", rel, l)
				}
				decades[(l-5)/10] = true
			}
			if decades != [5]bool{true, true, true, true, true} {
				t.Fatalf("%s: l values %v at %d miss a decade", rel, ls[i:i+5], i)
			}
		}
		seen := map[int]bool{}
		for _, l := range ls[:min(50, len(ls))] {
			if seen[l] {
				t.Fatalf("%s: l = %d dealt twice in one cycle", rel, l)
			}
			seen[l] = true
		}
	}
}

func TestIQRShareMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := iqrShare(vs); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want 1", got)
	}
	// statistics.quantiles([10, 11, 12, 13, 20], n=4) == [10.5, 12, 16.5].
	if got := iqrShare([]float64{13, 10, 20, 12, 11}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("iqrShare = %v, want 0.5", got)
	}
	if iqrShare([]float64{3}) != 0 || iqrShare(nil) != 0 {
		t.Error("iqrShare of fewer than two values is not 0")
	}
}

func TestSelfTimes(t *testing.T) {
	// One op: front 100 > node 70 > engine 40 > {keyword 10, prelim 25};
	// a second op whose engine (30) is shorter than its stages (20 + 15).
	spans := []span{
		{Op: 0, ID: 0, Parent: -1, Name: "front", Start: 0, End: 100},
		{Op: 0, ID: 1, Parent: 0, Name: "node", Start: 10, End: 80},
		{Op: 0, ID: 2, Parent: 1, Name: "engine", Start: 200, End: 240},
		{Op: 0, ID: 3, Parent: 2, Name: "keyword", Start: 300, End: 310},
		{Op: 0, ID: 4, Parent: 2, Name: "prelim", Start: 310, End: 335, Calls: 5},
		{Op: 1, ID: 5, Parent: -1, Name: "front", Start: 400, End: 500},
		{Op: 1, ID: 6, Parent: 5, Name: "engine", Start: 600, End: 630},
		{Op: 1, ID: 7, Parent: 6, Name: "keyword", Start: 700, End: 720},
		{Op: 1, ID: 8, Parent: 6, Name: "prelim", Start: 720, End: 735},
	}
	self, fits := selfTimes(spans)
	want := map[int]time.Duration{0: 30, 1: 30, 2: 5, 3: 10, 4: 25, 5: 70, 6: 0, 7: 20, 8: 15}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	for id, ok := range fits {
		if ok != (id != 6) {
			t.Errorf("span %d fits = %v", id, ok)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "read_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b side
		want verdict
	}{
		{"slower within bound", lower, side{1, 0.02}, side{1.09, 0.02}, within},
		{"slower beyond bound", lower, side{1, 0.02}, side{1.11, 0.02}, regression},
		{"faster", lower, side{1, 0.02}, side{0.5, 0.02}, within},
		{"throughput drop", higher, side{100, 0.02}, side{89, 0.02}, regression},
		{"throughput gain", higher, side{100, 0.02}, side{150, 0.02}, within},
		{"noisy baseline", lower, side{1, 0.3}, side{1.5, 0.02}, unresolved},
		{"noisy change", lower, side{1, 0.02}, side{1.5, 0.11}, unresolved},
	} {
		if _, got := judge(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	run := func(v float64, windows ...float64) *result {
		return &result{EndToEnd: map[string]windowed{"m": {Value: v, Windows: windows}}}
	}
	// One run: its own value, and the spread of its windows.
	one := summarize([]*result{run(5, 10, 11, 12, 13, 20)}, "m")
	if one.value != 5 || math.Abs(one.spread-0.5) > 1e-12 {
		t.Errorf("one run = %+v, want value 5 spread 0.5", one)
	}
	// Ten runs: the median, and the spread between the runs.
	var ten []*result
	for v := 1.0; v <= 10; v++ {
		ten = append(ten, run(v, 1, 1, 1, 1, 1))
	}
	if got := summarize(ten, "m"); got.value != 5.5 || math.Abs(got.spread-1) > 1e-12 {
		t.Errorf("ten runs = %+v, want value 5.5 spread 1", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the tables the runner
// reports from.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v, runner has %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the runner's table")
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, runner has %d", len(doc.Workloads), len(workloads))
	}
	for i, wl := range doc.Workloads {
		if wl.Name != workloads[i].name || wl.Why != workloads[i].why {
			t.Errorf("workload %d = %+v, runner has %s", i, wl, workloads[i].name)
		}
	}
	largest := 0.0
	for _, def := range endToEnd {
		largest = math.Max(largest, def.Bound)
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Bound != largest {
		t.Errorf("setup_s must carry the largest bound (%v)", largest)
	}
}

// TestSmoke drives all four workloads end to end at smoke size: generate,
// boot, warm up, measure, oracle, traced replay, result file, compare.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots fleets")
	}
	dir := t.TempDir()
	var results []*result
	for i := range workloads {
		wl := &workloads[i]
		res, err := runWorkload(wl, smokeSizes, 1, 1, true, time.Now(), dir)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed", wl.name, res.Failed, res.Attempted)
		}
		for _, def := range endToEnd {
			if v := res.EndToEnd[def.Name].Value; v <= 0 {
				t.Errorf("%s: %s = %v, want > 0", wl.name, def.Name, v)
			}
		}
		for _, def := range perLayer {
			if _, ok := res.PerLayer[def.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", wl.name, def.Name)
			}
		}
		if len(res.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics reported, table has %d", wl.name, len(res.PerLayer), len(perLayer))
		}
		if wl.writes {
			if res.Checks.Tokens == 0 || res.PerLayer["durable.replayed_records"] == 0 || res.PerLayer["front.write_p50_ms"] <= 0 {
				t.Errorf("%s: write path not exercised: %+v", wl.name, res.Checks)
			}
		} else if res.Checks.Compared == 0 {
			t.Errorf("%s: no response compared with the reference engine", wl.name)
		}
		if res.PerLayer["engine.query_us"] <= 0 || res.PerLayer["router.hop_us"] <= 0 {
			t.Errorf("%s: traced replay recorded no spans", wl.name)
		}
		if _, err := os.Stat(res.Checks.TraceFile); err != nil {
			t.Errorf("%s: trace file: %v", wl.name, err)
		}
		results = append(results, res)
	}
	a := filepath.Join(dir, "a.json")
	if err := writeJSON(a, results); err != nil {
		t.Fatal(err)
	}
	if err := compareFiles(a, a); err != nil {
		t.Errorf("a run compared with itself: %v", err)
	}
	results[0].Env.Seed = 2
	b := filepath.Join(dir, "b.json")
	if err := writeJSON(b, results); err != nil {
		t.Fatal(err)
	}
	if err := compareFiles(a, b); err == nil {
		t.Error("runs with different seeds were compared")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Errorf("data dir %s left behind", e.Name())
		}
	}
}
