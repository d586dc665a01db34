// Command benchmark is the repository's end-to-end benchmark: it boots an
// in-process three-node durable fleet behind the router, drives it closed
// loop with one of four workloads, checks the answers, and reports the
// end-to-end metrics of BENCHMARK.json; with -trace 1 it adds a traced run
// against lockstep replicas and reports the per-layer metrics instead.
// README.md in this directory describes the workloads, every metric and how
// they interact.
//
//	go run ./benchmark                          # all four workloads, traced
//	go run ./benchmark -workload hot_point      # one workload
//	go run ./benchmark -compare a.json b.json   # two result files
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// scratchDir holds everything a run writes: data dirs, traces, results. It
// is relative, so a run stays inside the directory it was started in.
const scratchDir = ".bench_build"

// processStart anchors setup_s: set-up is everything from process start to
// the end of the warm-up.
var processStart = time.Now()

// env is what two runs must share for their numbers to be comparable.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Smoke      bool   `json:"smoke,omitempty"`
	// OpsDigest identifies the generated op sequence; Generated is its
	// length over all clients.
	OpsDigest string `json:"ops_digest"`
	Generated int    `json:"generated_ops"`
}

// checks records what the run verified about its inputs and outputs.
type checks struct {
	KeysPerCache []float64 `json:"keys_per_cache"`
	WarmUpOps    int       `json:"warm_up_ops"`
	// BootsS are the fleet boots setup_s took the median of.
	BootsS []float64 `json:"boots_s"`
	// Compared is the number of read responses checked against the
	// reference engine; Tokens the acked writes re-read before and after
	// the restart.
	Compared       int     `json:"compared_responses"`
	Tokens         int     `json:"acked_tokens"`
	FleetRestartMs float64 `json:"fleet_restart_ms,omitempty"`
	TraceFile      string  `json:"trace_file,omitempty"`
	DivergentOps   int     `json:"trace_divergent_ops,omitempty"`
}

// result is one workload's outcome; -out writes it, -compare reads it.
type result struct {
	Workload  string              `json:"workload"`
	Env       env                 `json:"env"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	EndToEnd  map[string]windowed `json:"end_to_end"`
	PerLayer  map[string]float64  `json:"per_layer,omitempty"`
	Checks    checks              `json:"checks"`
}

// runWorkload runs one workload in this process: generate, boot, warm up,
// measure, check, and (traced) replay against the replicas.
func runWorkload(wl *workload, sz sizes, seed int64, seconds int, traced bool, started time.Time, scratch string) (res *result, err error) {
	// The probe samples the machine's speed from here to the end of the
	// measured phase; the replicas of a traced run work without it.
	pr := startProbe()
	defer pr.stop()
	nclients := clients()
	phaseStart := started
	phase := func(name string) {
		stderrLog("%s: %s took %.2fs", wl.name, name, time.Since(phaseStart).Seconds())
		phaseStart = time.Now()
	}
	p, err := generate(wl, sz, seed, nclients, seconds)
	if err != nil {
		return nil, err
	}
	p.scratch = scratch
	phase("generate")
	res = &result{Workload: wl.name, Env: env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: nclients,
		GoVersion: runtime.Version(), Seed: seed, Seconds: seconds, Smoke: sz.scale != 1,
		OpsDigest: p.digest(), Generated: p.props.ops,
	}}
	res.Checks.KeysPerCache = p.props.keysPerCache

	// Boot the fleet sz.setups times and keep the last: setup_s charges
	// the median boot, so that one slow boot does not move it.
	var (
		f     *fleet
		boots []float64
		total time.Duration
	)
	for i := 0; i < sz.setups; i++ {
		if f != nil {
			f.discard()
		}
		dir, err := newDataDir(scratch)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if f, err = bootFleet(dir, p, true, nil); err != nil {
			return nil, err
		}
		boots = append(boots, time.Since(t0).Seconds())
		total += time.Since(t0)
	}
	// live is the fleet to tear down on the way out; the write oracle
	// swaps in the restarted one.
	phase("boot")
	live := f
	defer func() {
		if live != nil {
			live.discard()
		}
	}()

	r := newRunner(p, f.front.url)
	defer r.close()
	if failed := r.warmUp(); failed > 0 {
		return nil, fmt.Errorf("%s: %d warm-up ops failed", wl.name, failed)
	}
	res.Checks.WarmUpOps = p.warm * nclients
	phase("warm-up")
	ready := time.Now()
	setup := (ready.Sub(started) - total).Seconds() + median(boots)
	setupSlowdown := pr.slowdown(func(at time.Time) bool { return at.Before(ready) })

	before, err := f.stats(p.tenants)
	if err != nil {
		return nil, err
	}
	m := r.measure(time.Duration(seconds)*time.Second, pr)
	pr.stop()
	after, err := f.stats(p.tenants)
	if err != nil {
		return nil, err
	}
	phase("measure")
	var (
		quiet    []bool
		slowdown float64
	)
	res.EndToEnd, quiet, slowdown, res.Attempted, res.Failed = m.endToEndMetrics()
	res.EndToEnd["setup_s"] = windowed{Value: setup / setupSlowdown, Raw: setup, Samples: len(boots)}
	res.Checks.BootsS = boots
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: no op completed in %ds", wl.name, seconds)
	}

	if wl.writes {
		var restarted *fleet
		var recovery time.Duration
		res.Checks.Tokens, restarted, recovery, err = checkWrites(p, r, f)
		if restarted != nil {
			// The abandoned fleet's WAL handles are still open; the data
			// dir now belongs to the restarted one.
			f.closeWALs()
			live = restarted
		}
		res.Checks.FleetRestartMs = ms(recovery)
	} else {
		res.Checks.Compared, err = checkReads(p, r)
	}
	if err != nil {
		return res, err
	}
	phase("oracle")
	if !traced {
		return res, nil
	}

	out := make(map[string]float64, len(perLayer))
	gone := 0
	for _, cs := range r.clients {
		gone += cs.gone
	}
	okOps := res.Attempted - res.Failed
	lookups := (after.hits - before.hits) + (after.misses - before.misses)
	out["searchexec.cache_hit_ratio"] = mean(float64(after.hits-before.hits), int(lookups))
	out["searchexec.pool_wait_us_per_op"] = mean(float64(after.poolWaitNs-before.poolWaitNs)/1e3, okOps)
	out["engine.stream_invalidated"] = float64(gone)
	out["process.allocs_per_op"] = mean(float64(m.after.Mallocs-m.before.Mallocs), okOps)
	out["process.alloc_bytes_per_op"] = mean(float64(m.after.TotalAlloc-m.before.TotalAlloc), okOps)
	out["process.gc_cycles"] = float64(m.after.NumGC - m.before.NumGC)
	out["process.gc_pause_ms"] = float64(m.after.PauseTotalNs-m.before.PauseTotalNs) / 1e6
	isRead := func(s sample) bool { return !s.write }
	isWrite := func(s sample) bool { return s.write }
	out["process.host_slowdown"] = slowdown
	out["front.read_p99_ms"] = latencyOver(m.samples, m.phase, quiet, 99, isRead).Raw / slowdown
	out["front.write_p50_ms"] = latencyOver(m.samples, m.phase, quiet, 50, isWrite).Raw / slowdown
	out["front.write_p95_ms"] = latencyOver(m.samples, m.phase, quiet, 95, isWrite).Raw / slowdown
	out["front.error_ratio"] = mean(float64(res.Failed), res.Attempted)
	// How far the windows, kept and dropped, spread in throughput: a change
	// that makes the program stall now and then shows here.
	out["front.window_spread"] = iqrShare(res.EndToEnd["ops_per_s"].Windows)

	// The measured fleet is done; the replicas take its place in memory.
	live.discard()
	live = nil
	t, err := newTracer(p)
	if err != nil {
		return res, fmt.Errorf("%s: build replicas: %w", wl.name, err)
	}
	defer t.close()
	phase("replicas")
	if err := t.replay(); err != nil {
		return res, err
	}
	phase("replay")
	t.metrics(out)
	recoverTook, replayed, snapTook, snapBytes, err := t.restart()
	if err != nil {
		return res, fmt.Errorf("%s: replica restart: %w", wl.name, err)
	}
	out["durable.recover_ms"] = ms(recoverTook)
	out["durable.replayed_records"] = float64(replayed)
	out["durable.snapshot_ms"] = ms(snapTook)
	out["durable.snapshot_bytes"] = float64(snapBytes)
	if p50 := res.EndToEnd["read_p50_ms"].Raw; p50 > 0 {
		out["trace.front_p50_ratio"] = ms(medianDuration(t.reads.front)) / p50
	}
	res.PerLayer = out
	res.Checks.DivergentOps = t.divergent
	if res.Checks.TraceFile, err = t.write(scratch); err != nil {
		return res, err
	}
	return res, nil
}

// reportLine is the last line of a run's standard output, in the shape the
// benchmark contract fixes.
type reportLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]reportValue `json:"metrics"`
}

type reportValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes every metric by name with its unit and sample count, then
// the report line: the end-to-end metrics, or the per-layer ones when the
// run was traced.
func (res *result) print(traced bool) error {
	fmt.Printf("workload %s  seed %d  %ds  %d clients  GOMAXPROCS %d  %s  ops %s\n",
		res.Workload, res.Env.Seed, res.Env.Seconds, res.Env.Clients, res.Env.GOMAXPROCS, res.Env.GoVersion, res.Env.OpsDigest)
	fmt.Printf("  attempted %d  failed %d  error_ratio %.6f  keys/cache %.2f  compared %d  tokens %d\n",
		res.Attempted, res.Failed, mean(float64(res.Failed), res.Attempted), res.Checks.KeysPerCache, res.Checks.Compared, res.Checks.Tokens)
	line := reportLine{Correct: true, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]reportValue)}
	for _, def := range endToEnd {
		w := res.EndToEnd[def.Name]
		fmt.Printf("  %-32s %14.4f %-6s n=%d", def.Name, w.Value, def.Unit, w.Samples)
		if w.Raw != 0 {
			fmt.Printf("  clock %.4f", w.Raw)
		}
		if len(w.Windows) > 0 {
			fmt.Printf("  windows %.4f", w.Windows)
		}
		fmt.Println()
		if !traced {
			line.Metrics[def.Name] = reportValue{w.Value, def.Unit}
		}
	}
	if traced {
		for _, def := range perLayer {
			v, ok := res.PerLayer[def.Name]
			if !ok {
				return fmt.Errorf("per-layer metric %s was not measured", def.Name)
			}
			fmt.Printf("  %-32s %14.4f %s\n", def.Name, v, def.Unit)
			line.Metrics[def.Name] = reportValue{v, def.Unit}
		}
		fmt.Printf("  trace %s  (%d ops where the pipeline's cache disagreed with the engine's)\n",
			res.Checks.TraceFile, res.Checks.DivergentOps)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll runs every workload, each run in a fresh process so that heap and
// GC state do not leak from one into the next, and gathers the results
// into one file for -compare. With runs > 1 a workload is run on that many
// consecutive seeds (the first one traced) and -compare takes medians.
func runAll(seed int64, seconds, runs int, smoke bool, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var results []*result
	for _, wl := range workloads {
		for i := 0; i < runs; i++ {
			part := filepath.Join(scratchDir, fmt.Sprintf("result-%s-%d.json", wl.name, i))
			args := []string{"-workload", wl.name, "-seed", fmt.Sprint(seed + int64(i)), "-seconds", fmt.Sprint(seconds), "-out", part}
			if i == 0 {
				args = append(args, "-trace", "1")
			}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			b, err := os.ReadFile(part)
			if err != nil {
				return err
			}
			var res result
			if err := json.Unmarshal(b, &res); err != nil {
				return fmt.Errorf("%s: %w", part, err)
			}
			results = append(results, &res)
		}
	}
	if err := writeJSON(out, results); err != nil {
		return err
	}
	fmt.Printf("%d runs of each of %d workloads done; results in %s\n", runs, len(workloads), out)
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload in this process (default: all four, each in a fresh process)")
		seed    = flag.Int64("seed", 1, "workload seed: datasets and op sequences derive from it")
		seconds = flag.Int("seconds", 14, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1: also run the traced replay and report the per-layer metrics")
		runs    = flag.Int("runs", 1, "without -workload: runs per workload, on consecutive seeds")
		smoke   = flag.Bool("smoke", false, "tiny datasets and op counts (what the tests run)")
		out     = flag.String("out", "", "write the full result as JSON to this file")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *runs, *trace == 1, *smoke, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, runs int, traced, smoke bool, out string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return errors.New("-compare wants two result files")
		}
		return compareFiles(args[0], args[1])
	}
	if seed < 1 || seconds < 1 || runs < 1 {
		return errors.New("-seed, -seconds and -runs must be at least 1")
	}
	if name == "" {
		if out == "" {
			out = filepath.Join(scratchDir, "results.json")
		}
		return runAll(seed, seconds, runs, smoke, out)
	}
	wl := findWorkload(name)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	sz := fullSizes
	if smoke {
		sz = smokeSizes
	}
	res, err := runWorkload(wl, sz, seed, seconds, traced, processStart, scratchDir)
	if err != nil {
		return err
	}
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			return err
		}
	}
	return res.print(traced)
}
