package main

import "runtime"

// sizes is everything that scales a run. There are two: full (what
// BENCHMARK.json measures) and smoke (what the tests drive in seconds).
// Workloads never branch on which one is active.
type sizes struct {
	dblpAuthors, dblpPapers int
	tpchSF                  float64
	// cache is the per-tenant summary-cache budget in entries; the hot and
	// cold workloads are defined relative to it.
	cache int
	// vocab is the hot_point / mixed_write read vocabulary per tenant.
	vocab int
	// setups is how many times the fleet is booted; setup_s reports the
	// median boot so one slow boot cannot move it.
	setups int
	// scale divides the warm-up and traced-replay op counts.
	scale int
}

var fullSizes = sizes{
	dblpAuthors: 12000, dblpPapers: 40000, // DBLP x10
	tpchSF: 0.004,
	cache:  2048,
	vocab:  64,
	setups: 3,
	scale:  1,
}

var smokeSizes = sizes{
	dblpAuthors: 600, dblpPapers: 1600,
	tpchSF: 0.0004,
	cache:  32,
	vocab:  2,
	setups: 1,
	scale:  10,
}

const (
	numTenants = 3
	// The measured phase is cut into numWindows windows and the metrics are
	// computed over the keptWindows fastest (see windowed).
	numWindows  = 8
	keptWindows = 4
	// sampleEvery is the oracle's stride: a client's first read response
	// and every sampleEvery-th after it are kept and later compared with
	// the reference engine.
	sampleEvery = 100
	// pageLimit is the limit= of every /search and the k= of every /ranked.
	pageLimit = 10
	hotL      = 15
)

// clients is the closed-loop client count: callers of this API wait for
// their reply, so each client keeps one request in flight on its own
// connection.
func clients() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// workload is one traffic mix. The op counts are per client and at scale 1;
// ratePerSec is how many ops are generated per client and measured second:
// the sequence is generated up front and must outlast the run, so it is a
// few times what one client can issue.
type workload struct {
	name, why  string
	dataset    string // "dblp" or "tpch"
	ratePerSec int
	warmOps    int
	// traceWarm and traceOps size the one-client traced replay.
	traceWarm, traceOps int
	// writes marks the workload whose acked-token ledger and restart
	// oracle run instead of the reference-engine oracle.
	writes bool
}

var workloads = []workload{
	{
		name: "hot_point", dataset: "dblp",
		why:        "64-name Zipf vocabulary fits a third of the summary cache: time is router hop, HTTP layer and posting intersection",
		ratePerSec: 10000, warmOps: 4000, traceWarm: 3000, traceOps: 5000,
	},
	{
		name: "cold_summary", dataset: "dblp",
		why:        "summary keys exceed 8x the cache: PrelimL, the three size-l algorithms and Render do the work",
		ratePerSec: 4000, warmOps: 600, traceWarm: 300, traceOps: 2000,
	},
	{
		name: "ranked_scan", dataset: "tpch",
		why:        "/ranked materialises every candidate on TPC-H: size-l code used as a scan, not a point lookup",
		ratePerSec: 400, warmOps: 20, traceWarm: 10, traceOps: 100,
	},
	{
		name: "mixed_write", dataset: "dblp", writes: true,
		why:        "hot reads with 20% durable write batches: epoch invalidation, the engine write lock, WAL and re-rank",
		ratePerSec: 5000, warmOps: 1000, traceWarm: 300, traceOps: 1500,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scaled returns n divided by the size scale, at least min.
func (s sizes) scaled(n, min int) int {
	if n /= s.scale; n < min {
		return min
	}
	return n
}

// metricDef describes one reported metric; BENCHMARK.json lists the same
// names, units, directions and bounds (a test keeps the two in step).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user or operator of the fleet sees. The bound
// is the share of the parent's median a change may lose before it counts
// as a regression. The bounds are as wide as the contract allows because
// the machine needs them: README.md, "How steady".
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.25},
}

// perLayer are the single-layer metrics; the prefix is the module name.
// README.md says which end-to-end metric each should move on which
// workload.
var perLayer = []metricDef{
	{Name: "router.hop_us", Unit: "us", Better: "lower"},
	{Name: "placement.owner_ns", Unit: "ns", Better: "lower"},
	{Name: "tenancy.http_us", Unit: "us", Better: "lower"},
	{Name: "tenancy.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "engine.query_us", Unit: "us", Better: "lower"},
	{Name: "engine.query_self_us", Unit: "us", Better: "lower"},
	{Name: "engine.matches_per_query", Unit: "count", Better: "lower"},
	{Name: "engine.summaries_per_query", Unit: "count", Better: "lower"},
	{Name: "engine.stream_invalidated", Unit: "count", Better: "lower"},
	{Name: "keyword.stream_us", Unit: "us", Better: "lower"},
	{Name: "keyword.postings_per_query", Unit: "count", Better: "lower"},
	{Name: "keyword.apply_us", Unit: "us", Better: "lower"},
	{Name: "searchexec.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "searchexec.pool_wait_us_per_op", Unit: "us", Better: "lower"},
	{Name: "sizel.prelim_us", Unit: "us", Better: "lower"},
	{Name: "sizel.prelim_accesses", Unit: "count", Better: "lower"},
	{Name: "sizel.prelim_extracted", Unit: "count", Better: "lower"},
	{Name: "sizel.ac1_skips", Unit: "count", Better: "higher"},
	{Name: "sizel.ac2_topl", Unit: "count", Better: "higher"},
	{Name: "sizel.toppath_us", Unit: "us", Better: "lower"},
	{Name: "sizel.bottomup_us", Unit: "us", Better: "lower"},
	{Name: "sizel.dp_us", Unit: "us", Better: "lower"},
	{Name: "sizel.toppath_quality", Unit: "ratio", Better: "higher"},
	{Name: "sizel.bottomup_quality", Unit: "ratio", Better: "higher"},
	{Name: "ostree.render_us", Unit: "us", Better: "lower"},
	{Name: "engine.mutate_us", Unit: "us", Better: "lower"},
	{Name: "engine.mutate_rerank_us", Unit: "us", Better: "lower"},
	{Name: "relational.apply_us", Unit: "us", Better: "lower"},
	{Name: "datagraph.apply_us", Unit: "us", Better: "lower"},
	{Name: "durable.wal_append_us", Unit: "us", Better: "lower"},
	{Name: "durable.wal_bytes_per_mutation", Unit: "B", Better: "lower"},
	{Name: "durable.fsyncs_per_mutation", Unit: "count", Better: "lower"},
	{Name: "rank.pushes_per_rerank", Unit: "count", Better: "lower"},
	{Name: "rank.updates_per_rerank", Unit: "count", Better: "lower"},
	{Name: "rank.rounds_per_rerank", Unit: "count", Better: "lower"},
	{Name: "rank.fallback_ratio", Unit: "ratio", Better: "lower"},
	{Name: "rank.accelerated_ratio", Unit: "ratio", Better: "lower"},
	{Name: "durable.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "durable.replayed_records", Unit: "count", Better: "lower"},
	{Name: "durable.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "durable.snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "datagen.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.new_ms", Unit: "ms", Better: "lower"},
	{Name: "keyword.build_ms", Unit: "ms", Better: "lower"},
	{Name: "datagraph.build_ms", Unit: "ms", Better: "lower"},
	{Name: "rank.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "rank.run_ms", Unit: "ms", Better: "lower"},
	{Name: "process.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "process.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "process.host_slowdown", Unit: "ratio", Better: "lower"},
	{Name: "front.read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "front.write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "front.write_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "front.error_ratio", Unit: "ratio", Better: "lower"},
	{Name: "front.window_spread", Unit: "ratio", Better: "lower"},
	{Name: "trace.front_p50_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.fit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "trace.summary_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.http_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.write_engine_share", Unit: "ratio", Better: "lower"},
}
