package sizelos

// Multicore speedup assertions: the 4-shard index build targets >=1.5x over
// the same build on one worker, incremental graph maintenance >=3x over a
// rebuild per batch. These tests run only when SIZELOS_ASSERT_SPEEDUP is set
// AND at least 4 CPUs are usable — the CI GOMAXPROCS=4 leg — so ordinary
// local runs stay fast and never flake on small machines.

import (
	"os"
	"runtime"
	"testing"
	"time"

	"sizelos/internal/datagen"
	"sizelos/internal/datagraph"
	"sizelos/internal/keyword"
	"sizelos/internal/relational"
)

const speedupEnv = "SIZELOS_ASSERT_SPEEDUP"

func requireMulticoreAssert(t *testing.T) {
	t.Helper()
	if os.Getenv(speedupEnv) == "" {
		t.Skipf("set %s=1 to assert multicore speedups (CI GOMAXPROCS=4 leg)", speedupEnv)
	}
	if p := runtime.GOMAXPROCS(0); p < 4 {
		t.Skipf("GOMAXPROCS = %d; speedup assertions need >= 4", p)
	}
}

// bestOf reports the fastest of n runs of fn, the standard noise-resistant
// wall-clock measurement.
func bestOf(n int, fn func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < n; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// TestShardedIndexBuildSpeedupMulticore asserts the index's parallel build
// is >= 1.5x faster than the same 4-shard build on one worker
// (GOMAXPROCS=1, restored afterwards).
func TestShardedIndexBuildSpeedupMulticore(t *testing.T) {
	requireMulticoreAssert(t)
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 600
	cfg.Papers = 2500
	db, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	build := func() { keyword.BuildSharded(db, keyword.ShardedOptions{NumShards: 4}) }
	build() // warm caches before timing either variant
	procs := runtime.GOMAXPROCS(1)
	serial := bestOf(5, build)
	runtime.GOMAXPROCS(procs)
	parallel := bestOf(5, build)
	speedup := float64(serial) / float64(parallel)
	t.Logf("IndexBuild sharded4: one worker %v, GOMAXPROCS=%d %v, speedup %.2fx", serial, procs, parallel, speedup)
	if speedup < 1.5 {
		t.Errorf("sharded index build speedup %.2fx < 1.5x target", speedup)
	}
}

// TestIncrementalMutateSpeedupMulticore asserts the PR-4 acceptance bar:
// maintaining the data graph incrementally across a single-tuple mutation
// stream is >= 3x faster than rebuilding it per batch (the pre-incremental
// engine behavior). Runs in the same env-gated CI leg as the other speedup
// assertions; the margin is typically well over an order of magnitude, so
// 3x has huge headroom against runner noise.
func TestIncrementalMutateSpeedupMulticore(t *testing.T) {
	requireMulticoreAssert(t)
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 300
	cfg.Papers = 1200
	const streamLen = 40
	nextPK := int64(60_000_000)
	// One timed run = the mutation stream only; dataset generation and the
	// initial build happen outside the clock on a fresh store each time.
	stream := func(maintain func(db *relational.DB, g *datagraph.Graph, res relational.BatchResult) *datagraph.Graph) time.Duration {
		db, err := datagen.GenerateDBLP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, err := datagraph.Build(db)
		if err != nil {
			t.Fatal(err)
		}
		paper := db.Relation("Paper")
		start := time.Now()
		for i := 0; i < streamLen; i++ {
			nextPK++
			res, err := db.Apply(relational.Batch{Inserts: []relational.InsertOp{{
				Rel: "Cites",
				Tuple: relational.Tuple{
					relational.IntVal(nextPK),
					relational.IntVal(paper.PK(relational.TupleID(i % 1200))),
					relational.IntVal(paper.PK(relational.TupleID((i*7 + 13) % 1200))),
				},
			}}})
			if err != nil {
				t.Fatal(err)
			}
			g = maintain(db, g, res)
		}
		return time.Since(start)
	}
	incremental := func(db *relational.DB, g *datagraph.Graph, res relational.BatchResult) *datagraph.Graph {
		if err := g.Apply(res); err != nil {
			t.Fatal(err)
		}
		return g
	}
	rebuild := func(db *relational.DB, g *datagraph.Graph, res relational.BatchResult) *datagraph.Graph {
		ng, err := datagraph.Build(db)
		if err != nil {
			t.Fatal(err)
		}
		return ng
	}
	bestStream := func(maintain func(*relational.DB, *datagraph.Graph, relational.BatchResult) *datagraph.Graph) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			if d := stream(maintain); d < best {
				best = d
			}
		}
		return best
	}
	stream(incremental) // warm caches before timing either variant
	ti := bestStream(incremental)
	tr := bestStream(rebuild)
	speedup := float64(tr) / float64(ti)
	t.Logf("stream of %d single-tuple batches: incremental %v, rebuild %v, speedup %.1fx",
		streamLen, ti, tr, speedup)
	if speedup < 3.0 {
		t.Errorf("incremental graph maintenance speedup %.1fx < 3.0x target", speedup)
	}
}
