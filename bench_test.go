// Benchmarks regenerating the measurements behind every figure of the
// paper's evaluation (§6). One Benchmark family per figure:
//
//	Fig. 8  -> BenchmarkFig8Effectiveness (judge-panel evaluation cost)
//	Fig. 9  -> BenchmarkFig9Approximation  (method quality, reported as
//	           approx_pct metric per method)
//	Fig. 10 -> BenchmarkFig10SizeL         (size-l computation per method,
//	           complete vs prelim, small and large l)
//	Fig.10e -> BenchmarkFig10eScalability  (per-OS-size timing)
//	Fig.10f -> BenchmarkFig10fGeneration   (OS generation: data graph vs
//	           database joins; complete vs prelim-l)
//
// plus ablation benches for the design choices called out in DESIGN.md §6:
// the two avoidance conditions, the Top-Path champion cache, and the
// exponential brute-force wall that motivates DP.
package sizelos_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"sizelos"
	"sizelos/internal/datagen"
	"sizelos/internal/datagraph"
	"sizelos/internal/durable"
	"sizelos/internal/eval"
	"sizelos/internal/keyword"
	"sizelos/internal/mutgen"
	"sizelos/internal/ostree"
	"sizelos/internal/qos"
	"sizelos/internal/rank"
	"sizelos/internal/relational"
	"sizelos/internal/schemagraph"
	"sizelos/internal/sizel"
)

type benchEnv struct {
	dblp      *sizelos.Engine
	tpch      *sizelos.Engine
	dblpRoots []relational.TupleID
	tpchRoots []relational.TupleID
}

var (
	envOnce sync.Once
	env     *benchEnv
	envErr  error
)

func getEnv(b *testing.B) *benchEnv {
	b.Helper()
	envOnce.Do(func() {
		dcfg := datagen.DefaultDBLPConfig()
		dcfg.Authors = 600
		dcfg.Papers = 2500
		dblp, err := sizelos.OpenDBLP(dcfg)
		if err != nil {
			envErr = err
			return
		}
		tcfg := datagen.DefaultTPCHConfig()
		tcfg.ScaleFactor = 0.002
		tpch, err := sizelos.OpenTPCH(tcfg)
		if err != nil {
			envErr = err
			return
		}
		dblpRoots, err := eval.PickRoots(dblp, "Author", 5, 100, 7)
		if err != nil {
			envErr = err
			return
		}
		tpchRoots, err := eval.PickRoots(tpch, "Supplier", 5, 100, 7)
		if err != nil {
			envErr = err
			return
		}
		env = &benchEnv{dblp: dblp, tpch: tpch, dblpRoots: dblpRoots, tpchRoots: tpchRoots}
	})
	if envErr != nil {
		b.Fatalf("bench env: %v", envErr)
	}
	return env
}

func authorFixture(b *testing.B, l int) (ostree.Source, *schemagraph.GDS, relational.TupleID, *ostree.Tree, *ostree.Tree) {
	b.Helper()
	e := getEnv(b)
	scores, err := e.dblp.Scores(sizelos.DefaultSetting)
	if err != nil {
		b.Fatal(err)
	}
	gds, err := e.dblp.GDS("Author", sizelos.DefaultSetting)
	if err != nil {
		b.Fatal(err)
	}
	src := ostree.NewGraphSource(e.dblp.Graph(), scores)
	root := e.dblpRoots[0]
	complete, err := ostree.Generate(src, gds, root, ostree.GenOptions{MaxDepth: l - 1})
	if err != nil {
		b.Fatal(err)
	}
	prelim, _, err := sizel.PrelimL(src, gds, root, l, sizel.PrelimOptions{MaxDepth: l - 1})
	if err != nil {
		b.Fatal(err)
	}
	return src, gds, root, complete, prelim
}

// BenchmarkFig8Effectiveness measures one effectiveness cell: optimal
// size-l OS + judge panel + overlap, the unit of work behind Figure 8.
func BenchmarkFig8Effectiveness(b *testing.B) {
	e := getEnv(b)
	cfg := eval.DefaultJudgeConfig()
	cfg.Judges = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := eval.Effectiveness(e.dblp, "Author", e.dblpRoots[:1], []int{15}, []string{"GA1-d1"}, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Approximation runs the four greedy method/input combinations
// and reports their quality as custom approx_pct metrics (the y-axis of
// Figure 9), while timing the full per-l evaluation.
func BenchmarkFig9Approximation(b *testing.B) {
	for _, l := range []int{10, 50} {
		b.Run(fmt.Sprintf("l=%d", l), func(b *testing.B) {
			_, _, _, complete, prelim := authorFixture(b, l)
			opt, err := sizel.DP(context.Background(), complete, l)
			if err != nil {
				b.Fatal(err)
			}
			type m struct {
				name string
				run  func() (sizel.Result, error)
			}
			methods := []m{
				{"bu_complete", func() (sizel.Result, error) { return sizel.BottomUp(complete, l) }},
				{"bu_prelim", func() (sizel.Result, error) { return sizel.BottomUp(prelim, l) }},
				{"tp_complete", func() (sizel.Result, error) { return sizel.TopPath(complete, l, sizel.TopPathOptions{}) }},
				{"tp_prelim", func() (sizel.Result, error) { return sizel.TopPath(prelim, l, sizel.TopPathOptions{}) }},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, mm := range methods {
					res, err := mm.run()
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(100*res.Importance/opt.Importance, mm.name+"_approx_pct")
				}
			}
		})
	}
}

// BenchmarkFig10SizeL times each size-l algorithm on complete and prelim-l
// inputs: the series of Figures 10(a)-(d).
func BenchmarkFig10SizeL(b *testing.B) {
	for _, l := range []int{10, 50} {
		_, _, _, complete, prelim := authorFixture(b, l)
		for _, tc := range []struct {
			name string
			tree *ostree.Tree
		}{{"complete", complete}, {"prelim", prelim}} {
			b.Run(fmt.Sprintf("dp/l=%d/%s", l, tc.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sizel.DP(context.Background(), tc.tree, l); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("bottomup/l=%d/%s", l, tc.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sizel.BottomUp(tc.tree, l); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("toppath/l=%d/%s", l, tc.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sizel.TopPath(tc.tree, l, sizel.TopPathOptions{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	// The exact method at a large l, on the prelim-l OS a TPC-H Supplier
	// summary at algo=dp&l=1000 computes, built the way the engine builds it.
	e := getEnv(b)
	scores, err := e.tpch.Scores(sizelos.DefaultSetting)
	if err != nil {
		b.Fatal(err)
	}
	gds, err := e.tpch.GDS("Supplier", sizelos.DefaultSetting)
	if err != nil {
		b.Fatal(err)
	}
	const bigL = 1000
	supplier, _, err := sizel.PrelimL(ostree.NewGraphSource(e.tpch.Graph(), scores), gds, e.tpchRoots[0], bigL,
		sizel.PrelimOptions{MaxDepth: bigL - 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("dp/l=%d/supplier_prelim", bigL), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sizel.DP(context.Background(), supplier, bigL); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig10eScalability times Bottom-Up (the fastest method) on OSs of
// increasing size at fixed l=10, the x-axis of Figure 10(e).
func BenchmarkFig10eScalability(b *testing.B) {
	e := getEnv(b)
	scores, err := e.dblp.Scores(sizelos.DefaultSetting)
	if err != nil {
		b.Fatal(err)
	}
	gds, err := e.dblp.GDS("Author", sizelos.DefaultSetting)
	if err != nil {
		b.Fatal(err)
	}
	src := ostree.NewGraphSource(e.dblp.Graph(), scores)
	const l = 10
	for _, root := range e.dblpRoots {
		tree, err := ostree.Generate(src, gds, root, ostree.GenOptions{MaxDepth: l - 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("os=%d", tree.Len()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sizel.BottomUp(tree, l); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10fGeneration times OS generation per path: complete vs
// prelim-l, data graph vs database joins, on the largest workload (TPC-H
// Supplier) — the bar chart of Figure 10(f).
func BenchmarkFig10fGeneration(b *testing.B) {
	e := getEnv(b)
	scores, err := e.tpch.Scores(sizelos.DefaultSetting)
	if err != nil {
		b.Fatal(err)
	}
	gds, err := e.tpch.GDS("Supplier", sizelos.DefaultSetting)
	if err != nil {
		b.Fatal(err)
	}
	root := e.tpchRoots[0]
	const l = 10
	b.Run("complete/graph", func(b *testing.B) {
		src := ostree.NewGraphSource(e.tpch.Graph(), scores)
		for i := 0; i < b.N; i++ {
			if _, err := ostree.Generate(src, gds, root, ostree.GenOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("complete/db", func(b *testing.B) {
		src := ostree.NewDBSource(e.tpch.DB(), scores)
		for i := 0; i < b.N; i++ {
			if _, err := ostree.Generate(src, gds, root, ostree.GenOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prelim/graph", func(b *testing.B) {
		src := ostree.NewGraphSource(e.tpch.Graph(), scores)
		for i := 0; i < b.N; i++ {
			if _, _, err := sizel.PrelimL(src, gds, root, l, sizel.PrelimOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prelim/db", func(b *testing.B) {
		src := ostree.NewDBSource(e.tpch.DB(), scores)
		for i := 0; i < b.N; i++ {
			if _, _, err := sizel.PrelimL(src, gds, root, l, sizel.PrelimOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationAvoidance isolates the two avoidance conditions of the
// prelim-l generation (Algorithm 4): full pruning, each condition alone,
// and none (complete-OS-equivalent extraction).
func BenchmarkAblationAvoidance(b *testing.B) {
	e := getEnv(b)
	scores, err := e.dblp.Scores(sizelos.DefaultSetting)
	if err != nil {
		b.Fatal(err)
	}
	gds, err := e.dblp.GDS("Author", sizelos.DefaultSetting)
	if err != nil {
		b.Fatal(err)
	}
	src := ostree.NewGraphSource(e.dblp.Graph(), scores)
	root := e.dblpRoots[0]
	const l = 10
	cases := []struct {
		name string
		opts sizel.PrelimOptions
	}{
		{"both", sizel.PrelimOptions{}},
		{"ac1_only", sizel.PrelimOptions{DisableAC2: true}},
		{"ac2_only", sizel.PrelimOptions{DisableAC1: true}},
		{"none", sizel.PrelimOptions{DisableAC1: true, DisableAC2: true}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var extracted int
			for i := 0; i < b.N; i++ {
				tree, _, err := sizel.PrelimL(src, gds, root, l, tc.opts)
				if err != nil {
					b.Fatal(err)
				}
				extracted = tree.Len()
			}
			b.ReportMetric(float64(extracted), "tuples_extracted")
		})
	}
}

// BenchmarkAblationChampionCache compares Top-Path with and without the
// s(v) subtree-champion optimization (§5.2).
func BenchmarkAblationChampionCache(b *testing.B) {
	_, _, _, complete, _ := authorFixture(b, 50)
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sizel.TopPath(complete, 50, sizel.TopPathOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sizel.TopPath(complete, 50, sizel.TopPathOptions{NoChampionCache: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationBruteForceWall demonstrates the exponential baseline the
// paper dismisses (§3.3): brute force vs DP on a small OS truncation.
func BenchmarkAblationBruteForceWall(b *testing.B) {
	_, _, _, complete, _ := authorFixture(b, 6)
	// Truncate to the first 18 nodes (keeping arena-prefix connectivity).
	small := &ostree.Tree{GDS: complete.GDS, DB: complete.DB}
	n := complete.Len()
	if n > 18 {
		n = 18
	}
	for i := 0; i < n; i++ {
		node := complete.Nodes[i]
		node.Children = nil
		small.Nodes = append(small.Nodes, node)
		if node.Parent != ostree.None {
			p := &small.Nodes[node.Parent]
			p.Children = append(p.Children, ostree.NodeID(i))
		}
	}
	const l = 6
	b.Run("bruteforce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sizel.BruteForce(small, l); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sizel.DP(context.Background(), small, l); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEndToEndSearch times the full paradigm: keyword -> DS tuples ->
// prelim-l -> Top-Path -> rendered summaries (the user-visible latency),
// computed ("serial", the sub-name README's benchmark record lists it
// under) vs served from the warm LRU cache.
func BenchmarkEndToEndSearch(b *testing.B) {
	e := getEnv(b)
	run := func(b *testing.B, req sizelos.QueryRequest) {
		b.Helper()
		req.Rel, req.Query, req.L = "Author", "Faloutsos", 15
		for i := 0; i < b.N; i++ {
			res, _, _, err := e.dblp.QueryPage(req)
			if err != nil {
				b.Fatal(err)
			}
			if len(res) != 3 {
				b.Fatalf("want 3 results, got %d", len(res))
			}
		}
	}
	b.Run("serial", func(b *testing.B) {
		run(b, sizelos.QueryRequest{})
	})
	b.Run("cached", func(b *testing.B) {
		e.dblp.EnableSummaryCache(256)
		defer e.dblp.EnableSummaryCache(0)
		run(b, sizelos.QueryRequest{})
		if st, ok := e.dblp.SummaryCacheStats(); ok {
			b.ReportMetric(100*st.HitRate(), "cache_hit_pct")
		}
	})
}

// BenchmarkIndexBuild times keyword-index construction over the DBLP
// corpus at fixed and CPU-sized shard counts. CI's GOMAXPROCS=4 leg asserts
// sharded4 is >= 1.5x faster than the same build on one worker
// (TestShardedIndexBuildSpeedupMulticore).
func BenchmarkIndexBuild(b *testing.B) {
	db := getEnv(b).dblp.DB()
	b.Run("sharded4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			keyword.BuildSharded(db, keyword.ShardedOptions{NumShards: 4})
		}
	})
	b.Run("sharded-auto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			keyword.BuildSharded(db, keyword.ShardedOptions{})
		}
	})
}

// rankBenchGraph builds the BenchmarkRankCompute fixture once.
var rankGraphOnce struct {
	sync.Once
	g   *datagraph.Graph
	err error
}

func rankBenchGraph(b *testing.B) *datagraph.Graph {
	b.Helper()
	rankGraphOnce.Do(func() {
		cfg := datagen.DefaultDBLPConfig()
		cfg.Authors = 300
		cfg.Papers = 1200
		db, err := datagen.GenerateDBLP(cfg)
		if err != nil {
			rankGraphOnce.err = err
			return
		}
		rankGraphOnce.g, rankGraphOnce.err = datagraph.Build(db)
	})
	if rankGraphOnce.err != nil {
		b.Fatal(rankGraphOnce.err)
	}
	return rankGraphOnce.g
}

// BenchmarkRankCompute times global ObjectRank computation (the setup cost
// the paper precomputes offline): one cold ranking from the G_A ("serial",
// the sub-name README's benchmark record lists it under), and a
// compiled-plans run that isolates the iteration cost the engine pays per
// extra damping.
func BenchmarkRankCompute(b *testing.B) {
	g := rankBenchGraph(b)
	ga := datagen.DBLPGA1()
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plans, err := rank.Compile(g, ga, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := plans.Run(rank.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("precompiled", func(b *testing.B) {
		plans, err := rank.Compile(g, ga, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := plans.Run(rank.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRankCompile isolates the plan-compilation cost that NewEngine
// now pays once per G_A instead of once per setting.
func BenchmarkRankCompile(b *testing.B) {
	g := rankBenchGraph(b)
	ga := datagen.DBLPGA1()
	for i := 0; i < b.N; i++ {
		if _, err := rank.Compile(g, ga, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewEngine times full engine setup — data graph, keyword index,
// and all four settings' power iterations (compiled once per G_A, run
// concurrently).
func BenchmarkNewEngine(b *testing.B) {
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 300
	cfg.Papers = 1200
	db, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		b.Fatal(err)
	}
	settings := sizelos.DefaultSettings(datagen.DBLPGA1(), datagen.DBLPGA2())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sizelos.NewEngine(db, settings); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataGraphBuild times data-graph index construction (the paper:
// 17s for DBLP, 128s for TPC-H at full scale; ours is scaled down).
func BenchmarkDataGraphBuild(b *testing.B) {
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 300
	cfg.Papers = 1200
	db, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := datagraph.Build(db); err != nil {
			b.Fatal(err)
		}
	}
}

// mutateBenchDB builds a fresh DBLP store plus a counter of free primary
// keys for the stream benchmarks.
func mutateBenchDB(b *testing.B) (*relational.DB, *int64) {
	b.Helper()
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 300
	cfg.Papers = 1200
	db, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		b.Fatal(err)
	}
	next := int64(50_000_000)
	return db, &next
}

// citesStreamOp is the single-tuple stream op: one new citation between two
// existing papers, retracting the citation the previous op added (prevPK,
// 0 on the first op). Delete-then-insert keeps the live set stationary, so
// per-op cost doesn't drift with b.N and two runs compare like with like.
func citesStreamOp(db *relational.DB, pk, prevPK int64, i int) relational.Batch {
	paper := db.Relation("Paper")
	a := relational.TupleID(i % 1200)
	c := relational.TupleID((i*7 + 13) % 1200)
	b := relational.Batch{Inserts: []relational.InsertOp{{
		Rel: "Cites",
		Tuple: relational.Tuple{
			relational.IntVal(pk),
			relational.IntVal(paper.PK(a)),
			relational.IntVal(paper.PK(c)),
		},
	}}}
	if prevPK != 0 {
		b.Deletes = []relational.DeleteOp{{Rel: "Cites", PK: prevPK}}
	}
	return b
}

// BenchmarkMutateIncremental measures graph maintenance on the small-batch
// stream shape (one tuple per batch): the in-place edit
// (datagraph.Graph.Apply) against the from-scratch rebuild every batch paid
// before, plus the full engine write path end to end. The acceptance bar
// (CI's GOMAXPROCS=4 leg) is incremental >= 3x faster than rebuild.
func BenchmarkMutateIncremental(b *testing.B) {
	b.Run("graph-incremental", func(b *testing.B) {
		db, next := mutateBenchDB(b)
		g, err := datagraph.Build(db)
		if err != nil {
			b.Fatal(err)
		}
		prev := int64(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			*next++
			res, err := db.Apply(citesStreamOp(db, *next, prev, i))
			if err != nil {
				b.Fatal(err)
			}
			prev = *next
			if err := g.Apply(res); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("graph-rebuild", func(b *testing.B) {
		db, next := mutateBenchDB(b)
		prev := int64(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			*next++
			if _, err := db.Apply(citesStreamOp(db, *next, prev, i)); err != nil {
				b.Fatal(err)
			}
			prev = *next
			if _, err := datagraph.Build(db); err != nil {
				b.Fatal(err)
			}
		}
	})
	engineStream := func(rerank bool) func(b *testing.B) {
		return func(b *testing.B) {
			db, next := mutateBenchDB(b)
			eng, err := sizelos.NewEngine(db, sizelos.DefaultSettings(datagen.DBLPGA1(), datagen.DBLPGA2()))
			if err != nil {
				b.Fatal(err)
			}
			paper := db.Relation("Paper")
			prev := int64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				*next++
				a := relational.TupleID(i % 1200)
				c := relational.TupleID((i*7 + 13) % 1200)
				batch := sizelos.MutationBatch{
					Rerank: rerank,
					Inserts: []sizelos.TupleInsert{{
						Rel: "Cites",
						Tuple: relational.Tuple{
							relational.IntVal(*next),
							relational.IntVal(paper.PK(a)),
							relational.IntVal(paper.PK(c)),
						},
					}},
				}
				if prev != 0 {
					batch.Deletes = []sizelos.TupleDelete{{Rel: "Cites", PK: prev}}
				}
				prev = *next
				if _, err := eng.Mutate(batch); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// The full write path per stream op (store + index delta + graph edit
	// + epochs + rank-row rebuilds, including amortized compactions).
	b.Run("engine-stream", engineStream(false))
	// The warm-started re-rank a streaming deployment pays when it wants
	// fresh global importance after every batch.
	b.Run("rerank-warm", engineStream(true))
}

// BenchmarkRerankResidual measures the per-batch re-rank cost of the
// single-tuple mutation stream under the two re-rank modes: the
// Gauss–Southwell residual repair (PR 5) against the PR-4 warm full
// iteration, over the practical d=0.85 serving settings. Beyond ns/op
// (watched by the bench gate), each variant reports node-score updates per
// op — the hardware-independent work metric on which residual mode's
// acceptance bar is >=5x fewer (TestResidualUpdateSavings asserts it).
func BenchmarkRerankResidual(b *testing.B) {
	stream := func(residual bool) func(b *testing.B) {
		return func(b *testing.B) {
			db, next := mutateBenchDB(b)
			settings := []sizelos.Setting{
				{Name: "GA1-d1", GA: datagen.DBLPGA1(), Damping: 0.85},
				{Name: "GA2-d1", GA: datagen.DBLPGA2(), Damping: 0.85},
			}
			eng, err := sizelos.NewEngine(db, settings)
			if err != nil {
				b.Fatal(err)
			}
			eng.SetResidualRerank(residual)
			paper := db.Relation("Paper")
			prev := int64(0)
			updates := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				*next++
				a := relational.TupleID(i % 1200)
				c := relational.TupleID((i*7 + 13) % 1200)
				batch := sizelos.MutationBatch{
					Rerank: true,
					Inserts: []sizelos.TupleInsert{{
						Rel: "Cites",
						Tuple: relational.Tuple{
							relational.IntVal(*next),
							relational.IntVal(paper.PK(a)),
							relational.IntVal(paper.PK(c)),
						},
					}},
				}
				if prev != 0 {
					batch.Deletes = []sizelos.TupleDelete{{Rel: "Cites", PK: prev}}
				}
				prev = *next
				res, err := eng.Mutate(batch)
				if err != nil {
					b.Fatal(err)
				}
				for _, st := range res.RerankStats {
					updates += st.Updates
				}
			}
			b.ReportMetric(float64(updates)/float64(b.N), "updates/op")
		}
	}
	b.Run("residual", stream(true))
	b.Run("warm-full", stream(false))
}

// BenchmarkRerankResidualParallel is the wide-frontier residual re-rank:
// single-tuple streams keep frontiers at a handful of nodes, so this family
// drives ~150-citation batches whose rounds run to hundreds. The push is
// one walker; the sub-benchmark keeps the name README's benchmark record
// lists that schedule under (4.19 ms there, against the deleted
// owner-tiled round's 5.58).
func BenchmarkRerankResidualParallel(b *testing.B) {
	const batchSize = 150
	b.Run("workers-1", func(b *testing.B) {
		db, next := mutateBenchDB(b)
		settings := []sizelos.Setting{
			{Name: "GA1-d1", GA: datagen.DBLPGA1(), Damping: 0.85},
		}
		eng, err := sizelos.NewEngine(db, settings)
		if err != nil {
			b.Fatal(err)
		}
		eng.SetResidualRerank(true)
		paper := db.Relation("Paper")
		var prev []int64
		updates := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := sizelos.MutationBatch{Rerank: true}
			for _, pk := range prev {
				batch.Deletes = append(batch.Deletes, sizelos.TupleDelete{Rel: "Cites", PK: pk})
			}
			prev = prev[:0]
			for j := 0; j < batchSize; j++ {
				*next++
				k := i*batchSize + j
				batch.Inserts = append(batch.Inserts, sizelos.TupleInsert{
					Rel: "Cites",
					Tuple: relational.Tuple{
						relational.IntVal(*next),
						relational.IntVal(paper.PK(relational.TupleID(k % 1200))),
						relational.IntVal(paper.PK(relational.TupleID((k*7 + 13) % 1200))),
					},
				})
				prev = append(prev, *next)
			}
			res, err := eng.Mutate(batch)
			if err != nil {
				b.Fatal(err)
			}
			for _, st := range res.RerankStats {
				if st.FallbackTaken {
					b.Fatalf("batch %d fell back to the full iteration — the family no longer measures the push", i)
				}
				if !st.Residual {
					// The engine's scheduled re-grounding (every
					// residualRefreshInterval-th re-rank).
					continue
				}
				updates += st.Updates
			}
		}
		b.ReportMetric(float64(updates)/float64(b.N), "updates/op")
	})
}

// durableBenchEngine opens a small DBLP engine attached to a WAL in a
// fresh MemFS-backed store (in-memory so the numbers track the durability
// tier's CPU cost — framing, checksumming, replay — not disk latency).
func durableBenchEngine(b *testing.B) (*sizelos.Engine, *durable.Store, *durable.TenantStore) {
	b.Helper()
	store, err := durable.Open(durable.NewMemFS(), durable.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ts := store.Tenant("bench")
	eng, _, err := ts.Recover(sizelos.RestoreDBLP, func() (*sizelos.Engine, error) {
		cfg := datagen.DefaultDBLPConfig()
		cfg.Authors = 40
		cfg.Papers = 130
		cfg.Conferences = 4
		cfg.YearSpan = 3
		return sizelos.OpenDBLP(cfg)
	})
	if err != nil {
		b.Fatal(err)
	}
	return eng, store, ts
}

// toDurableBatch is a generated relational batch as the engine's batch.
func toDurableBatch(rb relational.Batch) sizelos.MutationBatch {
	return sizelos.MutationBatch{Deletes: rb.Deletes, Inserts: rb.Inserts}
}

// BenchmarkWALAppend measures the durable commit path: Engine.Mutate with
// a WAL attached, so each op pays gob encoding, CRC framing, the log
// write and the fsync, on top of the in-memory mutation work the
// MutateIncremental family tracks on its own.
func BenchmarkWALAppend(b *testing.B) {
	b.Run("sync-always", func(b *testing.B) {
		// Both the store and the WAL segment grow with every committed
		// batch (and MemFS re-copies the whole segment on each fsync),
		// so an unbounded run would measure ever-larger state instead
		// of the commit path. Reset to a fresh engine every resetEvery
		// commits — off the clock — to keep ns/op independent of b.N.
		const resetEvery = 256
		var (
			eng *sizelos.Engine
			ts  *durable.TenantStore
			gen *mutgen.Gen
		)
		reset := func() {
			if ts != nil {
				if err := ts.Close(); err != nil {
					b.Fatal(err)
				}
			}
			eng, _, ts = durableBenchEngine(b)
			// The generator tracks the live store, so every batch
			// commits (and therefore appends).
			gen = mutgen.New(eng.DB(), 1)
		}
		reset()
		defer func() {
			if err := ts.Close(); err != nil {
				b.Fatal(err)
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if i > 0 && i%resetEvery == 0 {
				reset()
			}
			batch := toDurableBatch(gen.NextBatch())
			b.StartTimer()
			if len(batch.Deletes) == 0 && len(batch.Inserts) == 0 {
				continue
			}
			if _, err := eng.Mutate(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRecoveryReplay measures crash recovery: restore the newest
// snapshot and replay a 32-record WAL tail through the engine's
// incremental write path. The store is seeded once (32 batches, snapshot,
// 32 more batches, close); each iteration is then one full recovery from
// that fixed disk state.
func BenchmarkRecoveryReplay(b *testing.B) {
	eng, store, ts := durableBenchEngine(b)
	gen := mutgen.New(eng.DB(), 2)
	mutate := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := eng.Mutate(toDurableBatch(gen.NextBatch())); err != nil {
				b.Fatal(err)
			}
		}
	}
	mutate(32)
	if _, err := ts.Snapshot(eng); err != nil {
		b.Fatal(err)
	}
	mutate(32)
	if err := ts.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := store.Tenant("bench")
		recovered, info, err := rt.Recover(sizelos.RestoreDBLP, func() (*sizelos.Engine, error) {
			b.Fatal("recovery fell back to a fresh rebuild; snapshot lost")
			return nil, nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if recovered == nil || info.Replayed != 32 {
			b.Fatalf("recovery replayed %d records, want 32", info.Replayed)
		}
		b.StopTimer()
		if err := rt.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// wideEnv builds the streaming worst case once: 12000 Item subjects all
// matching one token, so a full drain summarizes 12000 subjects while a
// limit-10 stream summarizes exactly the served prefix.
var (
	wideOnce sync.Once
	wideEng  *sizelos.Engine
	wideErr  error
)

func getWide(b *testing.B) *sizelos.Engine {
	b.Helper()
	wideOnce.Do(func() {
		db := relational.NewDB("acme")
		item := relational.MustNewRelation("Item",
			[]relational.Column{
				{Name: "id", Kind: relational.KindInt, Affinity: 1},
				{Name: "tag", Kind: relational.KindString, Affinity: 1},
			}, "id", nil)
		rev := relational.MustNewRelation("Rev",
			[]relational.Column{
				{Name: "id", Kind: relational.KindInt, Affinity: 1},
				{Name: "item", Kind: relational.KindInt, Affinity: 1},
				{Name: "note", Kind: relational.KindString, Affinity: 1},
			}, "id", []relational.ForeignKey{{Column: "item", Ref: "Item"}})
		db.MustAddRelation(item)
		db.MustAddRelation(rev)
		revID := int64(1)
		for i := 0; i < 12000; i++ {
			item.MustInsert(relational.Tuple{
				relational.IntVal(int64(i + 1)),
				relational.StrVal(fmt.Sprintf("acme widget%05d", i)),
			})
			for r := 0; r < i%3; r++ {
				rev.MustInsert(relational.Tuple{
					relational.IntVal(revID),
					relational.IntVal(int64(i + 1)),
					relational.StrVal(fmt.Sprintf("note%d", revID)),
				})
				revID++
			}
		}
		ga := rank.NewGA("GA").Direct("Rev", 0, true, 0.5).Direct("Rev", 0, false, 0.5)
		eng, err := sizelos.NewEngine(db, []sizelos.Setting{
			{Name: sizelos.DefaultSetting, GA: ga, Damping: 0.85},
		})
		if err != nil {
			wideErr = err
			return
		}
		gds := schemagraph.New("Item")
		gds.Root.AddChildFK("Rev", "Rev", 0, 0.9)
		if err := eng.RegisterGDS(gds); err != nil {
			wideErr = err
			return
		}
		wideEng = eng
	})
	if wideErr != nil {
		b.Fatal(wideErr)
	}
	return wideEng
}

// BenchmarkQueryStream measures the paging hot path: first page of 10 over
// 12000 matching subjects. Early termination keeps
// the cost proportional to the page, not the answer.
func BenchmarkQueryStream(b *testing.B) {
	eng := getWide(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sums, _, stats, err := eng.QueryPage(sizelos.QueryRequest{
			Rel: "Item", Query: "acme", L: 3, Limit: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(sums) != 10 || stats.Matches < 10000 {
			b.Fatalf("served %d of %d matches", len(sums), stats.Matches)
		}
	}
}

// BenchmarkAdmissionOverhead measures the uncontended QoS fast path every
// admitted request pays on top of its query: one token-bucket check plus
// one admission-slot acquire/release, with free slots and a full bucket.
// The absolute ns/op here against BenchmarkQueryStream bounds the tax the
// QoS layer adds to an unthrottled tenant.
func BenchmarkAdmissionOverhead(b *testing.B) {
	lim := qos.NewLimiter(qos.Limits{
		SearchRate:  1e12, // never empties within a run: the refusal path is not this bench
		SearchBurst: 1e12,
		MaxInFlight: 64,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lim.AllowSearch(); err != nil {
			b.Fatal(err)
		}
		release, err := lim.Admit(0)
		if err != nil {
			b.Fatal(err)
		}
		release()
	}
}

// BenchmarkQueryDrain is the materializing baseline on the same query:
// every one of the 12000 matches summarized. The ns/op gap against
// BenchmarkQueryStream is what early termination buys.
func BenchmarkQueryDrain(b *testing.B) {
	eng := getWide(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sums, _, stats, err := eng.QueryPage(sizelos.QueryRequest{
			Rel: "Item", Query: "acme", L: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(sums) != stats.Matches || stats.Matches < 10000 {
			b.Fatalf("drained %d of %d matches", len(sums), stats.Matches)
		}
	}
}

var (
	rankedOnce sync.Once
	rankedEng  *sizelos.Engine
	rankedErr  error
)

// rankedScanOps deals n /ranked requests the way benchmark/gen.go deals one
// tenant's ranked_scan ops: hands of three Customer scans and one Supplier
// scan in a seeded order, l dealt per relation from 5..54 without
// replacement with one value of each decade in any five draws, the setting
// drawn, K = 10.
func rankedScanOps(n int) []sizelos.QueryRequest {
	r := rand.New(rand.NewSource(1))
	var settings []string
	for _, s := range sizelos.DefaultSettings(nil, nil) {
		settings = append(settings, s.Name)
	}
	dealer := func() func() int {
		var cycle []int
		return func() int {
			if len(cycle) == 0 {
				var within [5][]int
				for s := range within {
					within[s] = r.Perm(10)
				}
				for round := 0; round < 10; round++ {
					for _, s := range r.Perm(5) {
						cycle = append(cycle, 5+s*10+within[s][round])
					}
				}
			}
			l := cycle[0]
			cycle = cycle[1:]
			return l
		}
	}
	customerL, supplierL := dealer(), dealer()
	hand := []bool{false, false, false, true}
	ops := make([]sizelos.QueryRequest, 0, n)
	for len(ops) < n {
		r.Shuffle(len(hand), func(a, b int) { hand[a], hand[b] = hand[b], hand[a] })
		for _, supplier := range hand {
			req := sizelos.QueryRequest{Rel: "Customer", Query: "customer", RankBySummary: true, K: 10,
				Setting: settings[r.Intn(len(settings))]}
			if supplier {
				req.Rel, req.Query, req.L = "Supplier", "supplier", supplierL()
			} else {
				req.L = customerL()
			}
			ops = append(ops, req)
		}
	}
	return ops[:n]
}

// rankedScanKeys lists the 400 (relation, setting, l) keys of the ranked_scan
// mix, each once, in a seeded order.
func rankedScanKeys() []sizelos.QueryRequest {
	var keys []sizelos.QueryRequest
	for _, rel := range []string{"Customer", "Supplier"} {
		for _, s := range sizelos.DefaultSettings(nil, nil) {
			for l := 5; l < 55; l++ {
				keys = append(keys, sizelos.QueryRequest{Rel: rel, Query: strings.ToLower(rel), L: l,
					Setting: s.Name, RankBySummary: true, K: 10})
			}
		}
	}
	r := rand.New(rand.NewSource(1))
	r.Shuffle(len(keys), func(a, b int) { keys[a], keys[b] = keys[b], keys[a] })
	return keys
}

// BenchmarkRankedScan is the engine side of the ranked_scan workload: a
// TPC-H SF 0.004 engine serving the workload's /ranked mix, so the size-l
// kernel runs as a scan — every candidate the bound table cannot seal gets a
// prelim-l OS, and those its tree's bound does not seal a Top-Path
// selection. summaries/op and sealed/op are the mix's QueryStats, the same
// on every commit that keeps the algorithm. The table remembers the exact
// Im(S) of every selection at its (l, algorithm, OS kind), so there are two
// legs: warm cycles 200 ops of the mix on one shared engine — past its first
// pass every op revisits a key and it times the memo's hit path — and first
// asks each of the mix's 400 keys once on an engine opened outside the
// timer, so every op is a first visit.
func BenchmarkRankedScan(b *testing.B) {
	b.Run("warm", func(b *testing.B) {
		rankedOnce.Do(func() { rankedEng, rankedErr = sizelos.OpenTPCH(datagen.DefaultTPCHConfig()) })
		if rankedErr != nil {
			b.Fatal(rankedErr)
		}
		ops := rankedScanOps(200)
		runRankedScan(b, func(i int) (*sizelos.Engine, sizelos.QueryRequest) { return rankedEng, ops[i%len(ops)] })
	})
	b.Run("first", func(b *testing.B) {
		keys := rankedScanKeys()
		var eng *sizelos.Engine
		runRankedScan(b, func(i int) (*sizelos.Engine, sizelos.QueryRequest) {
			if i%len(keys) == 0 {
				b.StopTimer()
				var err error
				if eng, err = sizelos.OpenTPCH(datagen.DefaultTPCHConfig()); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			return eng, keys[i%len(keys)]
		})
	})
}

// runRankedScan times b.N ranked ops, op i on the engine and request next
// hands out, and reports their mean QueryStats.
func runRankedScan(b *testing.B, next func(i int) (*sizelos.Engine, sizelos.QueryRequest)) {
	var summaries, sealed int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, req := next(i)
		page, _, stats, err := eng.QueryPage(req)
		if err != nil {
			b.Fatal(err)
		}
		if len(page) == 0 {
			b.Fatalf("op %d served nothing", i)
		}
		summaries += stats.Summaries
		sealed += stats.Sealed
	}
	b.ReportMetric(float64(summaries)/float64(b.N), "summaries/op")
	b.ReportMetric(float64(sealed)/float64(b.N), "sealed/op")
}
