package sizelos_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"sizelos"
	"sizelos/internal/datagen"
	"sizelos/internal/ostree"
	"sizelos/internal/relational"
	"sizelos/internal/sizel"
)

// smallDBLP opens the synthetic DBLP database at the examples' scale.
func smallDBLP() *sizelos.Engine {
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 300
	cfg.Papers = 1500
	eng, err := sizelos.OpenDBLP(cfg)
	if err != nil {
		log.Fatalf("open dblp: %v", err)
	}
	return eng
}

// The paper's running example Q1 ("Faloutsos") with l=15: the size-l
// Object Summaries of Example 5.
func Example_quickstart() {
	eng := smallDBLP()
	page, _, stats, err := eng.QueryPage(sizelos.QueryRequest{Rel: "Author", Query: "Faloutsos", L: 15})
	if err != nil {
		log.Fatalf("search: %v", err)
	}
	fmt.Printf("Q1 = \"Faloutsos\", l = 15: %d data subjects\n\n", stats.Matches)
	for _, r := range page {
		fmt.Printf("=== %s (Im(S) = %.2f) ===\n", r.Headline, r.Result.Importance)
		fmt.Println(r.Text)
	}
	// Output:
	// Q1 = "Faloutsos", l = 15: 3 data subjects
	//
	// === Christos Faloutsos (Im(S) = 613.84) ===
	// Author: Christos Faloutsos
	// .. Paper: Power-law Keyword Systems Parallel
	// .... PaperCites: Graph Adaptive Multimedia Multimedia Temporal
	// .. Paper: Searching Topology Summarization
	// .... PaperCites: Graph Adaptive Multimedia Multimedia Temporal
	// .. Paper: Similarity Joins Keyword Topology Models
	// .... PaperCites: Spatial Relational Adaptive
	// .. Paper: Structures Scalable Networks Graph Systems
	// .... PaperCites: Graph Adaptive Multimedia Multimedia Temporal
	// .. Paper: Keyword Ranking Multimedia Querying
	// .... PaperCites: Graph Adaptive Multimedia Multimedia Temporal
	// .. Paper: Multicast Clustering Declustering Temporal Summarization Systems
	// .... PaperCites: Graph Adaptive Multimedia Multimedia Temporal
	// .. Paper: Sampling Joins Graph Keyword Algorithms Clustering
	// .... PaperCites: Graph Adaptive Multimedia Multimedia Temporal
	//
	// === Michalis Faloutsos (Im(S) = 630.69) ===
	// Author: Michalis Faloutsos
	// .. Paper: Animation Summarization Parallel Power-law Animation Efficient
	// .... PaperCites: Spatial Relational Adaptive
	// .... PaperCites: Animation Searching Structures Caching Algorithms
	// .. Paper: Ranking Declustering Sampling Searching
	// .... PaperCites: Graph Adaptive Multimedia Multimedia Temporal
	// .... PaperCites: Spatial Relational Adaptive
	// .. Paper: Power-law Multimedia Scalable Scalable Declustering
	// .... PaperCites: Spatial Relational Adaptive
	// .. Paper: Structures Scalable Networks Graph Systems
	// .... PaperCites: Graph Adaptive Multimedia Multimedia Temporal
	// .. Paper: Multimedia Models Networks Sampling Animation
	// .... PaperCites: Spatial Relational Adaptive
	// .. Paper: Distributed Parallel Parallel
	// .... PaperCites: Graph Adaptive Multimedia Multimedia Temporal
	//
	// === Petros Faloutsos (Im(S) = 485.72) ===
	// Author: Petros Faloutsos
	// .. Paper: Power-law Keyword Systems Parallel
	// .... Co-Author: Christos Faloutsos
	// .... PaperCites: Graph Adaptive Multimedia Multimedia Temporal
	// .. Paper: Estimation Algorithms Declustering Mining Searching
	// .... PaperCites: Fractals Streaming Efficient Multimedia Similarity
	// .. Paper: Networks Sampling Declustering Relational
	// .... PaperCites: Spatial Relational Adaptive
	// .. Paper: Multicast Clustering Declustering Temporal Summarization Systems
	// .... Co-Author: Christos Faloutsos
	// .... PaperCites: Graph Adaptive Multimedia Multimedia Temporal
	// .. Paper: Estimation Declustering Declustering Multimedia Clustering Topology
	// .. Paper: Sampling Joins Graph Keyword Algorithms Clustering
	// .... Co-Author: Christos Faloutsos
	// .... PaperCites: Graph Adaptive Multimedia Multimedia Temporal
}

// One data subject's size-l OS by the optimal DP, Bottom-Up Pruning and
// Update Top-Path-l, each from the complete OS and from the prelim-l OS,
// with the importance each reaches against the optimum: a miniature of the
// paper's Figure 9 (Figure 10's timings are osbench's).
func Example_algorithmsCompare() {
	eng := smallDBLP()
	const l = 20
	scores, err := eng.Scores(sizelos.DefaultSetting)
	if err != nil {
		log.Fatal(err)
	}
	gds, err := eng.GDS("Author", sizelos.DefaultSetting)
	if err != nil {
		log.Fatal(err)
	}
	root, ok := eng.DB().Relation("Author").LookupPK(1) // Christos
	if !ok {
		log.Fatal("author 1 missing")
	}
	src := ostree.NewGraphSource(eng.Graph(), scores)
	complete, err := ostree.Generate(src, gds, root, ostree.GenOptions{MaxDepth: l - 1})
	if err != nil {
		log.Fatal(err)
	}
	prelim, pstats, err := sizel.PrelimL(src, gds, root, l, sizel.PrelimOptions{MaxDepth: l - 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("complete OS: %d tuples;  prelim-%d OS: %d tuples "+
		"(AC1 skips: %d, AC2 TOP-l joins: %d)\n\n",
		complete.Len(), l, prelim.Len(), pstats.AC1Skips, pstats.AC2TopL)
	opt, err := sizel.DP(context.Background(), complete, l)
	if err != nil {
		log.Fatal(err)
	}
	methods := []struct {
		name string
		run  func(*ostree.Tree) (sizel.Result, error)
	}{
		{"DP (optimal)", func(t *ostree.Tree) (sizel.Result, error) { return sizel.DP(context.Background(), t, l) }},
		{"Bottom-Up", func(t *ostree.Tree) (sizel.Result, error) { return sizel.BottomUp(t, l) }},
		{"Top-Path", func(t *ostree.Tree) (sizel.Result, error) { return sizel.TopPath(t, l, sizel.TopPathOptions{}) }},
	}
	fmt.Printf("%-14s %-12s %10s %8s\n", "method", "input", "Im(S)", "approx")
	for _, m := range methods {
		for _, in := range []struct {
			name string
			tree *ostree.Tree
		}{{"complete", complete}, {"prelim-l", prelim}} {
			res, err := m.run(in.tree)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-14s %-12s %10.2f %7.2f%%\n", m.name, in.name, res.Importance, 100*res.Importance/opt.Importance)
		}
	}
	// Output:
	// complete OS: 2276 tuples;  prelim-20 OS: 236 tuples (AC1 skips: 162, AC2 TOP-l joins: 546)
	//
	// method         input             Im(S)   approx
	// DP (optimal)   complete         799.01  100.00%
	// DP (optimal)   prelim-l         799.01  100.00%
	// Bottom-Up      complete         765.94   95.86%
	// Bottom-Up      prelim-l         765.94   95.86%
	// Top-Path       complete         765.94   95.86%
	// Top-Path       prelim-l         765.94   95.86%
}

// A data-protection-act subject access request (§1: "data controllers must
// extract data for a given DS from their databases and present it in an
// intelligible form"): the synoptic size-l report and the complete OS of
// one person, found by exact name.
func Example_dpaReport() {
	eng := smallDBLP()
	const subject = "Christos Faloutsos"
	// The synopsis: a size-20 OS, computed from a prelim-l OS with the
	// Top-Path heuristic (the paper's recommended configuration).
	synopsis, _, _, err := eng.QueryPage(sizelos.QueryRequest{Rel: "Author", Query: subject, L: 20, ShowWeights: true})
	if err != nil {
		log.Fatalf("search: %v", err)
	}
	if len(synopsis) != 1 {
		log.Fatalf("expected exactly one subject, got %d", len(synopsis))
	}
	// Full disclosure: the complete OS (l large enough to keep everything).
	full, _, _, err := eng.QueryPage(sizelos.QueryRequest{Rel: "Author", Query: subject, L: 1 << 20, Complete: true})
	if err != nil {
		log.Fatalf("full report: %v", err)
	}
	fmt.Printf("SUBJECT ACCESS REPORT — %s\n", subject)
	fmt.Println(strings.Repeat("=", 50))
	fmt.Printf("Records held: %d tuples across the database\n", len(full[0].Result.Nodes))
	fmt.Printf("Synopsis (%d most important records, Im(S)=%.2f):\n\n",
		len(synopsis[0].Result.Nodes), synopsis[0].Result.Importance)
	fmt.Println(synopsis[0].Text)
	fmt.Printf("... full report available on request (%d further tuples omitted)\n",
		len(full[0].Result.Nodes)-len(synopsis[0].Result.Nodes))
	// Output:
	// SUBJECT ACCESS REPORT — Christos Faloutsos
	// ==================================================
	// Records held: 2276 tuples across the database
	// Synopsis (20 most important records, Im(S)=765.94):
	//
	// Author: Christos Faloutsos  [36.05]
	// .. Paper: Power-law Keyword Systems Parallel  [15.52]
	// .... PaperCites: Graph Adaptive Multimedia Multimedia Temporal  [77.00]
	// .. Paper: Searching Topology Summarization  [10.50]
	// .... PaperCites: Graph Adaptive Multimedia Multimedia Temporal  [77.00]
	// .. Paper: Similarity Joins Keyword Topology Models  [5.36]
	// .... PaperCites: Spatial Relational Adaptive  [73.41]
	// .. Paper: Structures Scalable Networks Graph Systems  [4.94]
	// .... PaperCites: Graph Adaptive Multimedia Multimedia Temporal  [77.00]
	// .. Paper: Summarization Databases Summarization Adaptive Querying  [2.95]
	// .... PaperCites: Spatial Relational Adaptive  [73.41]
	// .. Paper: Keyword Ranking Multimedia Querying  [2.63]
	// .... PaperCites: Graph Adaptive Multimedia Multimedia Temporal  [77.00]
	// .. Paper: Multicast Clustering Declustering Temporal Summarization Systems  [2.43]
	// .... PaperCites: Graph Adaptive Multimedia Multimedia Temporal  [77.00]
	// .. Paper: Structures Mining Multicast Mining  [1.37]
	// .... PaperCites: Spatial Relational Adaptive  [73.41]
	// .. Paper: Sampling Joins Graph Keyword Algorithms Clustering  [1.00]
	// .... PaperCites: Graph Adaptive Multimedia Multimedia Temporal  [77.00]
	// .. Paper: Power-law Caching Parallel Systems Distributed Efficient  [0.96]
	//
	// ... full report available on request (2256 further tuples omitted)
}

// A live mutation stream with a re-rank on every batch, printing which
// re-rank path ran (residual push or warm full iteration), how many
// Gauss–Southwell pushes it took and the work saved against a cold
// iteration. Each op inserts one citation between existing papers and
// retracts the previous op's, so every line is the steady-state cost of
// keeping global importance fresh after one tuple changed.
func Example_incrementalRerank() {
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 300
	cfg.Papers = 1200
	db, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// The practical serving settings (d=0.85). The high-damping d3 stress
	// setting would trip the residual push budget and fall back.
	eng, err := sizelos.NewEngine(db, []sizelos.Setting{
		{Name: "GA1-d1", GA: datagen.DBLPGA1(), Damping: 0.85},
		{Name: "GA2-d1", GA: datagen.DBLPGA2(), Damping: 0.85},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.RegisterGDS(datagen.AuthorGDS().Threshold(sizelos.Theta)); err != nil {
		log.Fatal(err)
	}
	nodes := eng.Graph().NumNodes()
	fmt.Printf("engine up: %d nodes, settings %v\n\n", nodes, eng.SettingNames())

	paper := db.Relation("Paper")
	pk, prev := int64(50_000_000), int64(0)
	totalResidual, totalFullEquiv := 0, 0
	for i := 0; i < 10; i++ {
		pk++
		a := relational.TupleID(i % paper.Len())
		c := relational.TupleID((i*7 + 13) % paper.Len())
		batch := sizelos.MutationBatch{
			Rerank: true,
			Inserts: []sizelos.TupleInsert{{Rel: "Cites", Tuple: relational.Tuple{
				relational.IntVal(pk), relational.IntVal(paper.PK(a)), relational.IntVal(paper.PK(c)),
			}}},
		}
		if prev != 0 {
			batch.Deletes = []sizelos.TupleDelete{{Rel: "Cites", PK: prev}}
		}
		prev = pk
		res, err := eng.Mutate(batch)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("batch %2d:\n", i+1)
		for _, name := range eng.SettingNames() {
			st := res.RerankStats[name]
			mode := "warm-full"
			if st.Residual {
				mode = "residual"
			}
			if st.FallbackTaken {
				mode = "residual->fallback"
			}
			// What a warm full iteration would have paid for the same
			// refresh: the cold iteration count times the arena, floored by
			// what actually ran.
			fullEquiv := st.Updates
			if st.Residual && !st.FallbackTaken {
				fullEquiv = (st.IterationsSaved + st.Iterations) * nodes
			}
			totalResidual += st.Updates
			totalFullEquiv += fullEquiv
			fmt.Printf("  %-7s %-18s pushes=%-5d nodes-touched=%-5d updates=%-6d (cold-equivalent %d)\n",
				name, mode, st.Pushes, st.NodesTouched, st.Updates, fullEquiv)
		}
	}
	fmt.Printf("\nstream total: %d node-score updates vs %d cold-equivalent (%.1fx saved)\n",
		totalResidual, totalFullEquiv, float64(totalFullEquiv)/float64(totalResidual))

	// The refreshed scores serve immediately.
	results, _, _, err := eng.QueryPage(sizelos.QueryRequest{Rel: "Author", Query: "Faloutsos", L: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npost-stream search: %d summaries, first:\n%s\n", len(results), results[0].Text)
	// Output:
	// engine up: 9674 nodes, settings [GA1-d1 GA2-d1]
	//
	// batch  1:
	//   GA1-d1  residual           pushes=6272  nodes-touched=1640  updates=6272   (cold-equivalent 280546)
	//   GA2-d1  residual           pushes=1355  nodes-touched=732   updates=1355   (cold-equivalent 212828)
	// batch  2:
	//   GA1-d1  residual           pushes=5157  nodes-touched=1597  updates=5157   (cold-equivalent 280546)
	//   GA2-d1  residual           pushes=1756  nodes-touched=946   updates=1756   (cold-equivalent 212828)
	// batch  3:
	//   GA1-d1  residual           pushes=4817  nodes-touched=1508  updates=4817   (cold-equivalent 280546)
	//   GA2-d1  residual           pushes=1219  nodes-touched=737   updates=1219   (cold-equivalent 212828)
	// batch  4:
	//   GA1-d1  residual           pushes=5893  nodes-touched=1564  updates=5893   (cold-equivalent 280546)
	//   GA2-d1  residual           pushes=1447  nodes-touched=852   updates=1447   (cold-equivalent 212828)
	// batch  5:
	//   GA1-d1  residual           pushes=2999  nodes-touched=1353  updates=2999   (cold-equivalent 280546)
	//   GA2-d1  residual           pushes=1062  nodes-touched=707   updates=1062   (cold-equivalent 212828)
	// batch  6:
	//   GA1-d1  residual           pushes=3902  nodes-touched=1322  updates=3902   (cold-equivalent 280546)
	//   GA2-d1  residual           pushes=986   nodes-touched=643   updates=986    (cold-equivalent 212828)
	// batch  7:
	//   GA1-d1  residual           pushes=3660  nodes-touched=1263  updates=3660   (cold-equivalent 280546)
	//   GA2-d1  residual           pushes=869   nodes-touched=590   updates=869    (cold-equivalent 212828)
	// batch  8:
	//   GA1-d1  residual           pushes=5170  nodes-touched=1546  updates=5170   (cold-equivalent 280546)
	//   GA2-d1  residual           pushes=1307  nodes-touched=829   updates=1307   (cold-equivalent 212828)
	// batch  9:
	//   GA1-d1  residual           pushes=5338  nodes-touched=1542  updates=5338   (cold-equivalent 280546)
	//   GA2-d1  residual           pushes=1343  nodes-touched=849   updates=1343   (cold-equivalent 212828)
	// batch 10:
	//   GA1-d1  residual           pushes=2755  nodes-touched=1191  updates=2755   (cold-equivalent 280546)
	//   GA2-d1  residual           pushes=807   nodes-touched=543   updates=807    (cold-equivalent 212828)
	//
	// stream total: 58114 node-score updates vs 4933740 cold-equivalent (84.9x saved)
	//
	// post-stream search: 3 summaries, first:
	// Author: Christos Faloutsos
	// .. Paper: Searching Topology Summarization
	// .... PaperCites: Graph Adaptive Multimedia Multimedia Temporal
	// .. Paper: Fractals Clustering Power-law Fractals Temporal Efficient
	// .. Paper: Scalable Distributed Fractals Mining Distributed Structures
	// .... PaperCites: Graph Adaptive Multimedia Multimedia Temporal
	// .. Paper: Topology Ranking Multimedia Estimation Multimedia
	// .... PaperCites: Graph Adaptive Multimedia Multimedia Temporal
}

// Size-10 OSs of TPC-H customers under GA1 (ValueRank: authority follows
// money) and GA2 (plain ObjectRank: structure only): the value-aware
// ranking changes which orders make the summary.
func Example_tpchCustomer() {
	cfg := datagen.DefaultTPCHConfig()
	cfg.ScaleFactor = 0.002
	eng, err := sizelos.OpenTPCH(cfg)
	if err != nil {
		log.Fatalf("open tpch: %v", err)
	}
	for _, name := range []string{"Customer#000001", "Customer#000002"} {
		for _, setting := range []string{"GA1-d1", "GA2-d1"} {
			res, _, _, err := eng.QueryPage(sizelos.QueryRequest{
				Rel: "Customer", Query: name, L: 10, Setting: setting, ShowWeights: true,
			})
			if err != nil {
				log.Fatalf("search: %v", err)
			}
			if len(res) == 0 {
				log.Fatalf("customer %s not found", name)
			}
			kind := "ValueRank (authority follows order value)"
			if setting == "GA2-d1" {
				kind = "ObjectRank (values neglected)"
			}
			fmt.Printf("=== %s under %s — %s ===\n", name, setting, kind)
			fmt.Println(res[0].Text)
		}
	}
	// Output:
	// === Customer#000001 under GA1-d1 — ValueRank (authority follows order value) ===
	// Customer: Customer#000001, 1583.67  [100.00]
	// .. Nation: IRAQ  [33.83]
	// .... Region: AMERICA  [16.01]
	// .. Order: 24276.03, 1993-01-18  [13.29]
	// .. Order: 18907.38, 1998-06-01  [12.84]
	// .. Order: 31847.15, 1993-05-26  [12.78]
	// .. Order: 18221.74, 1994-01-22  [12.78]
	// .. Order: 30064.63, 1993-04-27  [12.70]
	// .. Order: 16440.35, 1993-11-01  [12.68]
	// .. Order: 14979.98, 1993-08-27  [12.61]
	//
	// === Customer#000001 under GA2-d1 — ObjectRank (values neglected) ===
	// Customer: Customer#000001, 1583.67  [100.00]
	// .. Nation: IRAQ  [33.81]
	// .... Region: AMERICA  [16.00]
	// .. Order: 13762.16, 1995-02-05  [12.33]
	// .. Order: 14979.98, 1993-08-27  [12.33]
	// .. Order: 8320.19, 1998-12-09  [12.31]
	// .. Order: 16440.35, 1993-11-01  [12.30]
	// .. Order: 13606.63, 1995-05-18  [12.30]
	// .. Order: 11259.35, 1992-11-26  [12.30]
	// .. Order: 24276.03, 1993-01-18  [12.29]
	//
	// === Customer#000002 under GA1-d1 — ValueRank (authority follows order value) ===
	// Customer: Customer#000002, 5668.20  [84.66]
	// .. Nation: CANADA  [38.95]
	// .... Region: EUROPE  [15.74]
	// .. Order: 19505.82, 1996-09-11  [12.91]
	// .. Order: 18572.60, 1996-04-10  [12.85]
	// .. Order: 17337.26, 1993-10-20  [12.78]
	// .. Order: 16376.65, 1994-01-23  [12.69]
	// .. Order: 11593.13, 1996-02-16  [12.35]
	// .. Order: 11862.32, 1994-12-21  [12.33]
	// .. Order: 10171.93, 1994-08-25  [12.21]
	//
	// === Customer#000002 under GA2-d1 — ObjectRank (values neglected) ===
	// Customer: Customer#000002, 5668.20  [84.65]
	// .. Nation: CANADA  [38.96]
	// .... Region: EUROPE  [15.74]
	// .. Order: 17337.26, 1993-10-20  [12.30]
	// .. Order: 10171.93, 1994-08-25  [12.30]
	// .. Order: 11862.32, 1994-12-21  [12.30]
	// .. Order: 18572.60, 1996-04-10  [12.30]
	// .. Order: 11593.13, 1996-02-16  [12.29]
	// .. Order: 19505.82, 1996-09-11  [12.29]
	// .. Order: 16376.65, 1994-01-23  [12.28]
}
