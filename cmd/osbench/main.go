// Command osbench regenerates every table and figure of the paper's
// experimental evaluation (§6) against the synthetic DBLP-like and
// TPC-H-like databases. Each figure is printed as a fixed-width table whose
// series match the paper's plot legends; docs/EXPERIMENTS.md records the
// paper-vs-measured comparison.
//
// Usage:
//
//	osbench -fig all
//	osbench -fig 8a            # effectiveness, DBLP Author
//	osbench -fig 9 -roots 10   # approximation quality, all four G_DS
//	osbench -fig 10f           # generation cost breakdown
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sizelos"
	"sizelos/internal/datagen"
	"sizelos/internal/eval"
	"sizelos/internal/relational"
)

type bench struct {
	dblpCfg datagen.DBLPConfig
	tpchCfg datagen.TPCHConfig
	roots   int
	judge   eval.JudgeConfig
	seed    int64

	dblp *sizelos.Engine
	tpch *sizelos.Engine
}

var allSettings = []string{"GA1-d1", "GA1-d2", "GA1-d3", "GA2-d1"}

var figLs = []int{5, 10, 15, 20, 25, 30}

var approxLs = []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to reproduce: 8a 8b 8c 8d snippets 9 9e 9f 10 10e 10f stability all")
		roots   = flag.Int("roots", 10, "random OSs per G_DS (paper: 10)")
		judges  = flag.Int("judges", 8, "simulated judges (paper: 8-11)")
		authors = flag.Int("authors", 1200, "DBLP authors")
		papers  = flag.Int("papers", 4000, "DBLP papers")
		sf      = flag.Float64("sf", 0.004, "TPC-H scale factor")
		seed    = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()

	dblpCfg := datagen.DefaultDBLPConfig()
	dblpCfg.Seed = *seed
	dblpCfg.Authors = *authors
	dblpCfg.Papers = *papers
	tpchCfg := datagen.DefaultTPCHConfig()
	tpchCfg.Seed = *seed
	tpchCfg.ScaleFactor = *sf

	b := &bench{dblpCfg: dblpCfg, tpchCfg: tpchCfg, roots: *roots, judge: eval.DefaultJudgeConfig(), seed: *seed}
	b.judge.Judges = *judges
	if err := b.run(strings.Split(*fig, ",")); err != nil {
		fmt.Fprintf(os.Stderr, "osbench: %v\n", err)
		os.Exit(1)
	}
}

// figure is one reproducible table of §6: the workloads it runs on, in
// order, and what it computes on one of them from its sampled roots. A
// figure over several workloads prints one table each, titled with the
// workload's name and followed by a blank line.
type figure struct {
	name      string
	workloads []string
	run       func(w workload, roots []relational.TupleID) (eval.Figure, error)
}

var allWorkloads = []string{"dblp-author", "dblp-paper", "tpch-customer", "tpch-supplier"}

// figures lists every figure in the order -fig all prints them.
func (b *bench) figures() []figure {
	effectiveness := func(name, wname string) figure {
		return figure{name, []string{wname}, func(w workload, roots []relational.TupleID) (eval.Figure, error) {
			fig, err := eval.Effectiveness(w.eng, w.dsRel, roots, figLs, allSettings, b.judge)
			fig.Title = "Figure " + name + strings.TrimPrefix(fig.Title, "Figure 8")
			return fig, err
		}}
	}
	author := []string{"dblp-author"}
	return []figure{
		effectiveness("8a", "dblp-author"), effectiveness("8b", "dblp-paper"),
		effectiveness("8c", "tpch-customer"), effectiveness("8d", "tpch-supplier"),
		{"snippets", author, func(w workload, roots []relational.TupleID) (eval.Figure, error) {
			return eval.SnippetComparison(w.eng, w.dsRel, roots, b.judge)
		}},
		{"9", allWorkloads, func(w workload, roots []relational.TupleID) (eval.Figure, error) {
			return eval.Approximation(w.eng, w.dsRel, roots, approxLs, sizelos.DefaultSetting)
		}},
		{"9e", author, func(w workload, _ []relational.TupleID) (eval.Figure, error) {
			// One small Author OS: the paper's |OS|=67 case, where all
			// methods reach 100% by l=25.
			small, err := eval.PickRoots(w.eng, w.dsRel, 1, 50, b.seed+31)
			if err != nil {
				return eval.Figure{}, err
			}
			fig, err := eval.Approximation(w.eng, w.dsRel, small, approxLs, sizelos.DefaultSetting)
			fig.Title += " [single small OS, Fig 9e]"
			return fig, err
		}},
		{"9f", author, func(w workload, roots []relational.TupleID) (eval.Figure, error) {
			return eval.ApproximationAcrossSettings(w.eng, w.dsRel, roots, 10, allSettings)
		}},
		{"10", allWorkloads, func(w workload, roots []relational.TupleID) (eval.Figure, error) {
			return eval.Efficiency(w.eng, w.dsRel, roots, approxLs, sizelos.DefaultSetting)
		}},
		{"10e", author, func(w workload, roots []relational.TupleID) (eval.Figure, error) {
			return eval.Scalability(w.eng, w.dsRel, roots, 10, sizelos.DefaultSetting)
		}},
		{"10f", []string{"tpch-supplier"}, func(w workload, roots []relational.TupleID) (eval.Figure, error) {
			return eval.GenerationBreakdown(w.eng, w.dsRel, roots, []int{10, 50}, sizelos.DefaultSetting)
		}},
		{"stability", author, func(w workload, roots []relational.TupleID) (eval.Figure, error) {
			return eval.LStability(w.eng, w.dsRel, roots, figLs, sizelos.DefaultSetting)
		}},
	}
}

func (b *bench) run(names []string) error {
	figs := b.figures()
	byName := make(map[string]figure, len(figs))
	for _, f := range figs {
		byName[f.name] = f
	}
	var todo []figure
	for _, name := range names {
		switch name = strings.TrimSpace(name); name {
		case "all":
			todo = append(todo, figs...)
		case "8":
			todo = append(todo, figs[:4]...) // 8a-8d
		default:
			f, ok := byName[name]
			if !ok {
				return fmt.Errorf("unknown figure %q", name)
			}
			todo = append(todo, f)
		}
	}
	for _, f := range todo {
		start := time.Now()
		if err := b.print(f); err != nil {
			return fmt.Errorf("figure %s: %w", f.name, err)
		}
		fmt.Printf("[fig %s done in %v]\n\n", f.name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// print runs f on each of its workloads and prints the tables.
func (b *bench) print(f figure) error {
	for _, name := range f.workloads {
		w, err := b.workload(name)
		if err != nil {
			return err
		}
		roots, err := eval.PickRoots(w.eng, w.dsRel, b.roots, w.minOS, b.seed+77)
		if err != nil {
			return err
		}
		fig, err := f.run(w, roots)
		if err != nil {
			return err
		}
		if len(f.workloads) > 1 {
			fig.Title += " [" + name + "]"
		}
		fmt.Print(fig.Format())
		if len(f.workloads) > 1 {
			fmt.Println()
		}
	}
	return nil
}

func (b *bench) getDBLP() (*sizelos.Engine, error) {
	if b.dblp == nil {
		fmt.Fprintf(os.Stderr, "building DBLP engine (%d authors, %d papers)...\n", b.dblpCfg.Authors, b.dblpCfg.Papers)
		eng, err := sizelos.OpenDBLP(b.dblpCfg)
		if err != nil {
			return nil, err
		}
		b.dblp = eng
	}
	return b.dblp, nil
}

func (b *bench) getTPCH() (*sizelos.Engine, error) {
	if b.tpch == nil {
		fmt.Fprintf(os.Stderr, "building TPC-H engine (sf=%v)...\n", b.tpchCfg.ScaleFactor)
		eng, err := sizelos.OpenTPCH(b.tpchCfg)
		if err != nil {
			return nil, err
		}
		b.tpch = eng
	}
	return b.tpch, nil
}

// workload names one (engine, DS relation) pair with a minimum OS size used
// when sampling roots.
type workload struct {
	eng   *sizelos.Engine
	dsRel string
	minOS int
}

func (b *bench) workload(name string) (workload, error) {
	switch name {
	case "dblp-author":
		eng, err := b.getDBLP()
		return workload{eng, "Author", 300}, err
	case "dblp-paper":
		eng, err := b.getDBLP()
		return workload{eng, "Paper", 20}, err
	case "tpch-customer":
		eng, err := b.getTPCH()
		return workload{eng, "Customer", 40}, err
	case "tpch-supplier":
		eng, err := b.getTPCH()
		return workload{eng, "Supplier", 100}, err
	default:
		return workload{}, fmt.Errorf("unknown workload %s", name)
	}
}
