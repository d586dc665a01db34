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
	judges  int
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

	b := &bench{dblpCfg: dblpCfg, tpchCfg: tpchCfg, roots: *roots, judges: *judges, seed: *seed}
	if err := b.run(strings.Split(*fig, ",")); err != nil {
		fmt.Fprintf(os.Stderr, "osbench: %v\n", err)
		os.Exit(1)
	}
}

func (b *bench) run(figs []string) error {
	expand := map[string][]string{
		"all": {"8a", "8b", "8c", "8d", "snippets", "9", "9e", "9f", "10", "10e", "10f", "stability"},
		"8":   {"8a", "8b", "8c", "8d"},
	}
	var todo []string
	for _, f := range figs {
		f = strings.TrimSpace(f)
		if sub, ok := expand[f]; ok {
			todo = append(todo, sub...)
		} else {
			todo = append(todo, f)
		}
	}
	for _, f := range todo {
		start := time.Now()
		if err := b.figure(f); err != nil {
			return fmt.Errorf("figure %s: %w", f, err)
		}
		fmt.Printf("[fig %s done in %v]\n\n", f, time.Since(start).Round(time.Millisecond))
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

func (b *bench) rootsFor(w workload) ([]relational.TupleID, error) {
	return eval.PickRoots(w.eng, w.dsRel, b.roots, w.minOS, b.seed+77)
}

func (b *bench) judgeCfg() eval.JudgeConfig {
	cfg := eval.DefaultJudgeConfig()
	cfg.Judges = b.judges
	return cfg
}

func (b *bench) figure(name string) error {
	switch name {
	case "8a", "8b", "8c", "8d":
		wname := map[string]string{
			"8a": "dblp-author", "8b": "dblp-paper",
			"8c": "tpch-customer", "8d": "tpch-supplier",
		}[name]
		w, err := b.workload(wname)
		if err != nil {
			return err
		}
		roots, err := b.rootsFor(w)
		if err != nil {
			return err
		}
		fig, err := eval.Effectiveness(w.eng, w.dsRel, roots, figLs, allSettings, b.judgeCfg())
		if err != nil {
			return err
		}
		fig.Title = fmt.Sprintf("Figure %s: %s", name, fig.Title[10:])
		fmt.Print(fig.Format())
	case "snippets":
		w, err := b.workload("dblp-author")
		if err != nil {
			return err
		}
		roots, err := b.rootsFor(w)
		if err != nil {
			return err
		}
		fig, err := eval.SnippetComparison(w.eng, w.dsRel, roots, b.judgeCfg())
		if err != nil {
			return err
		}
		fmt.Print(fig.Format())
	case "9":
		for _, wname := range []string{"dblp-author", "dblp-paper", "tpch-customer", "tpch-supplier"} {
			w, err := b.workload(wname)
			if err != nil {
				return err
			}
			roots, err := b.rootsFor(w)
			if err != nil {
				return err
			}
			fig, err := eval.Approximation(w.eng, w.dsRel, roots, approxLs, sizelos.DefaultSetting)
			if err != nil {
				return err
			}
			fig.Title += " [" + wname + "]"
			fmt.Print(fig.Format())
			fmt.Println()
		}
	case "9e":
		// One small Author OS: the paper's |OS|=67 case, where all methods
		// reach 100% by l=25.
		w, err := b.workload("dblp-author")
		if err != nil {
			return err
		}
		small, err := eval.PickRoots(w.eng, w.dsRel, 1, 50, b.seed+31)
		if err != nil {
			return err
		}
		fig, err := eval.Approximation(w.eng, w.dsRel, small, approxLs, sizelos.DefaultSetting)
		if err != nil {
			return err
		}
		fig.Title += " [single small OS, Fig 9e]"
		fmt.Print(fig.Format())
	case "9f":
		w, err := b.workload("dblp-author")
		if err != nil {
			return err
		}
		roots, err := b.rootsFor(w)
		if err != nil {
			return err
		}
		fig, err := eval.ApproximationAcrossSettings(w.eng, w.dsRel, roots, 10, allSettings)
		if err != nil {
			return err
		}
		fmt.Print(fig.Format())
	case "10":
		for _, wname := range []string{"dblp-author", "dblp-paper", "tpch-customer", "tpch-supplier"} {
			w, err := b.workload(wname)
			if err != nil {
				return err
			}
			roots, err := b.rootsFor(w)
			if err != nil {
				return err
			}
			fig, err := eval.Efficiency(w.eng, w.dsRel, roots, approxLs, sizelos.DefaultSetting)
			if err != nil {
				return err
			}
			fig.Title += " [" + wname + "]"
			fmt.Print(fig.Format())
			fmt.Println()
		}
	case "10e":
		w, err := b.workload("dblp-author")
		if err != nil {
			return err
		}
		roots, err := b.rootsFor(w)
		if err != nil {
			return err
		}
		fig, err := eval.Scalability(w.eng, w.dsRel, roots, 10, sizelos.DefaultSetting)
		if err != nil {
			return err
		}
		fmt.Print(fig.Format())
	case "10f":
		w, err := b.workload("tpch-supplier")
		if err != nil {
			return err
		}
		roots, err := b.rootsFor(w)
		if err != nil {
			return err
		}
		fig, err := eval.GenerationBreakdown(w.eng, w.dsRel, roots, []int{10, 50}, sizelos.DefaultSetting)
		if err != nil {
			return err
		}
		fmt.Print(fig.Format())
	case "stability":
		w, err := b.workload("dblp-author")
		if err != nil {
			return err
		}
		roots, err := b.rootsFor(w)
		if err != nil {
			return err
		}
		fig, err := eval.LStability(w.eng, w.dsRel, roots, figLs, sizelos.DefaultSetting)
		if err != nil {
			return err
		}
		fmt.Print(fig.Format())
	default:
		return fmt.Errorf("unknown figure %q", name)
	}
	return nil
}
