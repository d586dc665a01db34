// Command oskws is the interactive keyword-search front end: it runs the
// paper's query paradigm end-to-end against one of the synthetic databases
// and prints the ranked size-l Object Summaries (as in Example 5).
//
// Usage:
//
//	oskws -db dblp -rel Author -l 15 Faloutsos
//	oskws -db tpch -rel Customer -l 10 'Customer#000001'
//	oskws -db dblp -rel Author -l 15 -algo dp -complete 'Christos Faloutsos'
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sizelos"
	"sizelos/internal/datagen"
)

func main() {
	var (
		dbName   = flag.String("db", "dblp", "database: dblp or tpch")
		rel      = flag.String("rel", "Author", "data subject relation")
		l        = flag.Int("l", 15, "summary size l")
		algo     = flag.String("algo", "top-path", "algorithm: dp, bottom-up, top-path")
		setting  = flag.String("setting", sizelos.DefaultSetting, "ranking setting")
		complete = flag.Bool("complete", false, "compute from the complete OS instead of prelim-l")
		weights  = flag.Bool("weights", false, "show local importance per tuple")
		limit    = flag.Int("limit", 0, "max data subjects to summarize (0 = all)")
		seed     = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()
	query := strings.Join(flag.Args(), " ")
	if query == "" {
		fmt.Fprintln(os.Stderr, "usage: oskws [flags] <keywords>")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var (
		eng *sizelos.Engine
		err error
	)
	switch *dbName {
	case "dblp":
		cfg := datagen.DefaultDBLPConfig()
		cfg.Seed = *seed
		eng, err = sizelos.OpenDBLP(cfg)
	case "tpch":
		cfg := datagen.DefaultTPCHConfig()
		cfg.Seed = *seed
		eng, err = sizelos.OpenTPCH(cfg)
	default:
		err = fmt.Errorf("unknown database %q", *dbName)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "oskws: %v\n", err)
		os.Exit(1)
	}

	// -limit stops the pipeline before the remaining matches are ever
	// summarized: stats.Summaries counts the ones that were.
	page, cursor, stats, err := eng.QueryPage(sizelos.QueryRequest{
		Rel:         *rel,
		Query:       query,
		L:           *l,
		Setting:     *setting,
		Algorithm:   sizelos.Algorithm(*algo),
		Complete:    *complete,
		Limit:       *limit,
		ShowWeights: *weights,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "oskws: %v\n", err)
		os.Exit(1)
	}
	if len(page) == 0 {
		fmt.Printf("no %s tuples match %q\n", *rel, query)
		return
	}
	for i, r := range page {
		fmt.Printf("--- result %d/%d: %s (Im(S)=%.2f, %d tuples) ---\n",
			i+1, len(page), r.Headline, r.Result.Importance, len(r.Result.Nodes))
		fmt.Println(r.Text)
	}
	if cursor != "" {
		fmt.Printf("(summarized %d of %d matches)\n", stats.Summaries, stats.Matches)
	}
}
