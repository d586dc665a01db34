// Quickstart: open the synthetic DBLP database, run the paper's running
// example Q1 ("Faloutsos") with l=15, and print the resulting size-l
// Object Summaries — the equivalent of the paper's Example 5.
package main

import (
	"fmt"
	"log"

	"sizelos"
	"sizelos/internal/datagen"
)

func main() {
	// A small, fast configuration; see examples/dpa_report for the default
	// evaluation scale.
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 300
	cfg.Papers = 1500

	eng, err := sizelos.OpenDBLP(cfg)
	if err != nil {
		log.Fatalf("open dblp: %v", err)
	}

	page, _, stats, err := eng.QueryPage(sizelos.QueryRequest{Rel: "Author", Query: "Faloutsos", L: 15})
	if err != nil {
		log.Fatalf("search: %v", err)
	}
	fmt.Printf("Q1 = \"Faloutsos\", l = 15: %d data subjects\n\n", stats.Matches)
	for _, r := range page {
		fmt.Printf("=== %s (Im(S) = %.2f) ===\n", r.Headline, r.Result.Importance)
		fmt.Println(r.Text)
	}
}
