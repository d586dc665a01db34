// Command osload drives a closed-loop, template-driven workload — mixed
// keyword searches, ranked top-k queries, and tuple mutations at a fixed
// concurrency — against a sizelos service front door: a single ossrv node
// or an osrouter fleet. Every acked mutation inserts a unique token that a
// later read through the same front door must find, so a run is also an
// end-to-end consistency check across routing, failover, and migration;
// any missing token fails the run with exit status 2.
//
//	osload -base http://localhost:8080 -tenant demo -ops 500 -concurrency 8
//	osload -base http://localhost:8080 -tenant a -tenant b -register \
//	  -ops 2000 -mutate-permille 300 -out osload.json
//
// -register creates the named tenants (dataset dblp) through the front
// door before the run. -out writes the run — per-class p50/p99 latency
// (nanoseconds), per-node response counts (from the X-Sizelos-Node header
// osrouter stamps), and the consistency ledger — as the JSON encoding of
// loadgen.Result. Throughput and latency under a fixed workload are the
// repo benchmark's job (benchmark/, BENCHMARK.json); osload is the
// consistency client for real processes under faults.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"sizelos/internal/loadgen"
)

type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	var tenants stringList
	var (
		base        = flag.String("base", "http://localhost:8080", "service front door (osrouter or a single ossrv)")
		concurrency = flag.Int("concurrency", 4, "closed-loop worker count (one request in flight each)")
		ops         = flag.Int("ops", 200, "total operation budget across workers")
		mutatePm    = flag.Int("mutate-permille", 200, "per-mille of operations that are mutation batches")
		seed        = flag.Int64("seed", 1, "op template seed")
		register    = flag.Bool("register", false, "register the named tenants (dataset dblp) before the run")
		adminToken  = flag.String("admin-token", "", "bearer token for -register against a locked admin plane")
		out         = flag.String("out", "", "write the run (loadgen.Result) as JSON to this path")
	)
	flag.Var(&tenants, "tenant", "tenant to load (repeatable; at least one required)")
	flag.Parse()
	if len(tenants) == 0 {
		log.Fatal("osload: at least one -tenant required")
	}

	if *register {
		for _, name := range tenants {
			if err := registerTenant(*base, name, *adminToken); err != nil {
				log.Fatalf("osload: register %s: %v", name, err)
			}
		}
	}

	res, err := loadgen.Run(loadgen.Config{
		BaseURL:        *base,
		Tenants:        tenants,
		Concurrency:    *concurrency,
		Ops:            *ops,
		MutatePermille: *mutatePm,
		Seed:           *seed,
		Logf:           log.Printf,
	})
	if err != nil {
		log.Fatalf("osload: %v", err)
	}

	printSummary(res)

	if *out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatalf("osload: %v", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("osload: %v", err)
		}
		log.Printf("osload: report written to %s", *out)
	}

	if len(res.Missing) > 0 {
		log.Printf("osload: CONSISTENCY FAILURE: %d acked mutations not visible: %v", len(res.Missing), res.Missing)
		os.Exit(2)
	}
}

func registerTenant(base, name, token string) error {
	body := fmt.Sprintf(`{"name":%q,"dataset":"dblp"}`, name)
	req, err := http.NewRequest(http.MethodPost, base+"/v1/tenants", strings.NewReader(body))
	if err != nil {
		return err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// 409 = already registered: fine for a rerun against a durable fleet.
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

func printSummary(res *loadgen.Result) {
	log.Printf("osload: %d ops in %s (%.1f ops/sec), %d errors",
		res.Ops, res.Elapsed.Round(time.Millisecond), res.Throughput(), res.Errors)
	classes := make([]string, 0, len(res.Classes))
	for class := range res.Classes {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		cs := res.Classes[class]
		log.Printf("osload:   %-7s count %5d  p50 %8s  p99 %8s",
			class, cs.Count, cs.P50.Round(100*time.Microsecond), cs.P99.Round(100*time.Microsecond))
	}
	nodes := make([]string, 0, len(res.PerNode))
	for node := range res.PerNode {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		label := node
		if label == "" {
			label = "(unrouted)"
		}
		log.Printf("osload:   node %-10s %6d responses (%.1f/sec)",
			label, res.PerNode[node], float64(res.PerNode[node])/res.Elapsed.Seconds())
	}
	log.Printf("osload: consistency: %d acked, %d verified, %d missing",
		res.Acked, res.Verified, len(res.Missing))
}
