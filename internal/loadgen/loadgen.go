// Package loadgen is a closed-loop load generator and consistency checker
// for the routed (or single-node) service API: a fixed number of workers
// each keep exactly one request in flight, drawing operations — keyword
// search, ranked top-k, and tuple mutations — from a deterministic
// template mix. Every acked mutation inserts a unique token and the
// harness later re-reads it through the same base URL, so a run doubles as
// an end-to-end consistency oracle: with a router in front, an acked write
// must be visible to every later routed read, across failovers and
// migrations. A Result carries per-class p50/p99 latency, per-node
// response counts (from the X-Sizelos-Node response header) and the
// acked-token ledger, and marshals to JSON as it stands.
package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Op classes reported in Result.Classes.
const (
	OpSearch = "search"
	OpRanked = "ranked"
	OpMutate = "mutate"
	OpVerify = "verify"
)

// Config parameterizes one run.
type Config struct {
	// BaseURL fronts the service — a router or a single node.
	BaseURL string
	// Tenants are the registered tenants the workload spreads over.
	Tenants []string
	// Concurrency is the worker count; each worker keeps one request in
	// flight (closed loop). Default 4.
	Concurrency int
	// Ops is the total operation budget across workers. Default 200.
	Ops int
	// MutatePermille of operations are mutation batches (default 200,
	// i.e. 20%); half of the remainder are ranked queries.
	MutatePermille int
	// Seed makes the op template sequence deterministic.
	Seed int64
	// Queries are the search keywords the read template cycles through.
	// Default: the paper's running example ("Faloutsos").
	Queries []string
	// Client issues the requests; nil means a 30s-timeout client.
	Client *http.Client
	// Logf receives progress lines; nil = silent.
	Logf func(format string, args ...any)
}

func (c *Config) fill() error {
	if c.BaseURL == "" || len(c.Tenants) == 0 {
		return fmt.Errorf("loadgen: BaseURL and at least one tenant required")
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 4
	}
	if c.Ops <= 0 {
		c.Ops = 200
	}
	if c.MutatePermille == 0 {
		c.MutatePermille = 200
	}
	if len(c.Queries) == 0 {
		c.Queries = []string{"Faloutsos", "Agrawal", "Mamoulis"}
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return nil
}

// ClassStats summarizes one op class's latency distribution.
type ClassStats struct {
	Count int64         `json:"count"`
	P50   time.Duration `json:"p50"`
	P99   time.Duration `json:"p99"`
}

// Result is one completed run.
type Result struct {
	Ops     int64                  `json:"ops"`
	Errors  int64                  `json:"errors"`
	Elapsed time.Duration          `json:"elapsed"`
	Classes map[string]*ClassStats `json:"classes"`
	// PerNode counts responses by X-Sizelos-Node header; single-node runs
	// put everything under "" unless the server names itself.
	PerNode map[string]int64 `json:"per_node"`
	// Acked/Verified/Missing is the consistency ledger: unique tokens
	// whose insert was acknowledged, how many a later read found, and the
	// tokens lost. Missing > 0 is a correctness failure, not a perf number.
	Acked    int64    `json:"acked"`
	Verified int64    `json:"verified"`
	Missing  []string `json:"missing,omitempty"`
}

// Throughput is overall ops/sec.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

type sample struct {
	class string
	d     time.Duration
	node  string
	err   bool
}

type ackedToken struct {
	tenant, token string
}

// Run drives the configured workload to completion and then sweeps every
// acked token with a verification read.
func Run(cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	var (
		mu      sync.Mutex
		samples []sample
		acked   []ackedToken
		opNext  int
	)
	takeOp := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if opNext >= cfg.Ops {
			return 0, false
		}
		opNext++
		return opNext - 1, true
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(worker)*7919))
			for {
				op, ok := takeOp()
				if !ok {
					return
				}
				tenant := cfg.Tenants[op%len(cfg.Tenants)]
				s := runOp(cfg, rng, worker, op, tenant, &mu, &acked)
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	logf("loadgen: %d ops in %s; verifying %d acked mutations", cfg.Ops, elapsed.Round(time.Millisecond), len(acked))

	// Consistency sweep: every acked token must be visible now.
	res := &Result{
		Elapsed: elapsed,
		Classes: make(map[string]*ClassStats),
		PerNode: make(map[string]int64),
		Acked:   int64(len(acked)),
	}
	for _, a := range acked {
		s, found := verifyToken(cfg, a)
		samples = append(samples, s)
		if found {
			res.Verified++
		} else {
			res.Missing = append(res.Missing, a.tenant+"/"+a.token)
		}
	}

	byClass := make(map[string][]time.Duration)
	for _, s := range samples {
		res.Ops++
		if s.err {
			res.Errors++
		}
		if s.node != "" {
			res.PerNode[s.node]++
		}
		byClass[s.class] = append(byClass[s.class], s.d)
	}
	for class, ds := range byClass {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		res.Classes[class] = &ClassStats{
			Count: int64(len(ds)),
			P50:   percentile(ds, 50),
			P99:   percentile(ds, 99),
		}
	}
	return res, nil
}

// runOp executes one templated operation; mutations append their token to
// acked only when the service acknowledged the batch.
func runOp(cfg Config, rng *rand.Rand, worker, op int, tenant string, mu *sync.Mutex, acked *[]ackedToken) sample {
	if rng.Intn(1000) < cfg.MutatePermille {
		token := fmt.Sprintf("osload%dx%d", worker, op)
		id := 500000 + worker*100000 + op
		body := fmt.Sprintf(`{"inserts":[{"rel":"Author","values":[%d,%q]}]}`, id, token)
		s, status, _ := request(cfg, http.MethodPost, "/v1/"+tenant+"/tuples", body, OpMutate)
		if status == http.StatusOK {
			mu.Lock()
			*acked = append(*acked, ackedToken{tenant: tenant, token: token})
			mu.Unlock()
		}
		return s
	}
	q := cfg.Queries[rng.Intn(len(cfg.Queries))]
	if rng.Intn(2) == 0 {
		s, _, _ := request(cfg, http.MethodGet, "/v1/"+tenant+"/ranked?rel=Author&q="+q+"&l=10&k=3", "", OpRanked)
		return s
	}
	s, _, _ := request(cfg, http.MethodGet, "/v1/"+tenant+"/search?rel=Author&q="+q+"&l=10", "", OpSearch)
	return s
}

// verifyToken re-reads one acked token through the front door.
func verifyToken(cfg Config, a ackedToken) (sample, bool) {
	s, status, body := request(cfg, http.MethodGet, "/v1/"+a.tenant+"/search?rel=Author&q="+a.token+"&l=5", "", OpVerify)
	if status != http.StatusOK {
		return s, false
	}
	var out struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(body, &out); err != nil || out.Count < 1 {
		s.err = true
		return s, false
	}
	return s, true
}

// request issues one HTTP call, retrying retryable 429/503 answers (the
// router emits them during drains and evictions) a bounded number of
// times — a closed-loop client behind a migrating fleet is expected to
// retry, not to count the drain as an error.
func request(cfg Config, method, path, body, class string) (sample, int, []byte) {
	start := time.Now()
	var (
		status int
		node   string
		data   []byte
	)
	failed := true
	for attempt := 0; attempt < 50; attempt++ {
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, cfg.BaseURL+path, rd)
		if err != nil {
			break
		}
		resp, err := cfg.Client.Do(req)
		if err != nil {
			// Connection-level failure: the fleet may be mid-failover.
			time.Sleep(100 * time.Millisecond)
			continue
		}
		data, _ = io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		status = resp.StatusCode
		node = resp.Header.Get("X-Sizelos-Node")
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable ||
			status == http.StatusBadGateway {
			time.Sleep(100 * time.Millisecond)
			continue
		}
		failed = status >= 400
		break
	}
	return sample{class: class, d: time.Since(start), node: node, err: failed}, status, data
}

func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}
