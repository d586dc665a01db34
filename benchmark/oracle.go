package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"sizelos"
	"sizelos/internal/tenancy"
)

// request lowers a query onto the engine's own request type, the way the
// tenancy layer does for an HTTP request (cache scope = tenant name).
func (q *query) request(tenant string) sizelos.QueryRequest {
	req := sizelos.QueryRequest{
		Rel: q.rel, Query: q.keywords, L: q.l,
		Setting: q.setting, Algorithm: sizelos.Algorithm(q.algo),
		Limit: pageLimit, CacheScope: tenant,
	}
	if q.ranked {
		req.RankBySummary, req.K, req.Limit = true, pageLimit, 0
	}
	return req
}

// checkReads is the read oracle: every kept response must equal, summary
// by summary (tuple, text, importance), what QueryPage returns on a
// reference engine built from the same dataset seed. It returns the number
// of responses compared.
func checkReads(p *plan, r *runner) (int, error) {
	refs := make([]*sizelos.Engine, numTenants)
	errs := make([]error, numTenants)
	var wg sync.WaitGroup
	for t := range refs {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			refs[t], errs[t] = openDataset(p.sz)(p.wl.dataset, p.tenantSeeds[t])
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("reference engine: %w", err)
		}
	}
	checked := 0
	for c, cs := range r.clients {
		for _, k := range cs.kept {
			ref, req := refs[k.o.tenant], k.o.q.request(p.tenants[k.o.tenant])
			if k.paged {
				_, cursor, _, err := ref.QueryPage(req)
				if err != nil {
					return checked, fmt.Errorf("reference %s: %w", k.o, err)
				}
				req.Cursor = cursor
			}
			want, _, _, err := ref.QueryPage(req)
			if err != nil {
				return checked, fmt.Errorf("reference %s: %w", k.o, err)
			}
			var got tenancy.SearchResponse
			if err := json.Unmarshal(k.body, &got); err != nil {
				return checked, fmt.Errorf("client %d %s: %w", c, k.o, err)
			}
			if len(got.Results) != len(want) {
				return checked, fmt.Errorf("client %d %s: %d summaries, reference has %d", c, k.o, len(got.Results), len(want))
			}
			for i, s := range got.Results {
				w := want[i]
				if s.Tuple != int(w.Tuple) || s.Text != w.Text || s.Importance != w.Result.Importance {
					return checked, fmt.Errorf("client %d %s: summary %d is tuple %d (Im %v), reference has tuple %d (Im %v)",
						c, k.o, i, s.Tuple, s.Importance, w.Tuple, w.Result.Importance)
				}
			}
			checked++
		}
	}
	return checked, nil
}

// verifyTokens reads every acked token back through base and returns the
// ones that are missing.
func verifyTokens(p *plan, r *runner, base string) []string {
	var (
		mu      sync.Mutex
		missing []string
	)
	r.all(func(cs *clientState) {
		c := newClient(base)
		defer c.close()
		for _, a := range cs.acked {
			path := fmt.Sprintf("/v1/%s/search?rel=Author&q=%s&l=5", p.tenants[a.tenant], a.token)
			status, body, err := c.do(http.MethodGet, path, "")
			var out tenancy.SearchResponse
			if err == nil && status == http.StatusOK {
				err = json.Unmarshal(body, &out)
			}
			if err != nil || out.Count < 1 {
				mu.Lock()
				missing = append(missing, p.tenants[a.tenant]+"/"+a.token)
				mu.Unlock()
			}
		}
	})
	return missing
}

// checkWrites is the write oracle. Every acked token must be readable
// through the router; then the fleet is abandoned as a kill would leave it
// (no Close, no final snapshot), a new fleet is booted on the same data
// dir, and every acked token must be readable again. It returns the number
// of tokens and how long the restarted fleet took to serve its first read
// of every tenant (WAL replay included). The restarted fleet replaces f.
func checkWrites(p *plan, r *runner, f *fleet) (tokens int, restarted *fleet, recovery time.Duration, err error) {
	for _, cs := range r.clients {
		tokens += len(cs.acked)
	}
	if missing := verifyTokens(p, r, f.front.url); len(missing) > 0 {
		return tokens, nil, 0, fmt.Errorf("%d of %d acked writes unreadable before restart, first %s", len(missing), tokens, missing[0])
	}
	f.abandon()
	restarted, err = bootFleet(f.dataDir, p, false, nil)
	if err != nil {
		return tokens, nil, 0, fmt.Errorf("restart on %s: %w", f.dataDir, err)
	}
	start := time.Now()
	if _, err := restarted.stats(p.tenants); err != nil {
		return tokens, restarted, 0, fmt.Errorf("first touch after restart: %w", err)
	}
	recovery = time.Since(start)
	if missing := verifyTokens(p, r, restarted.front.url); len(missing) > 0 {
		return tokens, restarted, recovery, fmt.Errorf("%d of %d acked writes lost across the restart, first %s", len(missing), tokens, missing[0])
	}
	return tokens, restarted, recovery, nil
}
