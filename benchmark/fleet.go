package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"sizelos/internal/nodehost"
	"sizelos/internal/router"
	"sizelos/internal/tenancy"
)

// server is one loopback HTTP listener and the goroutine serving it.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "benchmark: serve %s: %v\n", s.url, err)
		}
	}()
	return s, nil
}

// stop closes the listener and every connection and waits for the serving
// goroutine.
func (s *server) stop() {
	_ = s.srv.Close() // only reports listener-close errors; nothing to act on
	<-s.done
}

// fleet is the system under test: three durable nodes on loopback listeners
// behind the consistent-hash router, all in this process. Every workload
// runs against the same deployment config: summary cache of sz.cache
// entries per tenant, WAL fsync on every commit, no QoS limits, health
// probing off (the members never change).
type fleet struct {
	dataDir string
	nodes   []*nodehost.Node
	servers []*server
	router  *router.Router
	front   *server
}

func discardLog(string, ...any) {}

func stderrLog(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

func nodeConfig(dataDir string, sz sizes) tenancy.ServerConfig {
	return tenancy.ServerConfig{CacheBudget: sz.cache, DataDir: dataDir, Seed: 1}
}

// bootFleet starts the nodes and the router over dataDir and registers the
// plan's tenants through the front door (which builds their engines and
// opens their WALs on the owning node). On a data dir that already holds
// the tenants, registration is skipped: the nodes adopt them from the
// manifest on first touch. wrap, when set, is put around every node's
// handler (the traced run times the handler with it).
func bootFleet(dataDir string, p *plan, register bool, wrap func(http.Handler) http.Handler) (f *fleet, err error) {
	f = &fleet{dataDir: dataDir}
	defer func() {
		if err != nil {
			f.discard()
		}
	}()
	var members []router.Member
	for _, name := range nodeNames {
		node, err := nodehost.Boot(nodeConfig(dataDir, p.sz), nil,
			nodehost.Config{Open: openDataset(p.sz), Logf: discardLog})
		if err != nil {
			return f, fmt.Errorf("boot %s: %w", name, err)
		}
		f.nodes = append(f.nodes, node)
		handler := node.Handler()
		if wrap != nil {
			handler = wrap(handler)
		}
		srv, err := serve(handler)
		if err != nil {
			return f, err
		}
		f.servers = append(f.servers, srv)
		members = append(members, router.Member{Name: name, URL: srv.url})
	}
	f.router, err = router.New(router.Config{Members: members, HealthInterval: -1, Logf: stderrLog})
	if err != nil {
		return f, err
	}
	if f.front, err = serve(f.router); err != nil {
		return f, err
	}
	owners := make(map[string]bool)
	for _, tenant := range p.tenants {
		owner, _ := f.router.Owner(tenant)
		owners[owner] = true
	}
	if len(owners) != len(p.tenants) {
		return f, fmt.Errorf("tenants %v are not spread one per node", p.tenants)
	}
	if !register {
		return f, nil
	}
	// One registration at a time: the nodes share the data dir's manifest,
	// and two nodes recording a tenant at once race on its temp file.
	c := newClient(f.front.url)
	defer c.close()
	for i, tenant := range p.tenants {
		body := fmt.Sprintf(`{"name":%q,"dataset":%q,"seed":%d}`, tenant, p.wl.dataset, p.tenantSeeds[i])
		status, resp, err := c.do(http.MethodPost, "/v1/tenants", body)
		if err == nil && status != http.StatusCreated {
			err = fmt.Errorf("status %d: %s", status, resp)
		}
		if err != nil {
			return f, fmt.Errorf("register %s: %w", tenant, err)
		}
	}
	return f, nil
}

// newDataDir makes a fresh data dir under the run's scratch directory,
// which lives inside the working directory so a run touches nothing else.
func newDataDir(scratch string) (string, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(scratch, "data-")
}

// abandon stops serving without closing the nodes: no final snapshot, WALs
// left as the last fsync wrote them, which is what a killed fleet leaves
// for its successor.
func (f *fleet) abandon() {
	if f.front != nil {
		f.front.stop()
	}
	if f.router != nil {
		f.router.Close() //errlint:ok (no error to drop: Router.Close returns nothing)
	}
	for _, s := range f.servers {
		s.stop()
	}
}

// closeWALs releases the nodes' WAL handles, still without a snapshot.
func (f *fleet) closeWALs() {
	for _, n := range f.nodes {
		if n.Hub != nil {
			n.Hub.CloseAll()
		}
	}
}

// discard abandons the fleet, closes its WALs and deletes its data dir.
func (f *fleet) discard() {
	f.abandon()
	f.closeWALs()
	if err := os.RemoveAll(f.dataDir); err != nil {
		stderrLog("remove %s: %v", f.dataDir, err)
	}
}

// cacheStats sums the tenants' summary-cache and pool counters as the
// /stats endpoint reports them.
type cacheStats struct {
	hits, misses, poolWaitNs uint64
}

func (f *fleet) stats(tenants []string) (cacheStats, error) {
	var total cacheStats
	c := newClient(f.front.url)
	defer c.close()
	for _, tenant := range tenants {
		status, body, err := c.do(http.MethodGet, "/v1/"+tenant+"/stats", "")
		if err != nil || status != http.StatusOK {
			return total, fmt.Errorf("stats %s: status %d: %v", tenant, status, err)
		}
		var st tenancy.StatsResponse
		if err := json.Unmarshal(body, &st); err != nil {
			return total, fmt.Errorf("stats %s: %w", tenant, err)
		}
		total.hits += st.Cache.Hits
		total.misses += st.Cache.Misses
		// The pool is per node, and every tenant here has its own node.
		total.poolWaitNs += st.Pool.WaitNanos
	}
	return total, nil
}

// client is one closed-loop caller: its own connection, one request in
// flight, the response read to the end before the next request.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		},
	}
}

// do issues one request with no retries. The returned body is valid until
// the client's next call.
func (c *client) do(method, path, body string) (status int, resp []byte, err error) {
	var req *http.Request
	if body == "" {
		req, err = http.NewRequest(method, c.base+path, nil)
	} else {
		req, err = http.NewRequest(method, c.base+path, strings.NewReader(body))
	}
	if err != nil {
		return 0, nil, err
	}
	r, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer r.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(r.Body); err != nil {
		return r.StatusCode, nil, err
	}
	return r.StatusCode, c.buf.Bytes(), nil
}

// close drops the client's connection.
func (c *client) close() { c.hc.CloseIdleConnections() }
