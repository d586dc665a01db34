package router

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sizelos"
	"sizelos/internal/datagen"
	"sizelos/internal/nodehost"
	"sizelos/internal/tenancy"
)

// smallOpen swaps the full-size default datasets for a tiny DBLP recipe so
// a three-node fleet boots in milliseconds. Deterministic in seed, as
// recovery requires.
func smallOpen(dataset string, seed int64) (*sizelos.Engine, error) {
	if dataset != "dblp" {
		return nil, fmt.Errorf("test fleet serves dblp only, got %q", dataset)
	}
	cfg := datagen.DefaultDBLPConfig()
	cfg.Seed = seed
	cfg.Authors = 40
	cfg.Papers = 160
	cfg.Conferences = 4
	cfg.YearSpan = 3
	return sizelos.OpenDBLP(cfg)
}

// fleet is a routed three-node fleet over one shared durable data dir,
// entirely in-process.
type fleet struct {
	router  *Router
	rtSrv   *httptest.Server
	nodes   map[string]*nodehost.Node
	servers map[string]*httptest.Server
}

func newFleet(t *testing.T, names ...string) *fleet {
	t.Helper()
	dir := t.TempDir()
	f := &fleet{
		nodes:   make(map[string]*nodehost.Node),
		servers: make(map[string]*httptest.Server),
	}
	var members []Member
	for _, name := range names {
		node, err := nodehost.Boot(tenancy.ServerConfig{
			Seed:          820,
			CacheBudget:   64,
			DataDir:       dir,
			KeepSnapshots: 2,
		}, nil, nodehost.Config{Open: smallOpen, Logf: t.Logf})
		if err != nil {
			t.Fatalf("boot %s: %v", name, err)
		}
		srv := httptest.NewServer(node.Handler())
		f.nodes[name] = node
		f.servers[name] = srv
		members = append(members, Member{Name: name, URL: srv.URL})
		t.Cleanup(srv.Close)
		t.Cleanup(node.Close)
	}
	rt, err := New(Config{
		Members:        members,
		HealthInterval: -1, // tests drive CheckNow
		HealthTimeout:  2 * time.Second,
		DrainTimeout:   5 * time.Second,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.router = rt
	f.rtSrv = httptest.NewServer(rt)
	t.Cleanup(f.rtSrv.Close)
	t.Cleanup(rt.Close)
	return f
}

// kill makes a node unreachable (its durable state stays on disk) and
// evicts it via two failed probe rounds.
func (f *fleet) kill(t *testing.T, name string) {
	t.Helper()
	f.servers[name].Close()
	f.nodes[name].Close() // release WALs as a SIGKILL's fsync'd logs would be
	f.router.CheckNow()
	f.router.CheckNow()
	if f.router.Healthy(name) {
		t.Fatalf("member %s still on the ring after two failed probes", name)
	}
}

// exchange is one recorded request/response against a base URL, with its
// framing: the Content-Length header and any transfer coding.
type exchange struct {
	path          string
	status        int
	node          string
	body          string
	contentLength string
	transfer      []string
}

func do(t *testing.T, base, method, path string, body string) exchange {
	t.Helper()
	ex, err := doErr(base, method, path, body)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	return ex
}

// doErr is do for goroutines other than the test's: it returns the error
// instead of calling t.Fatal.
func doErr(base, method, path string, body string) (exchange, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		return exchange{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return exchange{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return exchange{
		path: path, status: resp.StatusCode, node: resp.Header.Get(NodeHeader), body: string(b),
		contentLength: resp.Header.Get("Content-Length"), transfer: resp.TransferEncoding,
	}, err
}

// stream drives the equivalence workload against one base URL: tenant
// registration, keyword search, ranked top-k, a paged cursor walk, a
// mutation batch, and a search observing it.
func stream(t *testing.T, base string) []exchange {
	t.Helper()
	var out []exchange
	rec := func(method, path, body string) exchange {
		ex := do(t, base, method, path, body)
		out = append(out, ex)
		return ex
	}
	tenants := []string{"tenant-a", "tenant-b", "tenant-c"}
	for _, name := range tenants {
		rec(http.MethodPost, "/v1/tenants", fmt.Sprintf(`{"name":%q,"dataset":"dblp"}`, name))
	}
	rec(http.MethodGet, "/v1/tenants", "")
	for _, name := range tenants {
		rec(http.MethodGet, "/v1/"+name+"/search?rel=Author&q=Faloutsos&l=10", "")
		rec(http.MethodGet, "/v1/"+name+"/ranked?rel=Author&q=Faloutsos&l=10&k=3", "")
	}
	// Paged walk: follow cursors to exhaustion; tokens and pages must be
	// identical routed and direct.
	next := "/v1/tenant-a/search?rel=Author&q=Faloutsos&l=10&limit=1"
	for i := 0; i < 10; i++ {
		ex := rec(http.MethodGet, next, "")
		var page struct {
			Cursor string `json:"cursor"`
		}
		if err := json.Unmarshal([]byte(ex.body), &page); err != nil {
			t.Fatalf("page %d: %v (%s)", i, err, ex.body)
		}
		if page.Cursor == "" {
			break
		}
		next = "/v1/tenant-a/search?rel=Author&q=Faloutsos&l=10&limit=1&cursor=" + page.Cursor
	}
	for i, name := range tenants {
		rec(http.MethodPost, "/v1/"+name+"/tuples",
			fmt.Sprintf(`{"inserts":[{"rel":"Author","values":[%d,"Equivalence Probe"]}]}`, 91000+i))
		rec(http.MethodGet, "/v1/"+name+"/search?rel=Author&q=Equivalence+Probe&l=5", "")
	}
	return out
}

// TestRoutedEquivalence pins the tentpole contract: the same request
// stream through the router over a three-node fleet returns bit-identical
// status codes and bodies to a single ossrv node, every one framed by a
// Content-Length and never chunked.
func TestRoutedEquivalence(t *testing.T) {
	f := newFleet(t, "n1", "n2", "n3")

	single, err := nodehost.Boot(tenancy.ServerConfig{
		Seed:          820,
		CacheBudget:   64,
		DataDir:       t.TempDir(),
		KeepSnapshots: 2,
	}, nil, nodehost.Config{Open: smallOpen, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	singleSrv := httptest.NewServer(single.Handler())
	defer singleSrv.Close()

	routed := stream(t, f.rtSrv.URL)
	direct := stream(t, singleSrv.URL)

	if len(routed) != len(direct) {
		t.Fatalf("stream lengths diverged: routed %d, direct %d", len(routed), len(direct))
	}
	for side, exs := range map[string][]exchange{"routed": routed, "direct": direct} {
		for i, ex := range exs {
			if ex.contentLength != strconv.Itoa(len(ex.body)) || len(ex.transfer) != 0 {
				t.Errorf("%s exchange %d (%s): Content-Length %q, transfer coding %v for a %d-byte body",
					side, i, ex.path, ex.contentLength, ex.transfer, len(ex.body))
			}
		}
	}
	nodesSeen := make(map[string]bool)
	for i := range routed {
		if routed[i].status != direct[i].status {
			t.Errorf("exchange %d: status routed %d != direct %d\nrouted: %s\ndirect: %s",
				i, routed[i].status, direct[i].status, routed[i].body, direct[i].body)
		}
		if routed[i].body != direct[i].body {
			t.Errorf("exchange %d: body diverged\nrouted: %s\ndirect: %s", i, routed[i].body, direct[i].body)
		}
		// The fleet-wide tenant index is answered by the router itself
		// (a merge), so only tenant-scoped exchanges carry a node header.
		if routed[i].path == "/v1/tenants" {
			continue
		}
		if routed[i].node == "" {
			t.Errorf("exchange %d (%s): routed response missing %s header", i, routed[i].path, NodeHeader)
		}
		nodesSeen[routed[i].node] = true
	}
	// Placement stability: each tenant's requests all landed on its owner.
	for _, tenant := range []string{"tenant-a", "tenant-b", "tenant-c"} {
		owner, ok := f.router.Owner(tenant)
		if !ok {
			t.Fatalf("no owner for %s", tenant)
		}
		ex := do(t, f.rtSrv.URL, http.MethodGet, "/v1/"+tenant+"/search?rel=Author&q=Faloutsos&l=5", "")
		if ex.node != owner {
			t.Errorf("tenant %s served by %s, ring owner is %s", tenant, ex.node, owner)
		}
	}
	if len(nodesSeen) < 2 {
		t.Errorf("three tenants all landed on one node (%v); suspicious placement", nodesSeen)
	}
}

// TestFailoverRehash kills a fleet node and verifies its durable tenants
// rehash to surviving members and serve every acked mutation.
func TestFailoverRehash(t *testing.T) {
	f := newFleet(t, "n1", "n2", "n3")

	tenants := []string{"tenant-a", "tenant-b", "tenant-c"}
	for i, name := range tenants {
		if ex := do(t, f.rtSrv.URL, http.MethodPost, "/v1/tenants",
			fmt.Sprintf(`{"name":%q,"dataset":"dblp"}`, name)); ex.status != http.StatusCreated {
			t.Fatalf("register %s: %d %s", name, ex.status, ex.body)
		}
		if ex := do(t, f.rtSrv.URL, http.MethodPost, "/v1/"+name+"/tuples",
			fmt.Sprintf(`{"inserts":[{"rel":"Author","values":[%d,"Failover Probe"]}]}`, 92000+i)); ex.status != http.StatusOK {
			t.Fatalf("mutate %s: %d %s", name, ex.status, ex.body)
		}
	}

	// Pick the victim: any node currently owning at least one tenant.
	victim, _ := f.router.Owner("tenant-a")
	f.kill(t, victim)

	for _, name := range tenants {
		ex := do(t, f.rtSrv.URL, http.MethodGet, "/v1/"+name+"/search?rel=Author&q=Failover+Probe&l=5", "")
		if ex.status != http.StatusOK {
			t.Fatalf("post-failover search %s: %d %s", name, ex.status, ex.body)
		}
		var res struct {
			Count int `json:"count"`
		}
		if err := json.Unmarshal([]byte(ex.body), &res); err != nil || res.Count < 1 {
			t.Fatalf("tenant %s lost its acked mutation after failover: %s", name, ex.body)
		}
		if ex.node == victim {
			t.Fatalf("tenant %s still routed to evicted member %s", name, victim)
		}
		if owner, _ := f.router.Owner(name); ex.node != owner {
			t.Fatalf("tenant %s served by %s, rehashed owner is %s", name, ex.node, owner)
		}
	}
}

// TestMigration drives the live handoff: acked mutations survive the
// move, traffic lands on the target afterwards, the old owner is released
// (not deleted), and a pre-migration cursor resumes as the API's usual
// 410 once the stream is invalidated.
func TestMigration(t *testing.T) {
	f := newFleet(t, "n1", "n2", "n3")

	if ex := do(t, f.rtSrv.URL, http.MethodPost, "/v1/tenants", `{"name":"mig","dataset":"dblp"}`); ex.status != http.StatusCreated {
		t.Fatalf("register: %d %s", ex.status, ex.body)
	}
	if ex := do(t, f.rtSrv.URL, http.MethodPost, "/v1/mig/tuples",
		`{"inserts":[{"rel":"Author","values":[93000,"Migration Probe"]}]}`); ex.status != http.StatusOK {
		t.Fatalf("mutate: %d %s", ex.status, ex.body)
	}
	// Open a paged stream before the move.
	first := do(t, f.rtSrv.URL, http.MethodGet, "/v1/mig/search?rel=Author&q=Faloutsos&l=10&limit=1", "")
	var page struct {
		Cursor string `json:"cursor"`
	}
	if err := json.Unmarshal([]byte(first.body), &page); err != nil || page.Cursor == "" {
		t.Fatalf("no cursor to carry across the migration: %s", first.body)
	}

	from, _ := f.router.Owner("mig")
	var target string
	for name := range f.nodes {
		if name != from {
			target = name
			break
		}
	}
	ex := do(t, f.rtSrv.URL, http.MethodPost, "/router/migrate",
		fmt.Sprintf(`{"tenant":"mig","to":%q}`, target))
	if ex.status != http.StatusOK {
		t.Fatalf("migrate: %d %s", ex.status, ex.body)
	}
	var mig MigrateResponse
	if err := json.Unmarshal([]byte(ex.body), &mig); err != nil || mig.From != from || mig.To != target {
		t.Fatalf("migrate response %s, want from=%s to=%s", ex.body, from, target)
	}

	// Old owner no longer serves the tenant (a direct probe 404s).
	if ex := do(t, f.servers[from].URL, http.MethodGet, "/v1/mig/search?rel=Author&q=x", ""); ex.status != http.StatusNotFound {
		t.Fatalf("old owner still serves migrated tenant: %d", ex.status)
	}

	// Routed traffic lands on the target with all acked state.
	got := do(t, f.rtSrv.URL, http.MethodGet, "/v1/mig/search?rel=Author&q=Migration+Probe&l=5", "")
	if got.status != http.StatusOK || got.node != target {
		t.Fatalf("post-migration search: status %d on node %q (want 200 on %s): %s",
			got.status, got.node, target, got.body)
	}
	var res struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal([]byte(got.body), &res); err != nil || res.Count < 1 {
		t.Fatalf("acked mutation lost in migration: %s", got.body)
	}

	// A mutation on the new owner invalidates the carried cursor: resuming
	// yields the API's standard 410, not an error page or a torn view.
	if ex := do(t, f.rtSrv.URL, http.MethodPost, "/v1/mig/tuples",
		`{"inserts":[{"rel":"Author","values":[93001,"Cursor Breaker"]}]}`); ex.status != http.StatusOK {
		t.Fatalf("post-migration mutate: %d %s", ex.status, ex.body)
	}
	resume := do(t, f.rtSrv.URL, http.MethodGet,
		"/v1/mig/search?rel=Author&q=Faloutsos&l=10&limit=1&cursor="+page.Cursor, "")
	if resume.status != http.StatusGone {
		t.Fatalf("stale cursor after migration = %d, want 410: %s", resume.status, resume.body)
	}
}

// TestMigrationDrainsInFlight verifies the drain barrier: requests in
// flight when a migration starts finish on the old owner; requests during
// the drain get a retryable 503.
func TestMigrationDrainsInFlight(t *testing.T) {
	f := newFleet(t, "n1", "n2")
	if ex := do(t, f.rtSrv.URL, http.MethodPost, "/v1/tenants", `{"name":"mig","dataset":"dblp"}`); ex.status != http.StatusCreated {
		t.Fatalf("register: %d %s", ex.status, ex.body)
	}
	from, _ := f.router.Owner("mig")
	var target string
	for name := range f.nodes {
		if name != from {
			target = name
		}
	}

	// Hold the tenant "in flight" via the router's own gate (the HTTP path
	// cannot park a request deterministically), then start the migration.
	f.router.enter("mig")
	migDone := make(chan exchange, 1)
	go func() {
		migDone <- do(t, f.rtSrv.URL, http.MethodPost, "/router/migrate",
			fmt.Sprintf(`{"tenant":"mig","to":%q}`, target))
	}()
	// The migration must be parked on the drain barrier, refusing new work.
	deadline := time.Now().Add(2 * time.Second)
	for {
		ex := do(t, f.rtSrv.URL, http.MethodGet, "/v1/mig/search?rel=Author&q=Faloutsos&l=5", "")
		if ex.status == http.StatusServiceUnavailable {
			if !strings.Contains(ex.body, "migrating") {
				t.Fatalf("drain 503 has wrong envelope: %s", ex.body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("migration never started draining")
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case ex := <-migDone:
		t.Fatalf("migration completed past a live in-flight request: %d %s", ex.status, ex.body)
	case <-time.After(100 * time.Millisecond):
	}
	f.router.leave("mig")
	ex := <-migDone
	if ex.status != http.StatusOK {
		t.Fatalf("migrate after drain: %d %s", ex.status, ex.body)
	}
	if got := do(t, f.rtSrv.URL, http.MethodGet, "/v1/mig/search?rel=Author&q=Faloutsos&l=5", ""); got.node != target {
		t.Fatalf("post-drain traffic on %q, want %s", got.node, target)
	}
}

// TestMigrationUnderLoad is the drain barrier under traffic: eight
// closed-loop readers and one writer stay on a tenant while it moves
// n1 <-> n2 a hundred times. A request the router let through is waited for
// before the old owner is released, so a client sees answers and retryable
// refusals, never the released owner's 404 — and every insert that was
// acknowledged is readable at the end. Run with -race.
func TestMigrationUnderLoad(t *testing.T) {
	f := newFleet(t, "n1", "n2")
	if ex := do(t, f.rtSrv.URL, http.MethodPost, "/v1/tenants", `{"name":"mig","dataset":"dblp"}`); ex.status != http.StatusCreated {
		t.Fatalf("register: %d %s", ex.status, ex.body)
	}
	// served reports whether a response is an answer; a refusal must be a
	// retryable 503 or 502, anything else fails the test.
	served := func(who string, ex exchange, err error) bool {
		if err != nil {
			t.Errorf("%s: %v", who, err)
			return false
		}
		if ex.status/100 == 2 {
			return true
		}
		var env tenancy.ErrorResponse
		_ = json.Unmarshal([]byte(ex.body), &env)
		if (ex.status != http.StatusServiceUnavailable && ex.status != http.StatusBadGateway) || !env.Error.Retryable {
			t.Errorf("%s: status %d is neither an answer nor a retryable refusal: %s", who, ex.status, ex.body)
		}
		return false
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var answered atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ex, err := doErr(f.rtSrv.URL, http.MethodGet, "/v1/mig/search?rel=Author&q=Faloutsos&l=5", "")
				if served(fmt.Sprintf("reader %d", w), ex, err) {
					answered.Add(1)
				}
				if t.Failed() {
					return
				}
			}
		}(w)
	}
	var acked []string
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			token := fmt.Sprintf("migrant%04d", i)
			ex, err := doErr(f.rtSrv.URL, http.MethodPost, "/v1/mig/tuples",
				fmt.Sprintf(`{"inserts":[{"rel":"Author","values":[%d,"%s Underload"]}]}`, 970000+i, token))
			if served("writer", ex, err) {
				acked = append(acked, token)
			}
			if t.Failed() {
				return
			}
		}
	}()

	for i := 0; i < 100 && !t.Failed(); i++ {
		from, _ := f.router.Owner("mig")
		to := "n1"
		if from == "n1" {
			to = "n2"
		}
		if ex := do(t, f.rtSrv.URL, http.MethodPost, "/router/migrate", fmt.Sprintf(`{"tenant":"mig","to":%q}`, to)); ex.status != http.StatusOK {
			t.Errorf("migration %d (%s -> %s): %d %s", i, from, to, ex.status, ex.body)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if answered.Load() == 0 || len(acked) == 0 {
		t.Fatalf("%d reads answered, %d writes acked: the migrations ran against no load", answered.Load(), len(acked))
	}
	for _, token := range acked {
		got := do(t, f.rtSrv.URL, http.MethodGet, "/v1/mig/search?rel=Author&q="+token+"&l=3", "")
		var res struct {
			Count int `json:"count"`
		}
		if err := json.Unmarshal([]byte(got.body), &res); got.status != http.StatusOK || err != nil || res.Count != 1 {
			t.Fatalf("acked insert %s not readable after the migrations: %d %s", token, got.status, got.body)
		}
	}
	t.Logf("100 migrations under %d answered reads and %d acked writes", answered.Load(), len(acked))
}

// TestOversizedBodiesAnswer413: a body over the router's 1 MiB cap is
// answered as a node answers it (413 too_large), on every route where the
// router itself reads the body; and, as on a node, an admin body is one
// JSON value with nothing after it.
func TestOversizedBodiesAnswer413(t *testing.T) {
	f := newFleet(t, "n1")
	pad := strings.Repeat("x", 1<<20)
	for _, tc := range []struct {
		path, body string
		status     int
		code       string
	}{
		{"/v1/tenants", `{"name":"big","dataset":"` + pad + `"}`, http.StatusRequestEntityTooLarge, tenancy.CodeTooLarge},
		{"/router/migrate", `{"tenant":"big","to":"` + pad + `"}`, http.StatusRequestEntityTooLarge, tenancy.CodeTooLarge},
		{"/router/members", `{"name":"big","url":"` + pad + `"}`, http.StatusRequestEntityTooLarge, tenancy.CodeTooLarge},
		{"/v1/tenants", `{"name":`, http.StatusBadRequest, tenancy.CodeBadRequest},
		{"/router/migrate", `{"tenant":"big"}`, http.StatusBadRequest, tenancy.CodeBadRequest},
		{"/router/migrate", `{"tenant":"big","to":"n1"} {"tenant":"big","to":"n1"}`, http.StatusBadRequest, tenancy.CodeBadRequest},
		{"/router/members", `{"name":"n9","url":"http://127.0.0.1:1"} trailing`, http.StatusBadRequest, tenancy.CodeBadRequest},
	} {
		ex := do(t, f.rtSrv.URL, http.MethodPost, tc.path, tc.body)
		var env tenancy.ErrorResponse
		if err := json.Unmarshal([]byte(ex.body), &env); err != nil {
			t.Errorf("POST %s (%d bytes): body is no envelope: %s", tc.path, len(tc.body), ex.body)
			continue
		}
		if ex.status != tc.status || env.Error.Code != tc.code {
			t.Errorf("POST %s (%d bytes) = %d %s, want %d %s", tc.path, len(tc.body), ex.status, env.Error.Code, tc.status, tc.code)
		}
	}
}

// TestAdminPlane covers the /router surface: member listing with health
// and counters, ring lookups, token gating, and member add/remove with
// rebalance.
func TestAdminPlane(t *testing.T) {
	f := newFleet(t, "n1", "n2")

	ex := do(t, f.rtSrv.URL, http.MethodGet, "/router/members", "")
	if ex.status != http.StatusOK {
		t.Fatalf("members: %d %s", ex.status, ex.body)
	}
	var members struct {
		Members []MemberStatus `json:"members"`
	}
	if err := json.Unmarshal([]byte(ex.body), &members); err != nil || len(members.Members) != 2 {
		t.Fatalf("members body: %s", ex.body)
	}
	for _, m := range members.Members {
		if !m.Healthy {
			t.Fatalf("member %s unhealthy at boot", m.Name)
		}
	}

	ex = do(t, f.rtSrv.URL, http.MethodGet, "/router/ring?key=sometenant", "")
	if ex.status != http.StatusOK || !strings.Contains(ex.body, `"owner"`) {
		t.Fatalf("ring lookup: %d %s", ex.status, ex.body)
	}

	// Register a tenant, then remove its owner: the survivor adopts it.
	if ex := do(t, f.rtSrv.URL, http.MethodPost, "/v1/tenants", `{"name":"adm","dataset":"dblp"}`); ex.status != http.StatusCreated {
		t.Fatalf("register: %d %s", ex.status, ex.body)
	}
	owner, _ := f.router.Owner("adm")
	ex = do(t, f.rtSrv.URL, http.MethodDelete, "/router/members/"+owner, "")
	if ex.status != http.StatusOK {
		t.Fatalf("remove member: %d %s", ex.status, ex.body)
	}
	got := do(t, f.rtSrv.URL, http.MethodGet, "/v1/adm/search?rel=Author&q=Faloutsos&l=5", "")
	if got.status != http.StatusOK || got.node == owner {
		t.Fatalf("tenant not rehomed after member removal: %d on %q", got.status, got.node)
	}
	// Re-adding the node brings it back into rotation.
	ex = do(t, f.rtSrv.URL, http.MethodPost, "/router/members",
		fmt.Sprintf(`{"name":%q,"url":%q}`, owner, f.servers[owner].URL))
	if ex.status != http.StatusCreated {
		t.Fatalf("re-add member: %d %s", ex.status, ex.body)
	}
}

// TestAdminTokenGuard verifies /router/* is guarded by the node's own
// bearer check: a missing or non-bearer credential is a 401 with a
// WWW-Authenticate challenge, a wrong token a 403, and the scheme name is
// case-insensitive.
func TestAdminTokenGuard(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Write([]byte(`{"tenants":[]}`))
	}))
	defer srv.Close()
	rt, err := New(Config{
		Members:        []Member{{Name: "n1", URL: srv.URL}},
		AdminToken:     "sesame",
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rtSrv := httptest.NewServer(rt)
	defer rtSrv.Close()

	for _, tc := range []struct {
		auth      string
		status    int
		challenge bool
	}{
		{"", http.StatusUnauthorized, true},
		{"Basic sesame", http.StatusUnauthorized, true},
		{"Bearer wrong", http.StatusForbidden, false},
		{"Bearer sesame", http.StatusOK, false},
		{"bearer sesame", http.StatusOK, false},
	} {
		req, _ := http.NewRequest(http.MethodGet, rtSrv.URL+"/router/members", nil)
		if tc.auth != "" {
			req.Header.Set("Authorization", tc.auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("Authorization %q = %d, want %d", tc.auth, resp.StatusCode, tc.status)
		}
		if got := resp.Header.Get("WWW-Authenticate") != ""; got != tc.challenge {
			t.Errorf("Authorization %q: WWW-Authenticate present = %v, want %v", tc.auth, got, tc.challenge)
		}
	}
}

// TestNoHealthyMembers pins the empty-ring failure mode: a retryable 503
// in the standard envelope, not a panic or a hang.
func TestNoHealthyMembers(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	rt, err := New(Config{
		Members:        []Member{{Name: "n1", URL: srv.URL}},
		HealthInterval: -1,
		FailThreshold:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv.Close()
	rt.CheckNow()
	rtSrv := httptest.NewServer(rt)
	defer rtSrv.Close()

	ex := do(t, rtSrv.URL, http.MethodGet, "/v1/any/search?rel=Author&q=x", "")
	if ex.status != http.StatusServiceUnavailable {
		t.Fatalf("empty ring = %d, want 503: %s", ex.status, ex.body)
	}
	var env tenancy.ErrorResponse
	if err := json.Unmarshal([]byte(ex.body), &env); err != nil || !env.Error.Retryable {
		t.Fatalf("empty-ring error not the retryable envelope: %s", ex.body)
	}
}

// TestMigrationTargetDiesFailsBack pins the failover-return seam: migrate
// a tenant away, then kill the migration target. The tenant falls back to
// its ring owner — the very node that released it during the migration —
// which must re-adopt it from the shared data dir (the router re-arms
// adoption when it drops the dead pin) instead of 404ing forever.
func TestMigrationTargetDiesFailsBack(t *testing.T) {
	f := newFleet(t, "n1", "n2", "n3")

	if ex := do(t, f.rtSrv.URL, http.MethodPost, "/v1/tenants", `{"name":"mig","dataset":"dblp"}`); ex.status != http.StatusCreated {
		t.Fatalf("register: %d %s", ex.status, ex.body)
	}
	if ex := do(t, f.rtSrv.URL, http.MethodPost, "/v1/mig/tuples",
		`{"inserts":[{"rel":"Author","values":[94000,"Failback Probe"]}]}`); ex.status != http.StatusOK {
		t.Fatalf("mutate: %d %s", ex.status, ex.body)
	}

	from, _ := f.router.Owner("mig")
	var target string
	for name := range f.nodes {
		if name != from {
			target = name
			break
		}
	}
	if ex := do(t, f.rtSrv.URL, http.MethodPost, "/router/migrate",
		fmt.Sprintf(`{"tenant":"mig","to":%q}`, target)); ex.status != http.StatusOK {
		t.Fatalf("migrate: %d %s", ex.status, ex.body)
	}
	if ex := do(t, f.rtSrv.URL, http.MethodGet, "/v1/mig/search?rel=Author&q=Failback+Probe&l=5", ""); ex.status != http.StatusOK || ex.node != target {
		t.Fatalf("post-migration search: status %d on %q, want 200 on %s", ex.status, ex.node, target)
	}

	f.kill(t, target)

	// The pin died with the target; the ring owner (possibly the releasing
	// node itself) must serve the tenant again with every acked mutation.
	got := do(t, f.rtSrv.URL, http.MethodGet, "/v1/mig/search?rel=Author&q=Failback+Probe&l=5", "")
	if got.status != http.StatusOK {
		t.Fatalf("tenant unavailable after its migration target died: %d %s", got.status, got.body)
	}
	if got.node == target || got.node == "" {
		t.Fatalf("post-failback request served by %q", got.node)
	}
	var res struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal([]byte(got.body), &res); err != nil || res.Count < 1 {
		t.Fatalf("acked mutation lost across the fail-back: %s", got.body)
	}
	owner, ok := f.router.Owner("mig")
	if !ok || owner == target {
		t.Fatalf("owner after target death = %q, %v", owner, ok)
	}
}
