package tenancy

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"sizelos"
	"sizelos/internal/datagen"
	"sizelos/internal/keyword"
	"sizelos/internal/relational"
)

var engineCache struct {
	sync.Mutex
	engines map[int64]*sizelos.Engine
}

// testEngine builds a small DBLP engine, memoized per seed so the test file
// pays engine setup once per fixture.
func testEngine(t testing.TB, seed int64) *sizelos.Engine {
	t.Helper()
	engineCache.Lock()
	defer engineCache.Unlock()
	if engineCache.engines == nil {
		engineCache.engines = make(map[int64]*sizelos.Engine)
	}
	if eng, ok := engineCache.engines[seed]; ok {
		return eng
	}
	cfg := datagen.DefaultDBLPConfig()
	cfg.Seed = seed
	cfg.Authors = 40
	cfg.Papers = 160
	cfg.Conferences = 4
	cfg.YearSpan = 3
	eng, err := sizelos.OpenDBLP(cfg)
	if err != nil {
		t.Fatalf("OpenDBLP: %v", err)
	}
	engineCache.engines[seed] = eng
	return eng
}

// authorQuery returns a keyword guaranteed to match at least one Author.
func authorQuery(t testing.TB, eng *sizelos.Engine) string {
	t.Helper()
	rel := eng.DB().Relation("Author")
	for _, tup := range rel.Tuples {
		for ci, col := range rel.Columns {
			if col.Kind != relational.KindString {
				continue
			}
			if toks := keyword.Tokenize(tup[ci].Str); len(toks) > 0 {
				return toks[0]
			}
		}
	}
	t.Fatal("no author tokens in fixture")
	return ""
}

func TestRegistryBasics(t *testing.T) {
	eng := testEngine(t, 1)
	reg := NewRegistry(ServerConfig{PoolSize: 2}, nil, nil)
	if _, err := reg.Register(TenantSpec{Name: "acme", Cache: 8}, eng); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := reg.Register(TenantSpec{Name: "acme"}, eng); err == nil {
		t.Error("duplicate Register succeeded")
	}
	for _, bad := range []string{"", "a/b", "sp ace", "q?x"} {
		if _, err := reg.Register(TenantSpec{Name: bad}, eng); err == nil {
			t.Errorf("Register(%q) accepted an unsafe name", bad)
		}
	}
	if _, err := reg.Register(TenantSpec{Name: "nil-engine"}, nil); err == nil {
		t.Error("Register with nil engine succeeded")
	}
	tn, ok := reg.Get("acme")
	if !ok || tn.Name != "acme" || tn.CacheBudget != 8 {
		t.Fatalf("Get(acme) = %+v, %v", tn, ok)
	}
	if _, err := reg.Register(TenantSpec{Name: "zeta"}, eng); err != nil {
		t.Fatalf("Register(zeta): %v", err)
	}
	if got, want := reg.Names(), []string{"acme", "zeta"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Names = %v, want %v", got, want)
	}
	if ok, err := reg.Deregister("zeta"); !ok || err != nil {
		t.Errorf("Deregister(zeta) = %v, %v", ok, err)
	}
	if ok, _ := reg.Deregister("zeta"); ok {
		t.Error("double Deregister reported success")
	}
	if _, ok := reg.Get("zeta"); ok {
		t.Error("deregistered tenant still resolvable")
	}
}

// tenantSearch and engineSearch drain one unbounded page at each layer.
func tenantSearch(tn *Tenant, rel, q string, l int) ([]sizelos.Summary, error) {
	p, err := tn.QueryPage(sizelos.QueryRequest{Rel: rel, Query: q, L: l})
	return p.Summaries, err
}

func engineSearch(eng *sizelos.Engine, rel, q string, l int) ([]sizelos.Summary, error) {
	sums, _, _, err := eng.QueryPage(sizelos.QueryRequest{Rel: rel, Query: q, L: l})
	return sums, err
}

// TestTenantSearchMatchesEngine verifies the tenancy layer adds pooling and
// a cache scope without changing results.
func TestTenantSearchMatchesEngine(t *testing.T) {
	eng := testEngine(t, 1)
	reg := NewRegistry(ServerConfig{PoolSize: 2}, nil, nil)
	tn, err := reg.Register(TenantSpec{Name: "acme"}, eng)
	if err != nil {
		t.Fatal(err)
	}
	q := authorQuery(t, eng)
	want, err := engineSearch(eng, "Author", q, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tenantSearch(tn, "Author", q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("tenant search returned %d results, engine %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Text != want[i].Text || got[i].Tuple != want[i].Tuple {
			t.Fatalf("result %d diverges: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	// Dedicated engine: the stats assertions below need this tenant's
	// budget to be the one installed (shared engines keep the first).
	eng := testEngine(t, 3)
	reg := NewRegistry(ServerConfig{PoolSize: 2}, nil, nil)
	if _, err := reg.Register(TenantSpec{Name: "acme", Cache: 64}, eng); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	q := authorQuery(t, eng)

	get := func(t *testing.T, path string, wantStatus int, into any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantStatus)
		}
		if into != nil {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("GET %s: decode: %v", path, err)
			}
		}
	}

	var tenants map[string][]string
	get(t, "/v1/tenants", http.StatusOK, &tenants)
	if !reflect.DeepEqual(tenants["tenants"], []string{"acme"}) {
		t.Errorf("tenants = %v", tenants)
	}

	var sr SearchResponse
	get(t, fmt.Sprintf("/v1/acme/search?rel=Author&q=%s&l=8", q), http.StatusOK, &sr)
	if sr.Tenant != "acme" || sr.Count == 0 || sr.Count != len(sr.Results) {
		t.Fatalf("search response: %+v", sr)
	}
	want, err := engineSearch(eng, "Author", q, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != sr.Count || sr.Results[0].Text != want[0].Text {
		t.Errorf("HTTP results diverge from engine: %d vs %d", sr.Count, len(want))
	}

	var rr SearchResponse
	get(t, fmt.Sprintf("/v1/acme/ranked?rel=Author&q=%s&l=8&k=2", q), http.StatusOK, &rr)
	if rr.Count > 2 {
		t.Errorf("ranked returned %d > k=2 results", rr.Count)
	}
	for i := 1; i < len(rr.Results); i++ {
		if rr.Results[i].Importance > rr.Results[i-1].Importance {
			t.Errorf("ranked results out of order at %d", i)
		}
	}

	var st StatsResponse
	get(t, "/v1/acme/stats", http.StatusOK, &st)
	if !st.CacheEnabled || st.Cache.Cap != 64 || st.Pool.Size != 2 {
		t.Errorf("stats = %+v", st)
	}

	get(t, "/v1/ghost/search?rel=Author&q=x", http.StatusNotFound, nil)
	get(t, "/v1/acme/search?rel=Author", http.StatusBadRequest, nil)
	get(t, "/v1/acme/search?q=x", http.StatusBadRequest, nil)
	get(t, fmt.Sprintf("/v1/acme/search?rel=Author&q=%s&l=zero", q), http.StatusBadRequest, nil)
	get(t, fmt.Sprintf("/v1/acme/search?rel=Author&q=%s&l=0", q), http.StatusBadRequest, nil)
	// Client typos in engine-level names are 400s, not 500s.
	get(t, "/v1/acme/search?rel=Ghost&q=x", http.StatusBadRequest, nil)
	var badSetting ErrorResponse
	get(t, fmt.Sprintf("/v1/acme/search?rel=Author&q=%s&setting=GA9-d9", q), http.StatusBadRequest, &badSetting)
	if badSetting.Error.Code != CodeBadRequest {
		t.Errorf("unknown setting: code %q, want %q", badSetting.Error.Code, CodeBadRequest)
	}
	get(t, fmt.Sprintf("/v1/acme/ranked?rel=Author&q=%s&algo=quantum", q), http.StatusBadRequest, nil)
	get(t, fmt.Sprintf("/v1/acme/ranked?rel=Author&q=%s&l=0", q), http.StatusBadRequest, nil)
	// ...whether or not the keywords hit: the engine validates before it
	// looks at a match (sizelos.ErrInvalidRequest), not per summary.
	get(t, "/v1/acme/search?rel=Author&q=zzzzqqq&l=0", http.StatusBadRequest, nil)
	get(t, "/v1/acme/search?rel=Author&q=zzzzqqq&algo=quantum", http.StatusBadRequest, nil)
	// Parameters of the other endpoint are rejected, not silently ignored.
	get(t, fmt.Sprintf("/v1/acme/search?rel=Author&q=%s&k=2", q), http.StatusBadRequest, nil)
	get(t, fmt.Sprintf("/v1/acme/ranked?rel=Author&q=%s&topk=2", q), http.StatusBadRequest, nil)
	// Explicit k=0 is invalid like the engine says, not coerced to 10.
	get(t, fmt.Sprintf("/v1/acme/ranked?rel=Author&q=%s&k=0", q), http.StatusBadRequest, nil)
	// A relation no G_DS is registered for is the client's mistake whether
	// or not the keywords hit (vldb names a conference, zzzzqqq nothing).
	for _, path := range []string{
		"/v1/acme/search?rel=Conference&q=vldb&l=5",
		"/v1/acme/search?rel=Conference&q=zzzzqqq&l=5",
		"/v1/acme/ranked?rel=Conference&q=vldb&l=5",
	} {
		var e ErrorResponse
		get(t, path, http.StatusBadRequest, &e)
		if e.Error.Code != CodeBadRequest {
			t.Errorf("GET %s: code %q, want %q", path, e.Error.Code, CodeBadRequest)
		}
	}
	// Two bad parameters: the 400 names the same one every time.
	var first ErrorResponse
	get(t, "/v1/acme/search?rel=Author&q=x&l=-1&limit=-1", http.StatusBadRequest, &first)
	if first.Error.Message != "invalid l parameter" {
		t.Errorf("l=-1&limit=-1 reported %q, want the l parameter", first.Error.Message)
	}
	for i := 0; i < 19; i++ {
		var e ErrorResponse
		get(t, "/v1/acme/search?rel=Author&q=x&l=-1&limit=-1", http.StatusBadRequest, &e)
		if e != first {
			t.Fatalf("request %d answered %+v, the first %+v", i+2, e.Error, first.Error)
		}
	}
}

// TestDuplicateRegisterPreservesCache guards the fix for duplicate
// registration wiping a live tenant's warm summary cache.
func TestDuplicateRegisterPreservesCache(t *testing.T) {
	eng := testEngine(t, 1)
	reg := NewRegistry(ServerConfig{PoolSize: 2}, nil, nil)
	tn, err := reg.Register(TenantSpec{Name: "warm", Cache: 16}, eng)
	if err != nil {
		t.Fatal(err)
	}
	q := authorQuery(t, eng)
	if _, err := tenantSearch(tn, "Author", q, 6); err != nil {
		t.Fatal(err)
	}
	before, ok := eng.SummaryCacheStats()
	if !ok || before.Len == 0 {
		t.Fatalf("cache not warmed: %+v (ok=%v)", before, ok)
	}
	if _, err := reg.Register(TenantSpec{Name: "warm", Cache: 999}, eng); err == nil {
		t.Fatal("duplicate Register succeeded")
	}
	after, ok := eng.SummaryCacheStats()
	if !ok || after.Len < before.Len || after.Cap != before.Cap {
		t.Errorf("failed duplicate Register disturbed the cache: before %+v, after %+v", before, after)
	}
}

// TestSharedEngineKeepsFirstBudget verifies registering a second tenant on
// an already-cached shared engine neither wipes the warm cache nor changes
// the budget.
func TestSharedEngineKeepsFirstBudget(t *testing.T) {
	eng := testEngine(t, 4)
	reg := NewRegistry(ServerConfig{PoolSize: 2}, nil, nil)
	first, err := reg.Register(TenantSpec{Name: "first", Cache: 32}, eng)
	if err != nil {
		t.Fatal(err)
	}
	q := authorQuery(t, eng)
	if _, err := tenantSearch(first, "Author", q, 6); err != nil {
		t.Fatal(err)
	}
	before, ok := eng.SummaryCacheStats()
	if !ok || before.Cap != 32 || before.Len == 0 {
		t.Fatalf("cache not installed/warmed: %+v (ok=%v)", before, ok)
	}
	if _, err := reg.Register(TenantSpec{Name: "second", Cache: 8}, eng); err != nil {
		t.Fatal(err)
	}
	after, _ := eng.SummaryCacheStats()
	if after.Cap != 32 || after.Len < before.Len {
		t.Errorf("second registration disturbed the shared cache: before %+v, after %+v", before, after)
	}
}

// TestConcurrentSearchAndRegister is the multi-tenant race test: many
// clients hammer tenant A's /v1/search while tenant B is registered and
// queried on the live registry. Run under -race in CI.
func TestConcurrentSearchAndRegister(t *testing.T) {
	engA := testEngine(t, 1)
	engB := testEngine(t, 2)
	reg := NewRegistry(ServerConfig{PoolSize: 0}, nil, nil)
	if _, err := reg.Register(TenantSpec{Name: "alpha", Cache: 32}, engA); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	qA := authorQuery(t, engA)
	qB := authorQuery(t, engB)

	const hammerers = 6
	const reqs = 10
	var wg sync.WaitGroup
	errs := make(chan error, hammerers*reqs+1)
	for h := 0; h < hammerers; h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reqs; i++ {
				resp, err := http.Get(fmt.Sprintf("%s/v1/alpha/search?rel=Author&q=%s&l=6", srv.URL, qA))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("alpha search status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := reg.Register(TenantSpec{Name: "beta", Cache: 32}, engB); err != nil {
			errs <- err
			return
		}
		resp, err := http.Get(fmt.Sprintf("%s/v1/beta/search?rel=Author&q=%s&l=6", srv.URL, qB))
		if err != nil {
			errs <- err
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			errs <- fmt.Errorf("beta search status %d", resp.StatusCode)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got, want := reg.Names(), []string{"alpha", "beta"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Names = %v, want %v", got, want)
	}
}
