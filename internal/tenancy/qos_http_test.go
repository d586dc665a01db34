package tenancy

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sizelos/internal/qos"
)

// qosServer builds a one-tenant service with the given QoS config and
// returns the server plus a /search URL whose query matches the fixture.
// The engine is private (freshEngine), never the memoized fixture: tests
// here pin the shared pool and rely on queries actually reaching it, which
// a summary cache warmed by an unrelated test would defeat.
func qosServer(t *testing.T, seed int64, cfg qos.Config) (*Registry, *httptest.Server, string) {
	t.Helper()
	reg := NewRegistry(ServerConfig{PoolSize: 1, QoS: cfg}, nil, nil)
	eng := freshEngine(t, seed)
	if _, err := reg.Register(TenantSpec{Name: "demo"}, eng); err != nil {
		t.Fatalf("Register: %v", err)
	}
	srv := httptest.NewServer(reg.Handler())
	t.Cleanup(srv.Close)
	q := authorQuery(t, eng)
	return reg, srv, srv.URL + "/v1/demo/search?rel=Author&q=" + q
}

// TestAuthzAdminRoutes proves the bearer-token guard on every admin route:
// missing or non-bearer credentials are 401s (with a WWW-Authenticate
// challenge), wrong tokens are 403s, and the right token reaches the
// handler. The read plane stays open throughout.
func TestAuthzAdminRoutes(t *testing.T) {
	reg := NewRegistry(ServerConfig{PoolSize: 1, AdminToken: "sekrit"}, nil, nil)
	eng := testEngine(t, 1)
	if _, err := reg.Register(TenantSpec{Name: "demo"}, eng); err != nil {
		t.Fatalf("Register: %v", err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	do := func(method, path, auth string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader("{"))
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	adminRoutes := []struct {
		method, path string
		// passStatus is what the handler itself answers once authz lets the
		// request through — deliberately not 2xx, so the probe has no side
		// effects (501: no recoverer; 404: ghost tenant; 400: bad JSON body).
		passStatus int
	}{
		{http.MethodPost, "/v1/tenants", http.StatusNotImplemented},
		{http.MethodDelete, "/v1/ghost", http.StatusNotFound},
		{http.MethodPost, "/v1/demo/tuples", http.StatusBadRequest},
	}
	for _, rt := range adminRoutes {
		name := rt.method + " " + rt.path
		resp := do(rt.method, rt.path, "")
		body := decodeJSON[ErrorResponse](t, resp)
		if resp.StatusCode != http.StatusUnauthorized || body.Error.Code != CodeUnauthorized {
			t.Errorf("%s no-auth = %d %q, want 401 %s", name, resp.StatusCode, body.Error.Code, CodeUnauthorized)
		}
		if resp.Header.Get("WWW-Authenticate") == "" {
			t.Errorf("%s no-auth: missing WWW-Authenticate challenge", name)
		}
		resp = do(rt.method, rt.path, "Basic sekrit")
		if body = decodeJSON[ErrorResponse](t, resp); resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s non-bearer = %d, want 401", name, resp.StatusCode)
		}
		resp = do(rt.method, rt.path, "Bearer wrong")
		body = decodeJSON[ErrorResponse](t, resp)
		if resp.StatusCode != http.StatusForbidden || body.Error.Code != CodeForbidden {
			t.Errorf("%s wrong token = %d %q, want 403 %s", name, resp.StatusCode, body.Error.Code, CodeForbidden)
		}
		resp = do(rt.method, rt.path, "Bearer sekrit")
		if resp.StatusCode != rt.passStatus {
			t.Errorf("%s right token = %d, want %d (authz must pass through)", rt.method+" "+rt.path, resp.StatusCode, rt.passStatus)
		}
		resp.Body.Close()
	}

	// Read plane: no token required.
	for _, path := range []string{
		"/v1/tenants",
		"/v1/demo/search?rel=Author&q=" + authorQuery(t, eng),
		"/v1/demo/stats",
	} {
		resp := do(http.MethodGet, path, "")
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s without token = %d, want 200", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestRateLimitOverHTTP exhausts a tenant's search bucket and checks the
// refusal: 429, the rate_limited envelope, and a Retry-After hint —
// while the stats endpoint stays reachable and records the throttle.
func TestRateLimitOverHTTP(t *testing.T) {
	cfg := qos.Config{Tenants: map[string]qos.Limits{
		"demo": {SearchRate: 0.01, SearchBurst: 2},
	}}
	_, srv, searchURL := qosServer(t, 81, cfg)

	for i := 0; i < 2; i++ {
		resp, err := http.Get(searchURL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d = %d, want 200", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(searchURL)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("exhausted bucket = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	body := decodeJSON[ErrorResponse](t, resp)
	if body.Error.Code != CodeRateLimited || !body.Error.Retryable {
		t.Errorf("429 envelope = %+v, want code %s retryable", body.Error, CodeRateLimited)
	}

	// Observability of a throttled tenant must keep working.
	resp, err = http.Get(srv.URL + "/v1/demo/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decodeJSON[StatsResponse](t, resp)
	if st.Version != StatsVersion {
		t.Errorf("stats version = %d, want %d", st.Version, StatsVersion)
	}
	if st.QoS == nil {
		t.Fatal("stats: QoS section missing with QoS configured")
	}
	if st.QoS.Search.Allowed != 2 || st.QoS.Search.Throttled != 1 {
		t.Errorf("search bucket counters = %+v, want 2 allowed / 1 throttled", st.QoS.Search)
	}
}

// TestMutateRateLimitIndependent proves the two planes have separate
// buckets: exhausting the mutate bucket 429s mutations but leaves search
// untouched.
func TestMutateRateLimitIndependent(t *testing.T) {
	reg := NewRegistry(ServerConfig{PoolSize: 1, QoS: qos.Config{Tenants: map[string]qos.Limits{
		"mut": {MutateRate: 0.01, MutateBurst: 1},
	}}}, nil, nil)
	eng := freshEngine(t, 71)
	if _, err := reg.Register(TenantSpec{Name: "mut"}, eng); err != nil {
		t.Fatalf("Register: %v", err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	post := func() *http.Response {
		resp, err := http.Post(srv.URL+"/v1/mut/tuples", "application/json",
			strings.NewReader(`{"rerank":true}`))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := post()
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first mutate = %d, want 200", resp.StatusCode)
	}
	resp = post()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second mutate = %d, want 429", resp.StatusCode)
	}
	body := decodeJSON[ErrorResponse](t, resp)
	if body.Error.Code != CodeRateLimited {
		t.Errorf("mutate 429 envelope = %+v", body.Error)
	}

	q := authorQuery(t, eng)
	resp, err := http.Get(srv.URL + "/v1/mut/search?rel=Author&q=" + q)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("search while mutate-throttled = %d, want 200", resp.StatusCode)
	}
}

// TestThrottleDoesNotPoisonFlight is the refusal-leaves-in-flight-work
// invariant: a rate-limited request identical to two already in flight is
// refused in middleware, before it reaches the pool or the engine — both
// in-flight requests must complete untouched, with the same answer.
func TestThrottleDoesNotPoisonFlight(t *testing.T) {
	cfg := qos.Config{Tenants: map[string]qos.Limits{
		"demo": {SearchRate: 0.001, SearchBurst: 2},
	}}
	reg, _, searchURL := qosServer(t, 82, cfg)

	// Pin the single pool slot so the in-flight requests block mid-handler.
	held, release := make(chan struct{}), make(chan struct{})
	var holder sync.WaitGroup
	holder.Add(1)
	go func() {
		defer holder.Done()
		reg.Pool().Do(func() { close(held); <-release })
	}()
	<-held

	type result struct {
		status int
		body   string
	}
	results := make(chan result, 2)
	get := func() {
		resp, err := http.Get(searchURL)
		if err != nil {
			results <- result{0, err.Error()}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			results <- result{resp.StatusCode, err.Error()}
			return
		}
		results <- result{resp.StatusCode, string(body)}
	}
	// A consumes token 1 and blocks on the pinned pool.
	go get()
	waitForCond(t, time.Second, func() bool { return reg.Pool().Stats().Waited >= 1 })
	// B consumes token 2 and queues behind A. Wait until B's request has
	// passed the bucket before sending C — otherwise C could race B to the
	// last token and be admitted itself.
	go get()
	waitForCond(t, time.Second, func() bool {
		return reg.limiterFor("demo").Stats().Search.Allowed >= 2
	})

	// C is refused by the empty bucket in middleware — instantly, without
	// touching the pool or the engine.
	start := time.Now()
	resp, err := http.Get(searchURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third identical request = %d, want 429", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("429 took %v; refusal must not wait on the in-flight work", elapsed)
	}

	close(release)
	holder.Wait()
	a, b := <-results, <-results
	if a.status != http.StatusOK || b.status != http.StatusOK {
		t.Fatalf("in-flight requests = %d / %d, want 200 / 200 (refusal poisoned them?)", a.status, b.status)
	}
	if a.body != b.body {
		t.Errorf("in-flight requests disagree:\n%s\n%s", a.body, b.body)
	}
}

// TestAdmissionDeadlineOverHTTP queues a request behind a full admission
// gate until its deadline expires: 503, the overloaded envelope,
// Retry-After — and no leaked slot afterwards.
func TestAdmissionDeadlineOverHTTP(t *testing.T) {
	cfg := qos.Config{Tenants: map[string]qos.Limits{
		"demo": {MaxInFlight: 1, MaxQueueWait: qos.Duration(50 * time.Millisecond)},
	}}
	reg, srv, searchURL := qosServer(t, 83, cfg)

	held, release := make(chan struct{}), make(chan struct{})
	var holder sync.WaitGroup
	holder.Add(1)
	go func() {
		defer holder.Done()
		reg.Pool().Do(func() { close(held); <-release })
	}()
	<-held

	first := make(chan int, 1)
	go func() {
		resp, err := http.Get(searchURL)
		if err != nil {
			first <- 0
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	// The first request holds the only admission slot and blocks on the
	// pinned pool; the second queues and must expire at ~50ms.
	waitForCond(t, time.Second, func() bool { return reg.Pool().Stats().Waited >= 1 })

	resp, err := http.Get(searchURL)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued-past-deadline request = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	body := decodeJSON[ErrorResponse](t, resp)
	if body.Error.Code != CodeOverloaded || !body.Error.Retryable {
		t.Errorf("503 envelope = %+v, want code %s retryable", body.Error, CodeOverloaded)
	}

	close(release)
	holder.Wait()
	if got := <-first; got != http.StatusOK {
		t.Fatalf("admitted request = %d, want 200", got)
	}

	resp, err = http.Get(srv.URL + "/v1/demo/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decodeJSON[StatsResponse](t, resp)
	adm := st.QoS.Admission
	if adm.InFlight != 0 || adm.QueueDepth != 0 {
		t.Errorf("admission after drain = %+v, want 0 in flight / 0 queued", adm)
	}
	if adm.Expired == 0 {
		t.Errorf("admission after drain = %+v, want expired > 0", adm)
	}
}

// TestStatsWithoutQoS pins the back-compat shape: no QoS configured means
// no qos section, but the document is still version 2 with the original
// field names.
// TestTenantLimiterLifecycle: a tenant's limiter is part of its registry
// entry — there for every known name (pending included), the same one on
// every lookup, absent for an unknown name or without QoS — and a removal
// drops it, so the name's next registration starts with a full burst.
func TestTenantLimiterLifecycle(t *testing.T) {
	cfg := qos.Config{Default: qos.Limits{SearchRate: 1, SearchBurst: 1}}
	reg := NewRegistry(ServerConfig{PoolSize: 1, QoS: cfg}, nil, nil)
	eng := testEngine(t, 1)
	if err := reg.AddPending(TenantSpec{Name: "cold", Dataset: "dblp"}); err != nil {
		t.Fatal(err)
	}
	if reg.limiterFor("cold") == nil {
		t.Fatal("pending tenant has no limiter")
	}
	if reg.limiterFor("ghost") != nil {
		t.Fatal("unknown name got a limiter")
	}
	remove := map[string]func(string){
		"Deregister": func(name string) { _, _ = reg.Deregister(name) },
		"Release":    func(name string) { reg.Release(name) },
	}
	for how, drop := range remove {
		if _, err := reg.Register(TenantSpec{Name: "t1"}, eng); err != nil {
			t.Fatal(err)
		}
		lim := reg.limiterFor("t1")
		if lim == nil {
			t.Fatal("registered tenant has no limiter")
		}
		if reg.limiterFor("t1") != lim {
			t.Fatal("second lookup returned a different limiter")
		}
		if err := lim.AllowSearch(); err != nil {
			t.Fatal(err)
		}
		if err := lim.AllowSearch(); !errors.Is(err, qos.ErrRateLimited) {
			t.Fatalf("want throttle, got %v", err)
		}
		drop("t1")
		if reg.limiterFor("t1") != nil {
			t.Fatalf("%s left a limiter behind", how)
		}
		if _, err := reg.Register(TenantSpec{Name: "t1"}, eng); err != nil {
			t.Fatal(err)
		}
		if err := reg.limiterFor("t1").AllowSearch(); err != nil {
			t.Fatalf("limiter after %s and re-registration not fresh: %v", how, err)
		}
		drop("t1")
	}
	bare := NewRegistry(ServerConfig{PoolSize: 1}, nil, nil)
	if _, err := bare.Register(TenantSpec{Name: "t1"}, eng); err != nil {
		t.Fatal(err)
	}
	if bare.limiterFor("t1") != nil {
		t.Fatal("registry without QoS produced a limiter")
	}
}

func TestStatsWithoutQoS(t *testing.T) {
	reg := NewRegistry(ServerConfig{PoolSize: 2}, nil, nil)
	if _, err := reg.Register(TenantSpec{Name: "demo"}, testEngine(t, 1)); err != nil {
		t.Fatalf("Register: %v", err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/demo/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decodeJSON[StatsResponse](t, resp)
	if st.Version != StatsVersion || st.QoS != nil {
		t.Errorf("no-QoS stats: version %d qos %v, want version %d and no qos section", st.Version, st.QoS, StatsVersion)
	}
	if st.Pool.Size != 2 {
		t.Errorf("pool size = %d, want 2", st.Pool.Size)
	}
}

// waitForCond polls until cond holds or the deadline lapses.
func waitForCond(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// percentile returns the p-quantile (0..1) of ds by nearest-rank.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// TestFairnessUnderAbuse is the closed-loop fairness proof: a compliant
// tenant and an abusive tenant share one registry; the abuser's limits
// turn its excess into fast 429s (with Retry-After), and the compliant
// tenant's tail latency stays within 2× its solo baseline (plus a small
// absolute floor for scheduler noise). Afterwards nothing leaks: no held
// slots, no queued waiters, goroutine count back to baseline.
func TestFairnessUnderAbuse(t *testing.T) {
	cfg := qos.Config{
		Default: qos.Limits{MaxInFlight: 8},
		Tenants: map[string]qos.Limits{
			"abuser": {SearchRate: 20, SearchBurst: 5, MaxInFlight: 1,
				MaxQueueWait: qos.Duration(5 * time.Millisecond)},
		},
	}
	reg := NewRegistry(ServerConfig{PoolSize: 2, QoS: cfg}, nil, nil)
	eng := testEngine(t, 1)
	for _, name := range []string{"good", "abuser"} {
		if _, err := reg.Register(TenantSpec{Name: name}, eng); err != nil {
			t.Fatalf("Register %s: %v", name, err)
		}
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	q := authorQuery(t, eng)
	urlFor := func(tenant string, i int) string {
		// Vary l so requests don't all collapse into one cache entry:
		// the closed loop must exercise real work, deterministically (seeded
		// engine, fixed modulus — no wall-clock randomness).
		return fmt.Sprintf("%s/v1/%s/search?rel=Author&q=%s&l=%d", srv.URL, tenant, q, 5+i%7)
	}

	goroutinesBefore := runtime.NumGoroutine()

	const compliantReqs = 30
	solo := make([]time.Duration, 0, compliantReqs)
	for i := 0; i < compliantReqs; i++ {
		start := time.Now()
		resp, err := http.Get(urlFor("good", i))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solo request %d = %d", i, resp.StatusCode)
		}
		solo = append(solo, time.Since(start))
	}
	soloP99 := percentile(solo, 0.99)

	// Unleash the abuser: 4 closed-loop workers hammering as fast as their
	// refusals come back, while the compliant tenant runs its same loop.
	var abuserOK, abuser429, abuser503, abuserOther atomic.Int64
	sawRetryAfter := atomic.Bool{}
	stop := make(chan struct{})
	// throttled closes at the abusers' first 429: only then is the limiter
	// in play, so only then does the contended loop start.
	throttled := make(chan struct{})
	var throttledOnce sync.Once
	var abusers sync.WaitGroup
	for w := 0; w < 4; w++ {
		abusers.Add(1)
		go func(w int) {
			defer abusers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(urlFor("abuser", w*31+i))
				if err != nil {
					abuserOther.Add(1)
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					abuserOK.Add(1)
				case http.StatusTooManyRequests:
					abuser429.Add(1)
					if resp.Header.Get("Retry-After") != "" {
						sawRetryAfter.Store(true)
					}
					throttledOnce.Do(func() { close(throttled) })
				case http.StatusServiceUnavailable:
					abuser503.Add(1)
				default:
					abuserOther.Add(1)
				}
				resp.Body.Close()
			}
		}(w)
	}

	select {
	case <-throttled:
	case <-time.After(10 * time.Second):
		close(stop)
		abusers.Wait()
		t.Fatal("abuser was never rate-limited")
	}
	contended := make([]time.Duration, 0, compliantReqs)
	for i := 0; i < compliantReqs; i++ {
		start := time.Now()
		resp, err := http.Get(urlFor("good", i))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("contended request %d = %d, want 200 (compliant tenant must never be refused here)", i, resp.StatusCode)
		}
		contended = append(contended, time.Since(start))
	}
	close(stop)
	abusers.Wait()

	contendedP99 := percentile(contended, 0.99)
	// 2× the solo baseline, with an absolute floor so a microsecond-fast
	// solo run doesn't turn scheduler jitter into a failure.
	limit := 2 * soloP99
	if floor := 250 * time.Millisecond; limit < floor {
		limit = floor
	}
	if contendedP99 > limit {
		t.Errorf("compliant p99 under abuse = %v, want <= %v (solo p99 %v)", contendedP99, limit, soloP99)
	}
	if abuser429.Load() == 0 {
		t.Error("abuser was never rate-limited")
	}
	if !sawRetryAfter.Load() {
		t.Error("abuser 429s carried no Retry-After")
	}
	t.Logf("solo p99 %v, contended p99 %v; abuser: %d ok, %d throttled, %d shed, %d other",
		soloP99, contendedP99, abuserOK.Load(), abuser429.Load(), abuser503.Load(), abuserOther.Load())

	// Leak checks: every admitted request released its slot and token
	// state; the pool drained; goroutines settle back to baseline.
	for _, tenant := range []string{"good", "abuser"} {
		resp, err := http.Get(srv.URL + "/v1/" + tenant + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		st := decodeJSON[StatsResponse](t, resp)
		if st.QoS == nil {
			t.Fatalf("%s: no qos stats", tenant)
		}
		if st.QoS.Admission.InFlight != 0 || st.QoS.Admission.QueueDepth != 0 {
			t.Errorf("%s admission after load = %+v, want idle", tenant, st.QoS.Admission)
		}
		if st.Pool.InFlight != 0 {
			t.Errorf("%s pool after load = %+v, want drained", tenant, st.Pool)
		}
	}
	waitForCond(t, 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= goroutinesBefore+5
	})
}

// TestQoSSoak is the env-gated endurance leg (SIZELOS_SOAK=1): ≥30s of
// mixed compliant+abusive closed-loop traffic, asserting the compliant
// tail does not collapse over time and goroutine/heap footprints stay
// flat. Not part of the default suite.
func TestQoSSoak(t *testing.T) {
	if os.Getenv("SIZELOS_SOAK") == "" {
		t.Skip("set SIZELOS_SOAK=1 to run the soak leg")
	}
	cfg := qos.Config{
		Default: qos.Limits{MaxInFlight: 8},
		Tenants: map[string]qos.Limits{
			"abuser": {SearchRate: 50, SearchBurst: 10, MaxInFlight: 2,
				MaxQueueWait: qos.Duration(10 * time.Millisecond)},
		},
	}
	reg := NewRegistry(ServerConfig{PoolSize: 4, QoS: cfg}, nil, nil)
	eng := testEngine(t, 1)
	for _, name := range []string{"good", "abuser"} {
		if _, err := reg.Register(TenantSpec{Name: name}, eng); err != nil {
			t.Fatalf("Register %s: %v", name, err)
		}
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	q := authorQuery(t, eng)

	const soakFor = 30 * time.Second
	const windows = 6
	deadline := time.Now().Add(soakFor)
	goroutinesBefore := runtime.NumGoroutine()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapBefore := ms.HeapAlloc

	stop := make(chan struct{})
	var abusers sync.WaitGroup
	for w := 0; w < 4; w++ {
		abusers.Add(1)
		go func(w int) {
			defer abusers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(fmt.Sprintf("%s/v1/abuser/search?rel=Author&q=%s&l=%d", srv.URL, q, 5+(w*31+i)%7))
				if err == nil {
					resp.Body.Close()
				}
			}
		}(w)
	}

	p99s := make([]time.Duration, 0, windows)
	for time.Now().Before(deadline) {
		window := make([]time.Duration, 0, 64)
		windowEnd := time.Now().Add(soakFor / windows)
		for i := 0; time.Now().Before(windowEnd); i++ {
			start := time.Now()
			resp, err := http.Get(fmt.Sprintf("%s/v1/good/search?rel=Author&q=%s&l=%d", srv.URL, q, 5+i%7))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("compliant soak request = %d", resp.StatusCode)
			}
			window = append(window, time.Since(start))
		}
		p99s = append(p99s, percentile(window, 0.99))
	}
	close(stop)
	abusers.Wait()

	t.Logf("per-window compliant p99: %v", p99s)
	first, last := p99s[0], p99s[len(p99s)-1]
	limit := 3 * first
	if floor := 300 * time.Millisecond; limit < floor {
		limit = floor
	}
	if last > limit {
		t.Errorf("p99 collapse over soak: first window %v, last window %v (limit %v)", first, last, limit)
	}

	waitForCond(t, 10*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= goroutinesBefore+10
	})
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > heapBefore*4+64<<20 {
		t.Errorf("heap grew from %d to %d bytes over soak", heapBefore, ms.HeapAlloc)
	}
}

// TestRequestBudget is the table of the budget parser: the query parameter
// wins over the header, absent means the tenant default (0), and anything
// that is not a whole number of milliseconds in [1, 24 h] is a bad request
// — the two overflow values once wrapped to 448 µs and to a negative
// Duration, which Admit replaced with the tenant default.
func TestRequestBudget(t *testing.T) {
	cases := []struct {
		name, query, header string
		want                time.Duration
		bad                 bool
	}{
		{name: "absent"},
		{name: "query", query: "250", want: 250 * time.Millisecond},
		{name: "header fallback", header: "40", want: 40 * time.Millisecond},
		{name: "query wins over header", query: "250", header: "40", want: 250 * time.Millisecond},
		{name: "zero", query: "0", bad: true},
		{name: "negative", query: "-1", bad: true},
		{name: "garbage", query: "soon", bad: true},
		{name: "garbage header", header: "1.5", bad: true},
		{name: "wraps to 448us", query: "18446744073710", bad: true},
		{name: "wraps negative", query: "9223372036855", bad: true},
		{name: "wraps to 448us, header", header: "18446744073710", bad: true},
		{name: "wraps negative, header", header: "9223372036855", bad: true},
		{name: "the cap", query: "86400000", want: 24 * time.Hour},
		{name: "past the cap", query: "86400001", bad: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			target := "/v1/demo/search"
			if tc.query != "" {
				target += "?budget_ms=" + tc.query
			}
			req := httptest.NewRequest(http.MethodGet, target, nil)
			if tc.header != "" {
				req.Header.Set("X-Sizelos-Budget-Ms", tc.header)
			}
			got, err := requestBudget(req)
			if tc.bad {
				var api *Error
				if !errors.As(err, &api) || api.Status != http.StatusBadRequest || api.Code != CodeBadRequest {
					t.Fatalf("requestBudget = %v, %v; want a 400 bad_request", got, err)
				}
				return
			}
			if err != nil || got != tc.want {
				t.Fatalf("requestBudget = %v, %v; want %v", got, err, tc.want)
			}
		})
	}
}
