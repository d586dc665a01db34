package tenancy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sizelos"
	"sizelos/internal/datagen"
	"sizelos/internal/relational"
)

// freshEngine builds a private engine for mutation tests — never the
// memoized fixtures, which other tests assume immutable.
func freshEngine(t testing.TB, seed int64) *sizelos.Engine {
	t.Helper()
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
	return eng
}

func decodeJSON[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode body: %v", err)
	}
	return v
}

// TestUnknownPathsReturnJSON404 is the regression test for the handler's
// fallback: any path outside the API — unknown sub-paths under
// /v1/{tenant}/ included — must produce a JSON 404, never an empty-bodied
// or text/plain response.
func TestUnknownPathsReturnJSON404(t *testing.T) {
	reg := NewRegistry(ServerConfig{PoolSize: 2}, nil, nil)
	if _, err := reg.Register(TenantSpec{Name: "demo"}, testEngine(t, 1)); err != nil {
		t.Fatalf("Register: %v", err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	for _, path := range []string{
		"/v1/demo/bogus",
		"/v1/demo/search/extra",
		"/v1/demo/",
		"/v1",
		"/totally/elsewhere",
		"/",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
		body := decodeJSON[ErrorResponse](t, resp)
		if body.Error.Code != CodeNotFound || body.Error.Message == "" {
			t.Errorf("GET %s: error envelope = %+v", path, body.Error)
		}
	}
	// Method mismatches on defined paths take the JSON catch-all too (the
	// "/" route matches path+method, so ServeMux never falls back to its
	// text/plain 405).
	for _, tc := range []struct{ method, path string }{
		{http.MethodPost, "/v1/demo/search"},
		{http.MethodPut, "/v1/tenants"},
		{http.MethodDelete, "/v1/demo/stats"},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
		if body := decodeJSON[ErrorResponse](t, resp); body.Error.Code != CodeNotFound {
			t.Errorf("%s %s: error envelope = %+v", tc.method, tc.path, body.Error)
		}
	}
}

func TestAdminRegisterDeregisterHTTP(t *testing.T) {
	// Without a recoverer, dynamic registration is explicitly unavailable.
	bare := httptest.NewServer(NewRegistry(ServerConfig{PoolSize: 2}, nil, nil).Handler())
	unconfigured, err := http.Post(bare.URL+"/v1/tenants", "application/json", strings.NewReader(`{"name":"x","dataset":"dblp"}`))
	bare.Close()
	if err != nil {
		t.Fatal(err)
	}
	unconfigured.Body.Close()
	if unconfigured.StatusCode != http.StatusNotImplemented {
		t.Fatalf("register without recoverer = %d, want 501", unconfigured.StatusCode)
	}

	reg := NewRegistry(ServerConfig{PoolSize: 2}, func(spec TenantSpec) (*sizelos.Engine, Attachment, error) {
		if spec.Dataset != "tinydblp" {
			return nil, nil, fmt.Errorf("unknown dataset %q", spec.Dataset)
		}
		if spec.Seed <= 0 {
			spec.Seed = 5
		}
		return freshEngine(t, spec.Seed), nil, nil
	}, nil)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	post := func(path string, body any) *http.Response {
		t.Helper()
		b, _ := json.Marshal(body)
		if raw, ok := body.(string); ok { // sent as it is
			b = []byte(raw)
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		return resp
	}

	resp := post("/v1/tenants", RegisterRequest{Name: "live", Dataset: "tinydblp", Cache: 64})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register = %d, want 201", resp.StatusCode)
	}
	created := decodeJSON[RegisterResponse](t, resp)
	if created.Tenant != "live" || len(created.Settings) == 0 {
		t.Fatalf("register response = %+v", created)
	}

	// Duplicate, invalid name, unknown dataset, reserved name; a body that
	// does not end after its first value registers nothing, not its head.
	for _, tc := range []struct {
		req  any
		want int
	}{
		{RegisterRequest{Name: "live", Dataset: "tinydblp"}, http.StatusConflict},
		{RegisterRequest{Name: "bad/name", Dataset: "tinydblp"}, http.StatusBadRequest},
		{RegisterRequest{Name: "ok", Dataset: "nope"}, http.StatusBadRequest},
		{RegisterRequest{Name: "tenants", Dataset: "tinydblp"}, http.StatusBadRequest},
		{RegisterRequest{Name: "", Dataset: ""}, http.StatusBadRequest},
		{RegisterRequest{Name: "big", Dataset: strings.Repeat("x", MaxBodyBytes)}, http.StatusRequestEntityTooLarge},
		{`{"name":"two","dataset":"tinydblp"}{"name":"three","dataset":"tinydblp"}`, http.StatusBadRequest},
		{`{"name":"junk","dataset":"tinydblp"} trailing garbage`, http.StatusBadRequest},
	} {
		resp := post("/v1/tenants", tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("register %.80v = %d, want %d", tc.req, resp.StatusCode, tc.want)
		}
		resp.Body.Close()
	}
	if names := reg.Names(); len(names) != 1 || names[0] != "live" {
		t.Errorf("rejected registrations left tenants %v, want only live", names)
	}
	// One value, then whitespace, is a whole body; the register body stays
	// lenient about keys it does not know.
	resp = post("/v1/tenants", `{"name":"lenient","dataset":"tinydblp","note":"x"}`+"\n \n")
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("register with an unknown key and trailing whitespace = %d, want 201", resp.StatusCode)
	}
	resp.Body.Close()

	// The dynamic tenant serves immediately.
	tn, ok := reg.Get("live")
	if !ok {
		t.Fatal("dynamic tenant not in registry")
	}
	q := authorQuery(t, tn.Engine)
	resp, err = http.Get(srv.URL + "/v1/live/search?rel=Author&q=" + q + "&l=4")
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	search := decodeJSON[SearchResponse](t, resp)
	if search.Count == 0 {
		t.Fatal("dynamic tenant returned no results")
	}

	// Deregister over HTTP; the tenant vanishes from routing.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/live", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deregister = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE again: %v", err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second deregister = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
	if resp, err := http.Get(srv.URL + "/v1/live/search?rel=Author&q=" + q); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("search after deregister = %v %v, want 404", resp.StatusCode, err)
	}
}

func TestMutateHTTP(t *testing.T) {
	reg := NewRegistry(ServerConfig{PoolSize: 2}, nil, nil)
	eng := freshEngine(t, 11)
	if _, err := reg.Register(TenantSpec{Name: "mut", Cache: 64}, eng); err != nil {
		t.Fatalf("Register: %v", err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	get := func(q string) SearchResponse {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/mut/search?rel=Author&q=" + q + "&l=4")
		if err != nil {
			t.Fatalf("search: %v", err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search = %d", resp.StatusCode)
		}
		return decodeJSON[SearchResponse](t, resp)
	}
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/mut/tuples", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST tuples: %v", err)
		}
		return resp
	}

	if got := get("quillfeather").Count; got != 0 {
		t.Fatalf("pre-insert count = %d", got)
	}
	// One object with a trailing newline, as json.Encoder clients send it.
	resp := post(`{"inserts":[{"rel":"Author","values":[990001,"Quillfeather Prime"]}]}` + "\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate = %d", resp.StatusCode)
	}
	mut := decodeJSON[MutateResponse](t, resp)
	if len(mut.Inserted) != 1 || mut.Epochs["Author"] == 0 {
		t.Fatalf("mutate response = %+v", mut)
	}
	// Fresh over HTTP, twice (the second served through the rotated cache).
	for i := 0; i < 2; i++ {
		if got := get("quillfeather"); got.Count != 1 || !strings.Contains(got.Results[0].Headline, "Quillfeather") {
			t.Fatalf("post-insert search #%d = %+v", i, got)
		}
	}

	// Validation, conflicts and an over-limit body map to 400/409/413 and
	// leave no trace; so does a body that would be acknowledged without
	// being applied in full (a second batch or garbage after the first
	// value, a misspelt key beside a valid one).
	epochs := map[string]uint64{}
	for _, rel := range eng.DB().Relations {
		epochs[rel.Name] = eng.EpochFor(rel.Name)
	}
	for body, want := range map[string]int{
		`{"inserts":[{"rel":"Author","values":[1,2,3]}]}`:   http.StatusBadRequest, // arity
		`{"inserts":[{"rel":"Author","values":["x","y"]}]}`: http.StatusBadRequest, // kinds
		`{"inserts":[{"rel":"Nope","values":[1]}]}`:         http.StatusBadRequest,
		`{"deletes":[{"rel":"Nope","pk":1}]}`:               http.StatusBadRequest,
		`{}`:                                                http.StatusBadRequest, // empty batch
		`not json`:                                          http.StatusBadRequest,
		`{"inserts":[{"rel":"Author","values":[990001,"DupKey"]}]}`:      http.StatusConflict,
		`{"deletes":[{"rel":"Author","pk":123456789}]}`:                  http.StatusConflict,
		`{"inserts":[{"rel":"Writes","values":[990009,999999,990001]}]}`: http.StatusConflict, // dangling paper

		`{"rerank":true} trailing garbage`: http.StatusBadRequest,
		`{"inserts":[{"rel":"Author","values":[990003,"First"]}]}{"inserts":[{"rel":"Author","values":[990004,"Second"]}]}`:     http.StatusBadRequest,
		`{"insert":[{"rel":"Author","values":[990005,"Misspelt"]}],"inserts":[{"rel":"Author","values":[990006,"Beside It"]}]}`: http.StatusBadRequest,

		`{"inserts":[{"rel":"Author","values":[990002,"` + strings.Repeat("x", MaxBodyBytes) + `"]}]}`: http.StatusRequestEntityTooLarge,
	} {
		resp := post(body)
		if resp.StatusCode != want {
			t.Errorf("mutate %.60s = %d, want %d", body, resp.StatusCode, want)
		}
		if decodeJSON[ErrorResponse](t, resp).Error.Code == "" {
			t.Errorf("mutate %.60s: %d without an error envelope", body, resp.StatusCode)
		}
	}
	for rel, before := range epochs {
		if after := eng.EpochFor(rel); after != before {
			t.Errorf("rejected batches moved %s's epoch %d -> %d", rel, before, after)
		}
	}

	// A paper for the new author reaches two summaries, its author's and its
	// own; retracting it reaches the one whose subject is still there.
	for _, body := range []string{
		`{"inserts":[{"rel":"Paper","values":[990010,1,"Quill Notes"]},{"rel":"Writes","values":[990011,990010,990001]}]}`,
		`{"deletes":[{"rel":"Writes","pk":990011},{"rel":"Paper","pk":990010}]}`,
	} {
		if resp := post(body); resp.StatusCode != http.StatusOK {
			t.Fatalf("mutate %s = %d", body, resp.StatusCode)
		}
	}

	// Delete over HTTP; the author disappears from search.
	resp = post(`{"deletes":[{"rel":"Author","pk":990001}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete mutate = %d", resp.StatusCode)
	}
	resp.Body.Close()
	if got := get("quillfeather").Count; got != 0 {
		t.Fatalf("post-delete count = %d, want 0", got)
	}

	// A bare rerank (no tuples) is a legal batch: recompute importance.
	resp = post(`{"rerank":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rerank-only mutate = %d, want 200", resp.StatusCode)
	}
	if rr := decodeJSON[MutateResponse](t, resp); !rr.Reranked {
		t.Fatalf("rerank-only response = %+v, want reranked", rr)
	}

	// /stats tells the three kinds of batch apart: the paper's two batches
	// stamped three subjects, the re-rank invalidated relations whole, the
	// lone author's insert and delete reached no summary.
	resp, err := http.Get(srv.URL + "/v1/mut/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if got, want := decodeJSON[StatsResponse](t, resp).Invalidation, (InvalidationStatsJSON{FootprintBatches: 2, WideBatches: 1, SubjectsStamped: 3}); got != want {
		t.Fatalf("stats invalidation = %+v, want %+v", got, want)
	}

	// Unknown tenant: 404.
	resp, err = http.Post(srv.URL+"/v1/ghost/tuples", "application/json", strings.NewReader(`{}`))
	if err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant mutate = %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
}

// TestMutationDuringInFlightBatch pins a search mid-compute (its pool slot
// is occupied), lands a mutation behind it, and asserts the in-flight page
// completes against the pre-mutation state while every post-mutation
// request sees the new tuple — the cached pre-mutation summaries are keyed
// to the old stamps and never resurface. Run with -race.
func TestMutationDuringInFlightBatch(t *testing.T) {
	reg := NewRegistry(ServerConfig{PoolSize: 1}, nil, nil) // one pool slot so a held slot blocks all computes
	eng := freshEngine(t, 12)
	tn, err := reg.Register(TenantSpec{Name: "flight", Cache: 128}, eng)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	q := authorQuery(t, eng)
	baseline, err := tenantSearch(tn, "Author", q, 4)
	if err != nil {
		t.Fatalf("baseline search: %v", err)
	}
	// Rotate the cache out from under the baseline so the pinned search
	// below actually computes (and therefore needs the pool). A plain insert
	// of an unrelated author reaches none of the cached subjects; a
	// re-ranking one changes every score, and with it every summary.
	if res, err := eng.Mutate(sizelos.MutationBatch{Rerank: true, Inserts: []sizelos.TupleInsert{{
		Rel:   "Author",
		Tuple: relational.Tuple{relational.IntVal(991000), relational.StrVal("Warmup Rotatesworth")},
	}}}); err != nil || res.Footprint["Author"] != -1 {
		t.Fatalf("warmup mutate: footprint %v, err %v; want Author invalidated relation-wide", res.Footprint, err)
	}
	want := len(baseline) + 1 // Rotatesworth won't match q; counts stay comparable
	_ = want

	// Occupy the only pool slot.
	hold := make(chan struct{})
	held := make(chan struct{})
	go reg.Pool().Do(func() { close(held); <-hold })
	<-held

	waited0 := reg.Pool().Stats().Waited
	type result struct {
		n   int
		err error
	}
	inFlight := make(chan result, 1)
	go func() {
		res, err := tenantSearch(tn, "Author", q, 4)
		inFlight <- result{len(res), err}
	}()
	// Wait until the search is provably parked on the pool (inside its
	// read-locked section).
	for deadline := time.Now().Add(5 * time.Second); reg.Pool().Stats().Waited == waited0; {
		if time.Now().After(deadline) {
			t.Fatal("search never reached the pool")
		}
		time.Sleep(time.Millisecond)
	}

	// Land a mutation behind the in-flight search: an author matching q.
	newName := strings.ToUpper(q[:1]) + q[1:] + " Midflightson"
	mutDone := make(chan error, 1)
	go func() {
		_, err := tn.Mutate(sizelos.MutationBatch{Inserts: []sizelos.TupleInsert{{
			Rel:   "Author",
			Tuple: relational.Tuple{relational.IntVal(991001), relational.StrVal(newName)},
		}}})
		mutDone <- err
	}()
	// The mutation must not complete while the search holds the read lock.
	select {
	case err := <-mutDone:
		t.Fatalf("mutation overtook the in-flight search (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(hold) // release the slot: search finishes, then the mutation lands
	got := <-inFlight
	if got.err != nil {
		t.Fatalf("in-flight search: %v", got.err)
	}
	if got.n != len(baseline) {
		t.Fatalf("in-flight search saw %d results, want pre-mutation %d", got.n, len(baseline))
	}
	if err := <-mutDone; err != nil {
		t.Fatalf("mutation: %v", err)
	}
	after, err := tenantSearch(tn, "Author", q, 4)
	if err != nil {
		t.Fatalf("post-mutation search: %v", err)
	}
	if len(after) != len(baseline)+1 {
		t.Fatalf("post-mutation search = %d results, want %d (stale cache served?)", len(after), len(baseline)+1)
	}
}

// TestDeregisterRacesCachedLookup hammers cached tenant lookups while the
// tenant deregisters: lookups that won the race finish their (cached or
// computed) searches normally, and afterwards the name is gone. Run with
// -race.
func TestDeregisterRacesCachedLookup(t *testing.T) {
	reg := NewRegistry(ServerConfig{PoolSize: 2}, nil, nil)
	eng := freshEngine(t, 13)
	if _, err := reg.Register(TenantSpec{Name: "victim", Cache: 64}, eng); err != nil {
		t.Fatalf("Register: %v", err)
	}
	q := authorQuery(t, eng)
	tn, _ := reg.Get("victim")
	if _, err := tenantSearch(tn, "Author", q, 4); err != nil {
		t.Fatalf("warm search: %v", err)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				if tn, ok := reg.Get("victim"); ok {
					if _, err := tenantSearch(tn, "Author", q, 4); err != nil {
						t.Errorf("race search: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		time.Sleep(500 * time.Microsecond)
		_, _ = reg.Deregister("victim")
	}()
	close(start)
	wg.Wait()
	if _, ok := reg.Get("victim"); ok {
		t.Fatal("tenant survived deregistration")
	}
}
