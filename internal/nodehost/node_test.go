package nodehost

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"sizelos"
	"sizelos/internal/datagen"
	"sizelos/internal/tenancy"
)

// smallConfig keeps node boots fast: fsync-per-commit WALs; pair with
// smallOpts for the tiny DBLP recipe.
func smallConfig(dataDir string) tenancy.ServerConfig {
	return tenancy.ServerConfig{
		Seed:          910,
		CacheBudget:   64,
		DataDir:       dataDir,
		KeepSnapshots: 2,
	}
}

// smallOpts swaps the full-size default datasets for the tiny DBLP recipe
// the tenancy suite uses, so booting a node costs milliseconds.
func smallOpts(t *testing.T) Config {
	t.Helper()
	return Config{
		Logf: t.Logf,
		Open: func(dataset string, seed int64) (*sizelos.Engine, error) {
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
		},
	}
}

func doJSON(t *testing.T, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("%s %s: decode: %v", method, url, err)
	}
	return resp.StatusCode, out
}

// TestFleetAdoptionAndHandoff drives the full migration seam over a shared
// data dir: node A registers a durable tenant and commits a mutation; node
// B — booted BEFORE the tenant existed — adopts it on first touch via the
// pending loader and serves the mutated state; after A releases, a stray
// request on A misses cleanly instead of re-opening the WAL B now owns.
func TestFleetAdoptionAndHandoff(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig(dir)

	nodeA, err := Boot(cfg, nil, smallOpts(t))
	if err != nil {
		t.Fatalf("boot A: %v", err)
	}
	defer nodeA.Close()
	nodeB, err := Boot(cfg, nil, smallOpts(t))
	if err != nil {
		t.Fatalf("boot B: %v", err)
	}
	defer nodeB.Close()

	srvA := httptest.NewServer(nodeA.Handler())
	defer srvA.Close()
	srvB := httptest.NewServer(nodeB.Handler())
	defer srvB.Close()

	// Register durably on A and commit one insert.
	if code, _ := doJSON(t, http.MethodPost, srvA.URL+"/v1/tenants",
		map[string]any{"name": "mig", "dataset": "dblp"}); code != http.StatusCreated {
		t.Fatalf("register on A = %d", code)
	}
	code, mut := doJSON(t, http.MethodPost, srvA.URL+"/v1/mig/tuples", map[string]any{
		"inserts": []map[string]any{{"rel": "Author", "values": []any{90001, "Migration Probe"}}},
	})
	if code != http.StatusOK {
		t.Fatalf("mutate on A = %d (%v)", code, mut)
	}

	// A holds the WAL; release it so B's recovery sees a closed log.
	if !nodeA.Registry.Release("mig") {
		t.Fatal("release on A reported not found")
	}

	// B never heard of "mig" at boot — first touch must adopt from the
	// shared manifest and recover the acked insert.
	code, res := doJSON(t, http.MethodGet, srvB.URL+"/v1/mig/search?rel=Author&q=Migration+Probe&l=5", nil)
	if code != http.StatusOK {
		t.Fatalf("adopted search on B = %d (%v)", code, res)
	}
	if n, _ := res["count"].(float64); n < 1 {
		t.Fatalf("acked insert not visible on new owner: %v", res)
	}

	// Old owner: clean 404, no re-adoption.
	if code, _ := doJSON(t, http.MethodGet, srvA.URL+"/v1/mig/search?rel=Author&q=x", nil); code != http.StatusNotFound {
		t.Fatalf("released tenant on A = %d, want 404", code)
	}
}

// TestBootRecoversFlagTenantsEagerly pins the cmd/ossrv boot contract the
// extraction must preserve: named boot tenants are recorded and recovered
// before Boot returns, and a second boot over the same dir finds them in
// the manifest rather than re-recording.
func TestBootRecoversFlagTenantsEagerly(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig(dir)

	node, err := Boot(cfg, []string{"demo=dblp"}, smallOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := node.Registry.Get("demo"); !ok {
		t.Fatal("boot tenant not live after Boot")
	}
	node.Close()

	again, err := Boot(cfg, []string{"demo=dblp"}, smallOpts(t))
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	defer again.Close()
	if _, ok := again.Registry.Get("demo"); !ok {
		t.Fatal("boot tenant not recovered on reboot")
	}
}

// TestRegisterConcurrentDuplicateBuildsOnce: on a node without a data dir,
// two POST /v1/tenants of one name racing each other cost one engine build —
// the name is claimed before the build starts, so the loser gets its 409
// while the winner is still building, not after a build of its own.
func TestRegisterConcurrentDuplicateBuildsOnce(t *testing.T) {
	opts := smallOpts(t)
	open := opts.Open
	entered := make(chan struct{}, 2) // one send per build; never blocks a build
	release := make(chan struct{})
	opts.Open = func(dataset string, seed int64) (*sizelos.Engine, error) {
		entered <- struct{}{}
		<-release
		return open(dataset, seed)
	}
	node, err := Boot(smallConfig(""), nil, opts)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	srv := httptest.NewServer(node.Handler())
	defer srv.Close()

	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(srv.URL+"/v1/tenants", "application/json",
				bytes.NewReader([]byte(`{"name":"twin","dataset":"dblp"}`)))
			if err != nil {
				t.Errorf("POST: %v", err)
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	<-entered // the winner is inside its build and stays there
	var got []int
	select {
	case code := <-codes:
		got = append(got, code)
	case <-entered:
		t.Error("both registrations are building an engine")
	}
	close(release)
	for len(got) < 2 {
		got = append(got, <-codes)
	}
	sort.Ints(got)
	if got[0] != http.StatusCreated || got[1] != http.StatusConflict {
		t.Errorf("statuses = %v, want one 201 and one 409", got)
	}
	if names := node.Registry.Names(); len(names) != 1 || names[0] != "twin" {
		t.Errorf("tenants = %v, want only twin", names)
	}
}
