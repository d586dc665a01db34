package loadgen

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sizelos"
	"sizelos/internal/datagen"
	"sizelos/internal/nodehost"
	"sizelos/internal/router"
	"sizelos/internal/tenancy"
)

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

// TestClosedLoopAgainstRoutedFleet runs the full harness against a real
// two-node routed fleet: zero errors, zero missing tokens, per-node
// throughput attributed via the router's node header, and all op classes
// exercised.
func TestClosedLoopAgainstRoutedFleet(t *testing.T) {
	dir := t.TempDir()
	var members []router.Member
	for _, name := range []string{"n1", "n2"} {
		node, err := nodehost.Boot(tenancy.ServerConfig{
			Seed: 830, CacheBudget: 64, DataDir: dir, KeepSnapshots: 2,
		}, nil, nodehost.Config{Open: smallOpen, Logf: t.Logf})
		if err != nil {
			t.Fatalf("boot %s: %v", name, err)
		}
		t.Cleanup(node.Close)
		srv := httptest.NewServer(node.Handler())
		t.Cleanup(srv.Close)
		members = append(members, router.Member{Name: name, URL: srv.URL})
	}
	rt, err := router.New(router.Config{Members: members, HealthInterval: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	for _, tenant := range []string{"tenant-a", "tenant-b"} {
		resp, err := http.Post(front.URL+"/v1/tenants", "application/json",
			strings.NewReader(fmt.Sprintf(`{"name":%q,"dataset":"dblp"}`, tenant)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("register %s: %d", tenant, resp.StatusCode)
		}
	}

	res, err := Run(Config{
		BaseURL:     front.URL,
		Tenants:     []string{"tenant-a", "tenant-b"},
		Concurrency: 4,
		Ops:         120,
		Seed:        7,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d, want 0", res.Errors)
	}
	if len(res.Missing) != 0 {
		t.Fatalf("missing tokens: %v", res.Missing)
	}
	if res.Acked == 0 || res.Verified != res.Acked {
		t.Fatalf("consistency ledger acked=%d verified=%d", res.Acked, res.Verified)
	}
	for _, class := range []string{OpSearch, OpRanked, OpMutate, OpVerify} {
		cs := res.Classes[class]
		if cs == nil || cs.Count == 0 {
			t.Fatalf("op class %s never ran: %+v", class, res.Classes)
		}
		if cs.P50 <= 0 || cs.P99 < cs.P50 {
			t.Fatalf("class %s has nonsense percentiles p50=%s p99=%s", class, cs.P50, cs.P99)
		}
	}
	var routed int64
	for node, n := range res.PerNode {
		if node == "" {
			t.Fatal("routed run produced responses without a node header")
		}
		routed += n
	}
	if routed != res.Ops {
		t.Fatalf("per-node attribution covers %d of %d ops", routed, res.Ops)
	}
	if len(res.PerNode) != 2 {
		t.Fatalf("expected both nodes to serve traffic: %v", res.PerNode)
	}
	// What `osload -out` writes is this value marshalled: per-class
	// p50/p99, per-node counts and the ledger must survive the round trip.
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report does not decode: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(&back, res) {
		t.Fatalf("report round trip changed the run:\n got %+v\nwant %+v\n%s", back, *res, data)
	}
}

// TestOracleDetectsLostWrites pins that the consistency check actually
// fails when a service acks mutations and then drops them: a lying server
// must produce Missing tokens, not a green run.
func TestOracleDetectsLostWrites(t *testing.T) {
	var mu sync.Mutex
	acks := 0
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if req.Method == http.MethodPost {
			mu.Lock()
			acks++
			mu.Unlock()
			w.Write([]byte(`{"inserted":[1]}`)) // acked... and forgotten
			return
		}
		w.Write([]byte(`{"count":0,"results":[]}`)) // reads never see it
	}))
	defer liar.Close()

	res, err := Run(Config{
		BaseURL:     liar.URL,
		Tenants:     []string{"t"},
		Concurrency: 2,
		Ops:         40,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Acked == 0 {
		t.Fatal("workload never acked a mutation; oracle untested")
	}
	if int64(len(res.Missing)) != res.Acked || res.Verified != 0 {
		t.Fatalf("oracle missed lost writes: acked=%d verified=%d missing=%d",
			res.Acked, res.Verified, len(res.Missing))
	}
}

func TestPercentile(t *testing.T) {
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	if got := percentile(ds, 50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %s", got)
	}
	if got := percentile(ds, 99); got != 99*time.Millisecond {
		t.Fatalf("p99 = %s", got)
	}
	if got := percentile(ds[:1], 99); got != time.Millisecond {
		t.Fatalf("p99 of singleton = %s", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Fatalf("p50 of empty = %s", got)
	}
}
