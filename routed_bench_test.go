package sizelos_test

// BenchmarkRoutedQuery measures the full scale-out query path: an
// in-process three-node fleet behind the consistent-hash router, with
// every request travelling client -> router -> owner node -> engine and
// back through the reverse proxy. Its direct leg sends the same requests
// straight to each tenant's owner node: the difference between the legs is
// the routing tier's overhead (ring lookup, drain gate, proxy hop,
// node-header stamping), the layer BENCHMARK.json's router.hop_us watches.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sizelos"
	"sizelos/internal/datagen"
	"sizelos/internal/nodehost"
	"sizelos/internal/router"
	"sizelos/internal/tenancy"
)

// benchFleet boots an in-memory three-node fleet behind a router and
// registers one tenant per node-ish (three tenants hash across members). It
// returns the router's URL and each member's URL by name.
func benchFleet(b *testing.B) (string, map[string]string) {
	b.Helper()
	open := func(dataset string, seed int64) (*sizelos.Engine, error) {
		if dataset != "dblp" {
			return nil, fmt.Errorf("bench fleet serves dblp only, got %q", dataset)
		}
		cfg := datagen.DefaultDBLPConfig()
		cfg.Seed = seed
		cfg.Authors = 40
		cfg.Papers = 160
		cfg.Conferences = 4
		cfg.YearSpan = 3
		return sizelos.OpenDBLP(cfg)
	}
	var members []router.Member
	nodes := map[string]string{}
	for _, name := range []string{"n1", "n2", "n3"} {
		node, err := nodehost.Boot(tenancy.ServerConfig{
			Seed: 840, CacheBudget: 64,
		}, nil, nodehost.Config{Open: open})
		if err != nil {
			b.Fatalf("boot %s: %v", name, err)
		}
		b.Cleanup(node.Close)
		srv := httptest.NewServer(node.Handler())
		b.Cleanup(srv.Close)
		members = append(members, router.Member{Name: name, URL: srv.URL})
		nodes[name] = srv.URL
	}
	rt, err := router.New(router.Config{Members: members, HealthInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	b.Cleanup(front.Close)

	for _, tenant := range []string{"tenant-a", "tenant-b", "tenant-c"} {
		resp, err := http.Post(front.URL+"/v1/tenants", "application/json",
			strings.NewReader(fmt.Sprintf(`{"name":%q,"dataset":"dblp"}`, tenant)))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			b.Fatalf("register %s: %d", tenant, resp.StatusCode)
		}
	}
	return front.URL, nodes
}

func BenchmarkRoutedQuery(b *testing.B) {
	front, nodes := benchFleet(b)
	client := &http.Client{}
	tenants := []string{"tenant-a", "tenant-b", "tenant-c"}
	const path = "/search?rel=Author&q=Faloutsos&l=10"
	get := func(b *testing.B, url string) *http.Response {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("search %s: %d", url, resp.StatusCode)
		}
		return resp
	}
	// owner maps each tenant to the node the router sends it to.
	owner := map[string]string{}
	for _, tenant := range tenants {
		resp := get(b, front+"/v1/"+tenant+path)
		if owner[tenant] = nodes[resp.Header.Get(router.NodeHeader)]; owner[tenant] == "" {
			b.Fatal("routed response missing node attribution header")
		}
	}
	for _, leg := range []struct {
		name string
		base func(tenant string) string
	}{
		{"routed", func(string) string { return front }},
		{"direct", func(tenant string) string { return owner[tenant] }},
	} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tenant := tenants[i%len(tenants)]
				get(b, leg.base(tenant)+"/v1/"+tenant+path)
			}
		})
	}
}
