package router

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sizelos/internal/tenancy"
)

// TestRoutedHopAllocBytes bounds what one cache-hot routed /search
// allocates across client, router and node together: under 19 KiB a
// request, the most read under -race (14.1–15.1 KB; 10.8 KB without it)
// plus a quarter.
func TestRoutedHopAllocBytes(t *testing.T) {
	f := newFleet(t, "n1", "n2", "n3")
	do(t, f.rtSrv.URL, http.MethodPost, "/v1/tenants", `{"name":"tenant-a","dataset":"dblp"}`)
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	get := func() {
		resp, err := client.Get(f.rtSrv.URL + "/v1/tenant-a/search?rel=Author&q=Faloutsos&l=10")
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("routed search: %d %v", resp.StatusCode, err)
		}
	}
	for range 50 {
		get()
	}
	const n = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		get()
	}
	runtime.ReadMemStats(&after)
	perReq := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d bytes allocated per routed /search", perReq)
	if perReq >= 19<<10 {
		t.Fatalf("%d bytes allocated per routed /search, want under %d", perReq, 19<<10)
	}
}

// TestRoutedConnectionReuse: four clients at once through the router to
// one member ride at most four member connections. After the warm-up the
// member may see at most four new ones over 400 requests; a transport that
// keeps fewer idle connections than the clients in flight redials on
// nearly every request.
func TestRoutedConnectionReuse(t *testing.T) {
	body := map[string]string{"pad": strings.Repeat("x", 6<<10)}
	var newConns atomic.Int64
	member := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		tenancy.WriteJSON(w, http.StatusOK, body)
	}))
	member.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			newConns.Add(1)
		}
	}
	member.Start()
	defer member.Close()
	rt, err := New(Config{Members: []Member{{Name: "m", URL: member.URL}}, HealthInterval: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer client.CloseIdleConnections()

	const clients = 4
	run := func(perClient int) {
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range perClient {
					resp, err := client.Get(front.URL + "/v1/tenant-a/search")
					if err != nil {
						errs <- err
						return
					}
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	run(25)
	warm := newConns.Load()
	run(100)
	if opened := newConns.Load() - warm; opened > clients {
		t.Fatalf("member saw %d new connections over %d requests after the warm-up (%d during it), want at most %d",
			opened, clients*100, warm, clients)
	}
}
