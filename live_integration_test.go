package sizelos

// Live-service integration test: builds the real cmd/ossrv binary, boots
// it on an ephemeral port, and exercises the whole admin lifecycle over
// actual HTTP — dynamic tenant registration, tuple mutation with freshness
// assertions, and deregistration. Gated behind SIZELOS_INTEGRATION=1
// because it builds a binary and two engines; CI runs it as its own leg.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var listenLine = regexp.MustCompile(`listening on ([^\s]+:[0-9]+)`)

func TestLiveServiceHTTP(t *testing.T) {
	if os.Getenv("SIZELOS_INTEGRATION") == "" {
		t.Skip("set SIZELOS_INTEGRATION=1 to run the live-service integration test")
	}
	bin := filepath.Join(t.TempDir(), "ossrv")
	build := exec.Command("go", "build", "-o", bin, "./cmd/ossrv")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build ossrv: %v\n%s", err, out)
	}

	srv := exec.Command(bin, "-addr", "127.0.0.1:0", "-tenant", "none", "-cache", "128")
	stderr, err := srv.StderrPipe()
	if err != nil {
		t.Fatalf("stderr pipe: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("start ossrv: %v", err)
	}
	defer func() {
		_ = srv.Process.Kill()
		_ = srv.Wait()
	}()

	// The service logs its chosen address once the listener is up.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			t.Logf("ossrv: %s", line)
			if m := listenLine.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case <-time.After(2 * time.Minute):
		t.Fatal("ossrv never reported its listen address")
	}

	getJSON := func(path string, want int, v any) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d\n%s", path, resp.StatusCode, want, body)
		}
		if v != nil {
			if err := json.Unmarshal(body, v); err != nil {
				t.Fatalf("GET %s: decode: %v\n%s", path, err, body)
			}
		}
	}
	postJSON := func(path string, payload string, want int, v any) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			t.Fatalf("POST %s = %d, want %d\n%s", path, resp.StatusCode, want, body)
		}
		if v != nil {
			if err := json.Unmarshal(body, v); err != nil {
				t.Fatalf("POST %s: decode: %v\n%s", path, err, body)
			}
		}
	}

	// Empty registry at boot; unknown paths are JSON 404s.
	var tenants struct {
		Tenants []string `json:"tenants"`
	}
	getJSON("/v1/tenants", http.StatusOK, &tenants)
	if len(tenants.Tenants) != 0 {
		t.Fatalf("boot tenants = %v, want none", tenants.Tenants)
	}
	var e struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	getJSON("/v1/nobody/bogus", http.StatusNotFound, &e)
	if e.Error.Code != "not_found" || e.Error.Message == "" {
		t.Fatalf("404 envelope = %+v", e.Error)
	}

	// Register a tenant dynamically — no flags, no restart.
	var created struct {
		Tenant   string   `json:"tenant"`
		Settings []string `json:"settings"`
	}
	postJSON("/v1/tenants", `{"name":"live","dataset":"dblp","seed":7,"cache":128}`, http.StatusCreated, &created)
	if created.Tenant != "live" || len(created.Settings) == 0 {
		t.Fatalf("register response: %+v", created)
	}
	getJSON("/v1/tenants", http.StatusOK, &tenants)
	if len(tenants.Tenants) != 1 || tenants.Tenants[0] != "live" {
		t.Fatalf("tenants after register = %v", tenants.Tenants)
	}

	type searchResp struct {
		Count   int `json:"count"`
		Results []struct {
			Headline string `json:"headline"`
			Text     string `json:"text"`
		} `json:"results"`
	}
	search := func(q string) searchResp {
		t.Helper()
		var sr searchResp
		getJSON("/v1/live/search?rel=Author&q="+q+"&l=8", http.StatusOK, &sr)
		return sr
	}

	// The famous fixture authors answer immediately.
	if sr := search("Faloutsos"); sr.Count != 3 {
		t.Fatalf("Faloutsos count = %d, want 3", sr.Count)
	}

	// Mutate: insert a brand-new author and wire a paper to them; the very
	// next search must see it (fresh, not a stale cached miss).
	if sr := search("Tuplesmith"); sr.Count != 0 {
		t.Fatalf("pre-insert Tuplesmith count = %d", sr.Count)
	}
	var paper struct {
		Results []struct {
			Tuple int `json:"tuple"`
		} `json:"results"`
	}
	// limit's removed legacy name is refused, never silently unbounded.
	getJSON("/v1/live/search?rel=Paper&q=the&l=1&topk=1", http.StatusBadRequest, nil)
	getJSON("/v1/live/search?rel=Paper&q=the&l=1&limit=1", http.StatusOK, &paper)
	var mut struct {
		Inserted []int             `json:"inserted"`
		Epochs   map[string]uint64 `json:"epochs"`
	}
	postJSON("/v1/live/tuples",
		`{"inserts":[{"rel":"Author","values":[990001,"Livia Tuplesmith"]}]}`,
		http.StatusOK, &mut)
	if len(mut.Inserted) != 1 || mut.Epochs["Author"] == 0 {
		t.Fatalf("mutate response: %+v", mut)
	}
	sr := search("Tuplesmith")
	if sr.Count != 1 || !strings.Contains(sr.Results[0].Headline, "Tuplesmith") {
		t.Fatalf("post-insert Tuplesmith = %+v", sr)
	}
	// Repeat (cache-served) stays fresh and identical.
	if sr2 := search("Tuplesmith"); sr2.Count != 1 || sr2.Results[0].Text != sr.Results[0].Text {
		t.Fatalf("cached repeat diverged: %+v", sr2)
	}

	// Conflicts don't corrupt: duplicate key is a 409, then the tenant
	// still serves.
	postJSON("/v1/live/tuples",
		`{"inserts":[{"rel":"Author","values":[990001,"Duplicate Tuplesmith"]}]}`,
		http.StatusConflict, nil)
	if sr := search("Tuplesmith"); sr.Count != 1 {
		t.Fatalf("after conflict, Tuplesmith = %d", sr.Count)
	}

	// Delete the author; searches go stale-free back to zero.
	postJSON("/v1/live/tuples", `{"deletes":[{"rel":"Author","pk":990001}]}`, http.StatusOK, nil)
	if sr := search("Tuplesmith"); sr.Count != 0 {
		t.Fatalf("post-delete Tuplesmith = %d, want 0", sr.Count)
	}

	// Deregister over HTTP; the tenant is gone from the live service.
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/live", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE /v1/live: %v", err)
	}
	var body bytes.Buffer
	_, _ = io.Copy(&body, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /v1/live = %d\n%s", resp.StatusCode, body.String())
	}
	getJSON("/v1/live/search?rel=Author&q=Faloutsos", http.StatusNotFound, nil)
	getJSON("/v1/tenants", http.StatusOK, &tenants)
	if len(tenants.Tenants) != 0 {
		t.Fatalf("tenants after deregister = %v", tenants.Tenants)
	}
}
