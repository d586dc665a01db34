package sizelos

// Scale-out integration test: builds the real cmd/ossrv, cmd/osrouter, and
// cmd/osload binaries, boots a three-node fleet over one shared durable
// data dir behind the router, and SIGKILLs a fleet node while a closed-loop
// osload stream (mixed search + mutate) is running through the front door.
// The load generator doubles as the consistency oracle: it exits non-zero
// if any acknowledged mutation is not visible to a later routed read — so
// a green run proves failover rehashing plus WAL recovery lose nothing.
// Gated behind SIZELOS_INTEGRATION=1 because it builds three binaries and
// several engines; CI runs it as its own leg.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// proc is one launched service process with its parsed listen address.
type proc struct {
	cmd  *exec.Cmd
	base string
}

// startProc launches a binary and waits for its "listening on" log line.
func startProc(t *testing.T, label, bin string, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatalf("%s: stderr pipe: %v", label, err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", label, err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			t.Logf("%s: %s", label, line)
			if m := listenLine.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &proc{cmd: cmd, base: "http://" + addr}
	case <-time.After(2 * time.Minute):
		t.Fatalf("%s never reported its listen address", label)
		return nil
	}
}

func TestScaleOutFleetSurvivesNodeKill(t *testing.T) {
	if os.Getenv("SIZELOS_INTEGRATION") == "" {
		t.Skip("set SIZELOS_INTEGRATION=1 to run the scale-out integration test")
	}
	binDir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"ossrv", "osrouter", "osload"} {
		bin := filepath.Join(binDir, name)
		build := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
		bins[name] = bin
	}

	// Three fleet nodes over ONE durable data dir; fsync-per-commit WALs
	// (the default) so a SIGKILL cannot lose an acked mutation.
	dataDir := t.TempDir()
	nodes := map[string]*proc{}
	var memberArgs []string
	for _, name := range []string{"n1", "n2", "n3"} {
		p := startProc(t, name, bins["ossrv"],
			"-addr", "127.0.0.1:0", "-tenant", "none",
			"-data-dir", dataDir, "-snapshot-interval", "0", "-cache", "128")
		nodes[name] = p
		memberArgs = append(memberArgs, "-member", name+"="+p.base)
	}
	routerArgs := append([]string{"-addr", "127.0.0.1:0",
		"-health-interval", "250ms", "-health-timeout", "1s", "-fail-threshold", "2"}, memberArgs...)
	rt := startProc(t, "osrouter", bins["osrouter"], routerArgs...)

	getJSON := func(base, path string, v any) error {
		resp, err := http.Get(base + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s = %d: %s", path, resp.StatusCode, body)
		}
		if v != nil {
			return json.Unmarshal(body, v)
		}
		return nil
	}

	// Warm-up run through the router: registers the tenants durably and
	// proves the routed path end to end before any fault is injected.
	tenants := []string{"tenant-a", "tenant-b", "tenant-c"}
	warmArgs := []string{"-base", rt.base, "-register", "-ops", "60", "-concurrency", "4", "-seed", "11"}
	for _, tn := range tenants {
		warmArgs = append(warmArgs, "-tenant", tn)
	}
	if out, err := exec.Command(bins["osload"], warmArgs...).CombinedOutput(); err != nil {
		t.Fatalf("warm-up osload failed: %v\n%s", err, out)
	}

	// Find a node that owns at least one tenant, to make the kill count.
	victim := ""
	for _, tn := range tenants {
		var ring struct {
			Owner string `json:"owner"`
		}
		if err := getJSON(rt.base, "/router/ring?key="+tn, &ring); err != nil {
			t.Fatalf("ring lookup: %v", err)
		}
		if ring.Owner != "" {
			victim = ring.Owner
			break
		}
	}
	if victim == "" {
		t.Fatal("no tenant has an owner; ring broken")
	}

	// Main run: closed-loop mixed workload through the router, with the
	// victim SIGKILLed mid-stream. osload exits 2 if any acked mutation is
	// not visible to a later routed read.
	outFile := filepath.Join(binDir, "osload.json")
	mainArgs := []string{"-base", rt.base, "-ops", "2000", "-concurrency", "6",
		"-mutate-permille", "300", "-seed", "23", "-out", outFile}
	for _, tn := range tenants {
		mainArgs = append(mainArgs, "-tenant", tn)
	}
	load := exec.Command(bins["osload"], mainArgs...)
	load.Stderr = os.Stderr
	if err := load.Start(); err != nil {
		t.Fatalf("start osload: %v", err)
	}

	time.Sleep(700 * time.Millisecond)
	t.Logf("SIGKILL fleet node %s mid-stream", victim)
	if err := nodes[victim].cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("kill %s: %v", victim, err)
	}
	_, _ = nodes[victim].cmd.Process.Wait()

	if err := load.Wait(); err != nil {
		t.Fatalf("osload reported failure (lost acked mutations or harness error): %v", err)
	}

	// The router noticed: within a few probe rounds the victim is off the
	// ring, the survivors carry the traffic, and every tenant still answers
	// with its durable state.
	victimEvicted := func() bool {
		var members struct {
			Members []struct {
				Name    string `json:"name"`
				Healthy bool   `json:"healthy"`
			} `json:"members"`
		}
		if err := getJSON(rt.base, "/router/members", &members); err != nil {
			t.Fatalf("members: %v", err)
		}
		for _, m := range members.Members {
			if m.Name == victim {
				return !m.Healthy
			}
		}
		t.Fatalf("victim %s missing from member listing", victim)
		return false
	}
	deadline := time.Now().Add(15 * time.Second)
	for !victimEvicted() {
		if time.Now().After(deadline) {
			t.Fatalf("victim %s still marked healthy 15s after SIGKILL", victim)
		}
		time.Sleep(250 * time.Millisecond)
	}
	for _, tn := range tenants {
		var sr struct {
			Count int `json:"count"`
		}
		if err := getJSON(rt.base, "/v1/"+tn+"/search?rel=Author&q=Faloutsos&l=5", &sr); err != nil {
			t.Fatalf("post-kill search %s: %v", tn, err)
		}
		if sr.Count == 0 {
			t.Fatalf("tenant %s answered empty after failover", tn)
		}
	}

	// The report landed with the consistency ledger intact.
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatalf("osload report: %v", err)
	}
	var report struct {
		Acked   *int64   `json:"acked"`
		Errors  int64    `json:"errors"`
		Missing []string `json:"missing"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("osload report: %v", err)
	}
	if report.Acked == nil {
		t.Fatalf("report has no consistency ledger: %s", data)
	}
	if len(report.Missing) != 0 {
		t.Fatalf("consistency ledger reports missing tokens: %v", report.Missing)
	}
	if *report.Acked == 0 {
		t.Fatal("run acked no mutations; fault window missed the write path")
	}
	t.Logf("osload report: %d acked, %d missing, %d errors", *report.Acked, len(report.Missing), report.Errors)
}
