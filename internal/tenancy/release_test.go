package tenancy

// Regression tests for the migration handoff seam: Release must close a
// tenant's open durable handles WITHOUT deleting its durable state (the
// new owner serves from it), and a Deregister issued afterwards on the old
// owner must 404 without ever reaching Durability.ForgetTenant — reaching
// it would delete the state out from under the tenant's new owner. The
// miss-path lookup (Durability.LookupPending: fleet adoption of tenants
// recorded by other nodes) is covered here too.

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sizelos"
)

func (f *fakeDurability) releasedNames() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.released...)
}

func (f *fakeDurability) forgottenNames() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.forgotten...)
}

func newDurableRegistry(t *testing.T, fake *fakeDurability) *Registry {
	t.Helper()
	eng := testEngine(t, 710)
	reg := NewRegistry(ServerConfig{PoolSize: 2}, func(spec TenantSpec) (*sizelos.Engine, Attachment, error) {
		return eng, fake.attach(spec.Name), nil
	}, fake)
	return reg
}

func TestReleaseKeepsDurableState(t *testing.T) {
	fake := &fakeDurability{}
	reg := newDurableRegistry(t, fake)
	if _, err := reg.RegisterDynamic(TenantSpec{Name: "mig", Dataset: "dblp", Seed: 710}); err != nil {
		t.Fatalf("RegisterDynamic: %v", err)
	}
	if got := reg.LiveNames(); len(got) != 1 || got[0] != "mig" {
		t.Fatalf("LiveNames = %v", got)
	}
	if !reg.Release("mig") {
		t.Fatal("Release of a live tenant reported not found")
	}
	if _, ok := reg.Get("mig"); ok {
		t.Fatal("released tenant still live")
	}
	if got := fake.releasedNames(); len(got) != 1 || got[0] != "mig" {
		t.Fatalf("released handles = %v, want [mig]", got)
	}
	if got := fake.forgottenNames(); len(got) != 0 {
		t.Fatalf("Release reached ForgetTenant (%v): durable state would be deleted", got)
	}
	// The regression: a Deregister on the old owner after migration must
	// 404 (found=false) and must NOT delete the durable state the new
	// owner is serving from.
	found, err := reg.Deregister("mig")
	if err != nil {
		t.Fatalf("Deregister after release: %v", err)
	}
	if found {
		t.Fatal("Deregister found a migrated-away tenant")
	}
	if got := fake.forgottenNames(); len(got) != 0 {
		t.Fatalf("Deregister after release reached ForgetTenant (%v)", got)
	}
	if reg.Release("mig") {
		t.Fatal("double Release reported found")
	}
}

func TestReleasePendingTenant(t *testing.T) {
	fake := &fakeDurability{}
	reg := newDurableRegistry(t, fake)
	if err := reg.AddPending(TenantSpec{Name: "cold", Dataset: "dblp", Seed: 710}); err != nil {
		t.Fatal(err)
	}
	if !reg.Release("cold") {
		t.Fatal("Release of a pending tenant reported not found")
	}
	if names := reg.Names(); len(names) != 0 {
		t.Fatalf("names after pending release = %v", names)
	}
	// A pending tenant has no open handles to release, and the durable
	// record survives.
	if got := fake.forgottenNames(); len(got) != 0 {
		t.Fatalf("pending release reached ForgetTenant (%v)", got)
	}
}

func TestReleaseWaitsForInFlightRecovery(t *testing.T) {
	fake := &fakeDurability{}
	eng := testEngine(t, 711)
	started := make(chan struct{})
	gate := make(chan struct{})
	reg := NewRegistry(ServerConfig{PoolSize: 2}, func(spec TenantSpec) (*sizelos.Engine, Attachment, error) {
		close(started)
		<-gate
		return eng, fake.attach(spec.Name), nil
	}, fake)
	if err := reg.AddPending(TenantSpec{Name: "racy", Dataset: "dblp", Seed: 711}); err != nil {
		t.Fatal(err)
	}
	resolved := make(chan struct{})
	go func() {
		defer close(resolved)
		_, _, _ = reg.Resolve("racy")
	}()
	<-started
	releaseDone := make(chan bool, 1)
	go func() { releaseDone <- reg.Release("racy") }()
	// Release must block on the in-flight recovery, not race past it.
	select {
	case <-releaseDone:
		t.Fatal("Release returned while recovery was still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	<-resolved
	if found := <-releaseDone; !found {
		t.Fatal("Release after drained recovery reported not found")
	}
	if _, ok := reg.Get("racy"); ok {
		t.Fatal("released tenant resurrected by the drained recovery")
	}
	if got := fake.forgottenNames(); len(got) != 0 {
		t.Fatalf("Release reached ForgetTenant (%v)", got)
	}
}

func TestResolveConsultsPendingLoader(t *testing.T) {
	fake := &fakeDurability{}
	reg := newDurableRegistry(t, fake)
	var loads atomic.Int32
	fake.lookup = func(name string) (TenantSpec, bool) {
		loads.Add(1)
		if name == "ghost" {
			return TenantSpec{Name: "ghost", Dataset: "dblp", Seed: 710}, true
		}
		return TenantSpec{}, false
	}
	// Unknown everywhere: loader consulted, still a miss.
	if _, found, err := reg.Resolve("nobody"); found || err != nil {
		t.Fatalf("Resolve(nobody) = found %v, err %v", found, err)
	}
	// Known to the loader only (recorded by another fleet node): adopted
	// and recovered on first touch.
	tn, found, err := reg.Resolve("ghost")
	if err != nil || !found || tn == nil {
		t.Fatalf("Resolve(ghost) = %v, %v, %v", tn, found, err)
	}
	after := loads.Load()
	// Once live, the loader is out of the path.
	if _, found, _ := reg.Resolve("ghost"); !found {
		t.Fatal("materialized tenant lost")
	}
	if loads.Load() != after {
		t.Fatal("Resolve of a live tenant consulted the loader")
	}
}

func TestPendingLoaderNeverReadoptsReleasedTenant(t *testing.T) {
	fake := &fakeDurability{}
	reg := newDurableRegistry(t, fake)
	if _, err := reg.RegisterDynamic(TenantSpec{Name: "mig", Dataset: "dblp", Seed: 710}); err != nil {
		t.Fatal(err)
	}
	var loads atomic.Int32
	fake.lookup = func(name string) (TenantSpec, bool) {
		loads.Add(1)
		// The shared manifest still lists the tenant after a release —
		// its durable state belongs to the new owner.
		return fake.manifest(name)
	}
	if !reg.Release("mig") {
		t.Fatal("Release reported not found")
	}
	// A stray request on the old owner must NOT re-adopt the tenant: that
	// would re-open a WAL the new owner is appending to.
	if _, found, err := reg.Resolve("mig"); found || err != nil {
		t.Fatalf("Resolve after release = found %v, err %v; want a clean miss", found, err)
	}
	if loads.Load() != 0 {
		t.Fatal("pending loader consulted for a released name")
	}
	// Nor may a registration take the name while the manifest records it.
	if _, err := reg.RegisterDynamic(TenantSpec{Name: "mig", Dataset: "dblp", Seed: 710}); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("re-register of a recorded name: %v, want ErrTenantExists", err)
	}
	// Once the new owner deletes it, a deliberate re-registration lifts the
	// mark.
	if err := fake.ForgetTenant("mig"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.RegisterDynamic(TenantSpec{Name: "mig", Dataset: "dblp", Seed: 710}); err != nil {
		t.Fatalf("re-register after release: %v", err)
	}
	if _, found, _ := reg.Resolve("mig"); !found {
		t.Fatal("re-registered tenant not served")
	}
}

// TestReadoptLiftsReleaseMark pins the failover-return seam: after this
// node releases a tenant (migration handoff), the router can hand
// ownership BACK — the migration target died — by POSTing adopt, and only
// then does the pending loader materialize the tenant here again. Without
// Readopt the tenant would 404 on its fallback owner forever.
func TestReadoptLiftsReleaseMark(t *testing.T) {
	fake := &fakeDurability{}
	reg := newDurableRegistry(t, fake)
	fake.lookup = fake.manifest
	if _, err := reg.RegisterDynamic(TenantSpec{Name: "mig", Dataset: "dblp", Seed: 710}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/mig/release", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release = %d", resp.StatusCode)
	}
	if _, found, _ := reg.Resolve("mig"); found {
		t.Fatal("released tenant still resolvable")
	}

	resp, err = http.Post(srv.URL+"/v1/mig/adopt", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adopt = %d", resp.StatusCode)
	}
	if _, found, err := reg.Resolve("mig"); !found || err != nil {
		t.Fatalf("Resolve after adopt = found %v, err %v; want re-adoption via loader", found, err)
	}
	// Adopting a name this node never heard of stays a lazy no-op 200.
	resp, err = http.Post(srv.URL+"/v1/elsewhere/adopt", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adopt of unknown name = %d, want idempotent 200", resp.StatusCode)
	}
}

func TestReleaseOverHTTP(t *testing.T) {
	fake := &fakeDurability{}
	reg := newDurableRegistry(t, fake)
	if _, err := reg.RegisterDynamic(TenantSpec{Name: "mig", Dataset: "dblp", Seed: 710}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/mig/release", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release = %d, want 200", resp.StatusCode)
	}
	// Released: queries 404, a second release 404s, DELETE 404s — and the
	// durable state was never deleted.
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/mig/search?rel=Author&q=x"},
		{http.MethodPost, "/v1/mig/release"},
		{http.MethodDelete, "/v1/mig"},
	} {
		req, _ := http.NewRequest(probe.method, srv.URL+probe.path, strings.NewReader(""))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s = %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}
	if got := fake.forgottenNames(); len(got) != 0 {
		t.Fatalf("HTTP release path reached ForgetTenant: %v", got)
	}
	if got := fake.releasedNames(); len(got) != 1 {
		t.Fatalf("released handles = %v, want exactly one", got)
	}
}
