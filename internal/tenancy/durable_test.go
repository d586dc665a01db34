package tenancy

// Tests for the registry's durability seam: lazy recovery of pending
// tenants (single-flight under concurrency), manifest recording on dynamic
// registration, and durable removal on deregistration. The registry sees
// durability only through the Recoverer/Attachment/Durability seam, so these
// tests use in-memory fakes; the real WAL-backed implementations are
// proven in internal/durable and wired up in cmd/ossrv.

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sizelos"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeDurability records lifecycle calls.
type fakeDurability struct {
	mu        sync.Mutex
	recorded  map[string]TenantSpec
	forgotten []string
	released  []string
	failNext  error
	// lookup answers LookupPending — a shared manifest other nodes write;
	// nil knows no tenant.
	lookup func(name string) (TenantSpec, bool)
}

func (f *fakeDurability) LookupPending(name string) (TenantSpec, bool) {
	if f.lookup == nil {
		return TenantSpec{}, false
	}
	return f.lookup(name)
}

// manifest is a lookup over what this fake recorded: a shared manifest
// only this registry writes to.
func (f *fakeDurability) manifest(name string) (TenantSpec, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	spec, ok := f.recorded[name]
	return spec, ok
}

func (f *fakeDurability) RecordTenant(spec TenantSpec) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failNext != nil {
		err := f.failNext
		f.failNext = nil
		return err
	}
	if f.recorded == nil {
		f.recorded = make(map[string]TenantSpec)
	}
	f.recorded[spec.Name] = spec
	return nil
}

func (f *fakeDurability) ForgetTenant(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.forgotten = append(f.forgotten, name)
	delete(f.recorded, name)
	return nil
}

// attach is the handle a fake recovery of name leaves open; closing it is
// recorded in released.
func (f *fakeDurability) attach(name string) Attachment { return fakeAttachment{f, name} }

type fakeAttachment struct {
	f    *fakeDurability
	name string
}

func (a fakeAttachment) Snapshot() {}
func (a fakeAttachment) Close() {
	a.f.mu.Lock()
	defer a.f.mu.Unlock()
	a.f.released = append(a.f.released, a.name)
}

func TestResolveLazyRecoverySingleFlight(t *testing.T) {
	eng := testEngine(t, 600)
	var recoveries atomic.Int32
	release := make(chan struct{})
	reg := NewRegistry(ServerConfig{PoolSize: 2}, func(spec TenantSpec) (*sizelos.Engine, Attachment, error) {
		recoveries.Add(1)
		<-release
		if spec.Dataset != "dblp" || spec.Seed != 600 {
			return nil, nil, fmt.Errorf("wrong spec %+v", spec)
		}
		return eng, nil, nil
	}, nil)
	if err := reg.AddPending(TenantSpec{Name: "lazy", Dataset: "dblp", Seed: 600, Cache: 8}); err != nil {
		t.Fatal(err)
	}
	if names := reg.Names(); len(names) != 1 || names[0] != "lazy" {
		t.Fatalf("pending tenant not listed: %v", names)
	}
	if _, ok := reg.Get("lazy"); ok {
		t.Fatal("pending tenant resolvable via Get before recovery")
	}

	// Concurrent Resolves share one recovery.
	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tn, found, err := reg.Resolve("lazy")
			if err == nil && (!found || tn == nil || tn.Engine != eng) {
				err = fmt.Errorf("resolve %d: tn=%v found=%v", i, tn, found)
			}
			errs[i] = err
		}(i)
	}
	close(release)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := recoveries.Load(); got != 1 {
		t.Fatalf("recovery ran %d times, want 1", got)
	}
	// Recovered tenant is live: Get works, cache budget installed, pending
	// cleared (a second Resolve does not recover again).
	tn, ok := reg.Get("lazy")
	if !ok || tn.CacheBudget != 8 {
		t.Fatalf("recovered tenant: %+v, %v", tn, ok)
	}
	if _, _, err := reg.Resolve("lazy"); err != nil {
		t.Fatal(err)
	}
	if recoveries.Load() != 1 {
		t.Fatal("resolved tenant recovered again")
	}
	// Unknown names are found=false, not errors.
	if _, found, err := reg.Resolve("ghost"); found || err != nil {
		t.Fatalf("ghost: found=%v err=%v", found, err)
	}
}

func TestResolveRecoveryFailureIsServerError(t *testing.T) {
	reg := NewRegistry(ServerConfig{PoolSize: 1}, func(TenantSpec) (*sizelos.Engine, Attachment, error) {
		return nil, nil, fmt.Errorf("disk exploded")
	}, nil)
	if err := reg.AddPending(TenantSpec{Name: "doomed", Dataset: "dblp"}); err != nil {
		t.Fatal(err)
	}
	_, found, err := reg.Resolve("doomed")
	if !found || err == nil || !strings.Contains(err.Error(), "disk exploded") {
		t.Fatalf("found=%v err=%v", found, err)
	}
	// The tenant stays pending: a later Resolve retries (e.g. disk back).
	if names := reg.Names(); len(names) != 1 {
		t.Fatalf("failed tenant vanished: %v", names)
	}
	// Over HTTP that surfaces as a 500, not a 404.
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/doomed/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed recovery over HTTP: %d, want 500", resp.StatusCode)
	}
}

func TestDeregisterForgetsDurableState(t *testing.T) {
	eng := testEngine(t, 601)
	fd := &fakeDurability{}
	reg := NewRegistry(ServerConfig{PoolSize: 1}, nil, fd)
	if _, err := reg.Register(TenantSpec{Name: "live"}, eng); err != nil {
		t.Fatal(err)
	}
	if err := reg.AddPending(TenantSpec{Name: "pend", Dataset: "dblp"}); err != nil {
		t.Fatal(err)
	}
	// Both a live and a never-recovered pending tenant can be removed, and
	// both removals forget durable state.
	for _, name := range []string{"live", "pend"} {
		ok, err := reg.Deregister(name)
		if !ok || err != nil {
			t.Fatalf("Deregister(%s) = %v, %v", name, ok, err)
		}
	}
	if len(fd.forgotten) != 2 {
		t.Fatalf("forgotten = %v", fd.forgotten)
	}
	if names := reg.Names(); len(names) != 0 {
		t.Fatalf("names after deregister: %v", names)
	}
}

func TestServeRegisterRecordsDurably(t *testing.T) {
	eng := testEngine(t, 602)
	fd := &fakeDurability{}
	reg := NewRegistry(ServerConfig{PoolSize: 1}, func(spec TenantSpec) (*sizelos.Engine, Attachment, error) {
		if spec.Dataset != "dblp" {
			return nil, nil, fmt.Errorf("unknown dataset %q", spec.Dataset)
		}
		return eng, fd.attach(spec.Name), nil
	}, fd)
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/tenants", "application/json",
		strings.NewReader(`{"name":"dyn","dataset":"dblp","seed":9,"cache":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d", resp.StatusCode)
	}
	fd.mu.Lock()
	spec, ok := fd.recorded["dyn"]
	fd.mu.Unlock()
	if !ok || spec.Dataset != "dblp" || spec.Seed != 9 || spec.Cache != 4 {
		t.Fatalf("recorded spec %+v ok=%v", spec, ok)
	}

	// A registration whose durable record fails is rolled back: 500, no
	// live tenant, nothing recorded.
	fd.mu.Lock()
	fd.failNext = fmt.Errorf("manifest write failed")
	fd.mu.Unlock()
	resp, err = http.Post(srv.URL+"/v1/tenants", "application/json",
		strings.NewReader(`{"name":"undone","dataset":"dblp"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("unrecordable register: %d, want 500", resp.StatusCode)
	}
	if _, ok := reg.Get("undone"); ok {
		t.Fatal("rolled-back tenant still live")
	}
}

func TestRegisterDynamicSingleFlight(t *testing.T) {
	eng := testEngine(t, 603)
	fd := &fakeDurability{}
	var recoveries atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	reg := NewRegistry(ServerConfig{PoolSize: 1}, func(spec TenantSpec) (*sizelos.Engine, Attachment, error) {
		if recoveries.Add(1) == 1 {
			close(started)
		}
		<-release
		return eng, fd.attach(spec.Name), nil
	}, fd)

	// Concurrent registrations of one name: exactly one may run the
	// recoverer — a second recovery would open a second append handle on
	// the tenant's WAL and interleave frames. The release gate holds the
	// winner inside the recoverer, so every other caller's conflict proves
	// it never entered.
	const callers = 8
	results := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = reg.RegisterDynamic(TenantSpec{Name: "solo", Dataset: "dblp"})
		}(i)
	}
	<-started
	close(release)
	wg.Wait()
	wins, conflicts := 0, 0
	for _, err := range results {
		switch {
		case err == nil:
			wins++
		case errors.Is(err, ErrTenantExists):
			conflicts++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if wins != 1 || conflicts != callers-1 {
		t.Fatalf("wins=%d conflicts=%d", wins, conflicts)
	}
	if got := recoveries.Load(); got != 1 {
		t.Fatalf("recoverer ran %d times, want 1", got)
	}
	fd.mu.Lock()
	_, recorded := fd.recorded["solo"]
	fd.mu.Unlock()
	if !recorded {
		t.Fatal("winning registration not recorded durably")
	}
}

func TestRegisterDynamicRejectsPendingName(t *testing.T) {
	fd := &fakeDurability{}
	reg := NewRegistry(ServerConfig{PoolSize: 1}, func(TenantSpec) (*sizelos.Engine, Attachment, error) {
		return nil, nil, fmt.Errorf("recoverer must not run for a pending name")
	}, fd)
	if err := reg.AddPending(TenantSpec{Name: "pend", Dataset: "dblp"}); err != nil {
		t.Fatal(err)
	}
	// Registering a manifest-pending name must conflict — recovering its
	// pre-existing durable state under the request's spec and answering
	// 201 Created would be a lie on both counts.
	if _, err := reg.RegisterDynamic(TenantSpec{Name: "pend", Dataset: "tpch"}); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("pending name registered: %v", err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/tenants", "application/json",
		strings.NewReader(`{"name":"pend","dataset":"tpch"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("pending name over HTTP: %d, want 409", resp.StatusCode)
	}
	// The pending entry is untouched: the tenant still recovers on demand.
	if names := reg.Names(); len(names) != 1 || names[0] != "pend" {
		t.Fatalf("pending entry lost: %v", names)
	}
}

// TestRegisterDynamicRejectsRecordedName: in a fleet sharing one manifest,
// a name another node recorded is in none of this node's sets. Registering
// it must still conflict: the recoverer would adopt the other tenant's WAL
// and snapshots under the request's spec, and RecordTenant would then
// overwrite its manifest entry.
func TestRegisterDynamicRejectsRecordedName(t *testing.T) {
	fd := &fakeDurability{lookup: func(name string) (TenantSpec, bool) {
		if name == "theirs" {
			return TenantSpec{Name: "theirs", Dataset: "dblp", Seed: 5}, true
		}
		return TenantSpec{}, false
	}}
	var recoveries atomic.Int32
	reg := NewRegistry(ServerConfig{PoolSize: 1}, func(TenantSpec) (*sizelos.Engine, Attachment, error) {
		recoveries.Add(1)
		return nil, nil, fmt.Errorf("recoverer must not run for a recorded name")
	}, fd)
	if _, err := reg.RegisterDynamic(TenantSpec{Name: "theirs", Dataset: "tpch"}); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("recorded name registered: %v", err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/tenants", "application/json",
		strings.NewReader(`{"name":"theirs","dataset":"tpch"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("recorded name over HTTP: %d, want 409", resp.StatusCode)
	}
	if n := recoveries.Load(); n != 0 {
		t.Fatalf("recoverer ran %d times for a recorded name", n)
	}
	fd.mu.Lock()
	_, overwritten := fd.recorded["theirs"]
	fd.mu.Unlock()
	if overwritten {
		t.Fatal("a refused registration reached RecordTenant")
	}
}

func TestRegisterDynamicReleasesHandlesOnRegisterRace(t *testing.T) {
	eng := testEngine(t, 604)
	fd := &fakeDurability{}
	entered := make(chan struct{})
	release := make(chan struct{})
	reg := NewRegistry(ServerConfig{PoolSize: 1}, func(spec TenantSpec) (*sizelos.Engine, Attachment, error) {
		close(entered)
		<-release
		return eng, fd.attach(spec.Name), nil
	}, fd)
	done := make(chan error, 1)
	go func() {
		_, err := reg.RegisterDynamic(TenantSpec{Name: "clash", Dataset: "dblp"})
		done <- err
	}()
	<-entered
	// A direct Register sneaks in while the recoverer runs: the dynamic
	// registration must lose AND close the durable handles its recovery
	// opened — a leaked open WAL handle would corrupt the next append.
	if _, err := reg.Register(TenantSpec{Name: "clash"}, eng); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-done; !errors.Is(err, ErrTenantExists) {
		t.Fatalf("racing dynamic registration: %v", err)
	}
	fd.mu.Lock()
	released := len(fd.released) == 1 && fd.released[0] == "clash"
	fd.mu.Unlock()
	if !released {
		t.Fatalf("durable handles not released: %v", fd.released)
	}
}

func TestDeregisterWaitsForInFlightRecovery(t *testing.T) {
	eng := testEngine(t, 605)
	fd := &fakeDurability{}
	entered := make(chan struct{})
	release := make(chan struct{})
	reg := NewRegistry(ServerConfig{PoolSize: 1}, func(spec TenantSpec) (*sizelos.Engine, Attachment, error) {
		close(entered)
		<-release
		return eng, fd.attach(spec.Name), nil
	}, fd)
	if err := reg.AddPending(TenantSpec{Name: "racy", Dataset: "dblp"}); err != nil {
		t.Fatal(err)
	}
	resolved := make(chan struct{})
	go func() {
		defer close(resolved)
		if _, _, err := reg.Resolve("racy"); err != nil {
			t.Errorf("resolve: %v", err)
		}
	}()
	<-entered
	dereg := make(chan struct{})
	var ok bool
	var derr error
	go func() {
		defer close(dereg)
		ok, derr = reg.Deregister("racy")
	}()
	// The DELETE must wait out the in-flight recovery: returning 200 and
	// removing durable state while the recovery's Register lands afterwards
	// would leave the tenant serving from memory with its disk state gone.
	select {
	case <-dereg:
		t.Fatal("Deregister returned while the recovery was still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-resolved
	<-dereg
	if !ok || derr != nil {
		t.Fatalf("Deregister = %v, %v", ok, derr)
	}
	if _, live := reg.Get("racy"); live {
		t.Fatal("deregistered tenant still serving from memory")
	}
	if names := reg.Names(); len(names) != 0 {
		t.Fatalf("names after deregister: %v", names)
	}
	fd.mu.Lock()
	forgotten := len(fd.forgotten) == 1 && fd.forgotten[0] == "racy"
	fd.mu.Unlock()
	if !forgotten {
		t.Fatalf("durable state not forgotten exactly once: %v", fd.forgotten)
	}
}

// TestResolvePanickedRecoveryDoesNotWedge: a recoverer that panics ends
// its flight like a failed one — the name stays pending and unclaimed, so
// the next Resolve recovers it rather than wait forever on a dead flight.
func TestResolvePanickedRecoveryDoesNotWedge(t *testing.T) {
	eng := testEngine(t, 606)
	var calls atomic.Int32
	reg := NewRegistry(ServerConfig{PoolSize: 1}, func(TenantSpec) (*sizelos.Engine, Attachment, error) {
		if calls.Add(1) == 1 {
			panic("recoverer blew up")
		}
		return eng, nil, nil
	}, nil)
	if err := reg.AddPending(TenantSpec{Name: "fragile", Dataset: "dblp"}); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("recoverer panic did not reach the leader")
			}
		}()
		_, _, _ = reg.Resolve("fragile")
	}()
	done := make(chan error, 1)
	go func() {
		_, found, err := reg.Resolve("fragile")
		if err == nil && !found {
			err = fmt.Errorf("pending tenant lost")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Resolve after a panicked recovery: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Resolve wedged on a panicked recovery")
	}
}
