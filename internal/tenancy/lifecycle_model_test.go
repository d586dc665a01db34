package tenancy

// TestRegistryLifecycleModel drives seeded random single-goroutine
// sequences of the registry's lifecycle calls and, after every call,
// checks the registry against a small model of each name's state: what the
// call returned, Names, LiveNames, Get, and exactly which durable calls ran
// (recoveries, manifest lookups, records and forgets, and which recovery
// handles were released with a final snapshot or closed). The recoverer
// and the durable store are fakes; modelSeam is the only code that knows
// how the registry reaches them.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"sizelos"
)

// modelStore is the fake durable side: a manifest, the recovery handles
// left open, a log of every durable call, and the failures the next call
// is told to inject.
type modelStore struct {
	eng         *sizelos.Engine
	manifest    map[string]bool
	open        map[string]bool
	snapped     map[string]bool
	calls       []string
	failRecover bool
	failRecord  bool
}

func (s *modelStore) log(format string, args ...any) {
	s.calls = append(s.calls, fmt.Sprintf(format, args...))
}

// recover is the fake recovery; durable recoveries open a handle, and a
// second open handle on one name would interleave two WAL writers.
func (s *modelStore) recover(spec TenantSpec, durable bool) (*sizelos.Engine, error) {
	s.log("recover %s", spec.Name)
	if s.failRecover {
		return nil, fmt.Errorf("injected recovery failure")
	}
	if durable {
		if s.open[spec.Name] {
			s.log("second handle %s", spec.Name)
		}
		s.open[spec.Name] = true
	}
	return s.eng, nil
}

// end logs how name's handle ended — "release" (a final snapshot, then
// closed) or "close" — and closes it.
func (s *modelStore) end(how, name string) {
	if !s.open[name] {
		s.log("%s of no handle %s", how, name)
	}
	delete(s.open, name)
	s.log("%s %s", how, name)
}

func (s *modelStore) RecordTenant(spec TenantSpec) error {
	s.log("record %s", spec.Name)
	if s.failRecord {
		return fmt.Errorf("injected manifest failure")
	}
	s.manifest[spec.Name] = true
	return nil
}

func (s *modelStore) ForgetTenant(name string) error {
	s.log("forget %s", name)
	delete(s.manifest, name)
	return nil
}

func (s *modelStore) LookupPending(name string) (TenantSpec, bool) {
	s.log("lookup %s", name)
	if !s.manifest[name] {
		return TenantSpec{}, false
	}
	return TenantSpec{Name: name, Dataset: "dblp"}, true
}

// modelHandle is the attachment a durable fake recovery returns. A
// snapshot marks the handle; the close after it counts as a release.
type modelHandle struct {
	s    *modelStore
	name string
}

func (h modelHandle) Snapshot() { h.s.snapped[h.name] = true }
func (h modelHandle) Close() {
	how := "close"
	if h.s.snapped[h.name] {
		how = "release"
	}
	delete(h.s.snapped, h.name)
	h.s.end(how, h.name)
}

// modelSeam wires the fakes into a registry: with durable set, recoveries
// leave a handle attached and lifecycle events reach the store; without
// it the registry runs in memory.
func modelSeam(s *modelStore, durable bool) *Registry {
	rec := func(spec TenantSpec) (*sizelos.Engine, Attachment, error) {
		eng, err := s.recover(spec, durable)
		if err != nil || !durable {
			return eng, nil, err
		}
		return eng, modelHandle{s, spec.Name}, nil
	}
	if !durable {
		return NewRegistry(ServerConfig{PoolSize: 1}, rec, nil)
	}
	return NewRegistry(ServerConfig{PoolSize: 1}, rec, s)
}

// modelName is one name's modelled state on the node.
type modelName struct {
	live, pending, released, handle bool
}

func TestRegistryLifecycleModel(t *testing.T) {
	eng := testEngine(t, 720)
	pool := []string{"a", "b", "c", "d"}
	var hits, misses, adoptions int
	for _, durable := range []bool{true, false} {
		for seed := int64(1); seed <= 150; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := &modelStore{eng: eng, manifest: map[string]bool{}, open: map[string]bool{},
				snapped: map[string]bool{}}
			wantManifest := map[string]bool{}
			for _, n := range pool {
				// Names another fleet node recorded in the shared manifest.
				if durable && rng.Intn(3) == 0 {
					s.manifest[n], wantManifest[n] = true, true
				}
			}
			reg := modelSeam(s, durable)
			m := map[string]*modelName{}
			for _, n := range pool {
				m[n] = &modelName{}
			}
			for step := 0; step < 40; step++ {
				n := pool[rng.Intn(len(pool))]
				st := m[n]
				s.calls, s.failRecover, s.failRecord = nil, rng.Intn(4) == 0, rng.Intn(5) == 0
				var want []string
				var desc, got, expect string
				// recoverInto models one recovery of n into the registry.
				recoverInto := func() bool {
					want = append(want, "recover "+n)
					if s.failRecover {
						return false
					}
					st.live, st.handle = true, durable
					return true
				}
				switch op := rng.Intn(7); op {
				case 0:
					desc = "AddPending"
					got = errString(reg.AddPending(TenantSpec{Name: n, Dataset: "dblp"}))
					expect = "ok"
					st.pending, st.released = true, false
				case 1:
					desc = "Resolve"
					tn, found, err := reg.Resolve(n)
					got = fmt.Sprintf("found=%v err=%v tenant=%v", found, err != nil, tn != nil && tn.Name == n)
					switch {
					case st.live:
						hits++
						expect = "found=true err=false tenant=true"
					case !st.pending && (!durable || st.released || !wantManifest[n]):
						if durable && !st.released {
							want = append(want, "lookup "+n)
						}
						misses++
						expect = "found=false err=false tenant=false"
					default:
						if !st.pending {
							want = append(want, "lookup "+n)
							adoptions++
							st.pending = true
						}
						if recoverInto() {
							st.pending = false
							expect = "found=true err=false tenant=true"
						} else {
							expect = "found=true err=true tenant=false"
						}
					}
				case 2:
					desc = "RegisterDynamic"
					tn, err := reg.RegisterDynamic(TenantSpec{Name: n, Dataset: "dblp"})
					got = fmt.Sprintf("%s tenant=%v", errClass(err), tn != nil)
					if durable {
						want = append(want, "lookup "+n)
					}
					exists := fmt.Sprintf("%v: %q", ErrTenantExists, n)
					switch {
					case wantManifest[n]:
						expect = exists + " is recorded in the durable store tenant=false"
					case st.pending:
						expect = exists + " is pending recovery tenant=false"
					case st.live:
						expect = exists + " tenant=false"
					case !recoverInto():
						st.released = false
						expect = "other tenant=false"
					case durable && s.failRecord:
						st.released, st.live, st.handle = false, false, false
						want = append(want, "record "+n, "close "+n, "forget "+n)
						expect = "durability tenant=false"
					default:
						st.released = false
						if durable {
							want = append(want, "record "+n)
							wantManifest[n] = true
						}
						expect = "ok tenant=true"
					}
				case 3:
					desc = "Register"
					tn, err := reg.Register(TenantSpec{Name: n}, eng)
					got = fmt.Sprintf("%s tenant=%v", errClass(err), tn != nil)
					if st.live {
						expect = "other tenant=false"
					} else {
						expect = "ok tenant=true"
						st.live = true
					}
				case 4:
					desc = "Release"
					got = fmt.Sprint(reg.Release(n))
					expect = fmt.Sprint(st.live || st.pending)
					if st.live || st.pending {
						if st.handle {
							want = append(want, "release "+n)
						}
						*st = modelName{released: true}
					}
				case 5:
					desc = "Readopt"
					reg.Readopt(n)
					got, expect = "ok", "ok"
					st.released = false
				case 6:
					desc = "Deregister"
					found, err := reg.Deregister(n)
					got = fmt.Sprintf("found=%v err=%v", found, err)
					expect = fmt.Sprintf("found=%v err=<nil>", st.live || st.pending)
					if st.live || st.pending {
						if st.handle {
							want = append(want, "close "+n)
						}
						if durable {
							want = append(want, "forget "+n)
							delete(wantManifest, n)
						}
						*st = modelName{released: st.released}
					}
				}
				where := fmt.Sprintf("durable=%v seed %d step %d: %s(%s)", durable, seed, step, desc, n)
				if got != expect {
					t.Fatalf("%s returned %s, model says %s", where, got, expect)
				}
				if !slices.Equal(s.calls, want) {
					t.Fatalf("%s made durable calls %q, model says %q", where, s.calls, want)
				}
				checkModel(t, where, reg, s, m, wantManifest)
			}
		}
	}
	if hits == 0 || misses == 0 || adoptions == 0 {
		t.Fatalf("Resolve coverage: %d hits, %d misses, %d lookup adoptions; want each > 0", hits, misses, adoptions)
	}
}

// checkModel compares the registry's observable state with the model's.
func checkModel(t *testing.T, where string, reg *Registry, s *modelStore, m map[string]*modelName, wantManifest map[string]bool) {
	t.Helper()
	var names, live, handles []string
	for n, st := range m {
		if st.live || st.pending {
			names = append(names, n)
		}
		if st.live {
			live = append(live, n)
		}
		if st.handle {
			handles = append(handles, n)
		}
		if tn, ok := reg.Get(n); ok != st.live || (ok && tn.Name != n) {
			t.Fatalf("%s: Get(%s) = %v, model says live=%v", where, n, ok, st.live)
		}
	}
	sort.Strings(names)
	sort.Strings(live)
	sort.Strings(handles)
	if got := reg.Names(); !slices.Equal(got, names) {
		t.Fatalf("%s: Names = %v, model says %v", where, got, names)
	}
	if got := reg.LiveNames(); !slices.Equal(got, live) {
		t.Fatalf("%s: LiveNames = %v, model says %v", where, got, live)
	}
	var open []string
	for n := range s.open {
		open = append(open, n)
	}
	sort.Strings(open)
	if !slices.Equal(open, handles) {
		t.Fatalf("%s: open handles %v, model says %v", where, open, handles)
	}
	var manifest []string
	for n := range s.manifest {
		if !wantManifest[n] {
			manifest = append(manifest, "+"+n)
		}
	}
	for n := range wantManifest {
		if !s.manifest[n] {
			manifest = append(manifest, "-"+n)
		}
	}
	if len(manifest) > 0 {
		t.Fatalf("%s: manifest differs from the model by %s", where, strings.Join(manifest, " "))
	}
}

func errString(err error) string {
	if err != nil {
		return err.Error()
	}
	return "ok"
}

// errClass names the lifecycle error kinds a caller can tell apart; a
// conflict is named by its whole message, which a 409 body carries.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrTenantExists):
		return err.Error()
	case errors.Is(err, ErrDurabilityFailed):
		return "durability"
	default:
		return "other"
	}
}
