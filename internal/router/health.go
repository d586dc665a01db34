package router

import (
	"fmt"
	"maps"
	"net/http"
	"net/url"
	"slices"
	"time"
)

// healthLoop probes every member on the configured cadence until Close.
func (r *Router) healthLoop() {
	defer close(r.done)
	ticker := time.NewTicker(r.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			r.CheckNow()
		}
	}
}

// CheckNow runs one full health round synchronously: probe every member,
// evict/rejoin on state changes, and rebalance if membership moved. Tests
// (and the admin plane after membership edits) call it directly.
func (r *Router) CheckNow() {
	r.mu.RLock()
	names := slices.Sorted(maps.Keys(r.members))
	mems := make([]*member, 0, len(names))
	for _, name := range names {
		mems = append(mems, r.members[name])
	}
	r.mu.RUnlock()

	up := make(map[string]bool, len(mems))
	for _, mem := range mems {
		up[mem.name] = r.probe(mem)
	}

	changed := false
	var orphaned []string // tenants whose pin died with an evicted member
	r.mu.Lock()
	for _, mem := range mems {
		if r.members[mem.name] != mem {
			continue // removed concurrently
		}
		if up[mem.name] {
			mem.fails = 0
			if !mem.healthy {
				mem.healthy = true
				r.ring.Add(mem.name)
				changed = true
				r.logf("router: member %s healthy again; rejoined ring", mem.name)
			}
			continue
		}
		mem.fails++
		if mem.healthy && mem.fails >= r.cfg.FailThreshold {
			mem.healthy = false
			r.ring.Remove(mem.name)
			// Pins to a dead node are void: the ring owner takes over and
			// recovers from the shared data dir.
			for tenant, pin := range r.pins {
				if pin == mem.name {
					delete(r.pins, tenant)
					orphaned = append(orphaned, tenant)
				}
			}
			changed = true
			r.logf("router: member %s evicted after %d failed probes; tenants rehash", mem.name, mem.fails)
		}
	}
	r.mu.Unlock()
	if changed {
		// A dropped pin usually means the tenant was migrated to the dead
		// member — and its fallback ring owner may be the very node that
		// released it during that migration. Tell the new owner explicitly
		// that ownership returned, clearing its handoff mark, or it would
		// refuse to re-adopt the tenant forever.
		for _, tenant := range orphaned {
			r.adoptByOwner(tenant)
		}
		r.rebalance()
	}
}

// adoptByOwner resolves a tenant's current owner and re-arms adoption
// there (best-effort; the materialization itself stays lazy).
func (r *Router) adoptByOwner(tenant string) {
	r.mu.RLock()
	owner, ok := r.ownerLocked(tenant)
	mem := r.members[owner]
	r.mu.RUnlock()
	if !ok || mem == nil {
		return
	}
	if err := r.adopt(mem, tenant); err != nil {
		r.logf("router: re-arm adoption of %s on %s: %v", tenant, owner, err)
	}
}

// probe is one health check: the tenant index answering 200 within the
// timeout.
func (r *Router) probe(mem *member) bool {
	status, _, err := r.call(mem, http.MethodGet, "/v1/tenants?live=1")
	return err == nil && status == http.StatusOK
}

// rebalance converges fleet reality onto the current ring: any tenant
// live on a member the ring (or a pin) no longer points at is released
// there, so its owner adopts it from the shared data dir on first touch.
// Never called with r.mu held — it issues member HTTP calls.
func (r *Router) rebalance() {
	for _, mem := range r.healthyMembers() {
		live, err := r.tenants(mem, "/v1/tenants?live=1")
		if err != nil {
			r.logf("router: rebalance: list live tenants on %s: %v", mem.name, err)
			continue
		}
		for _, tenant := range live {
			r.mu.RLock()
			owner, ok := r.ownerLocked(tenant)
			r.mu.RUnlock()
			if !ok || owner == mem.name {
				continue
			}
			if err := r.release(mem, tenant); err != nil {
				r.logf("router: rebalance: release %s on %s: %v", tenant, mem.name, err)
				continue
			}
			r.logf("router: rebalance: tenant %s released on %s (owner is %s)", tenant, mem.name, owner)
			// The new owner may itself have released this tenant in an
			// earlier handoff; re-arm adoption there explicitly.
			r.adoptByOwner(tenant)
		}
	}
}

// release asks a member to stop serving a tenant (final snapshot + WAL
// close, durable state kept). A 404 means the member was not serving it —
// already converged, not an error.
func (r *Router) release(mem *member, tenant string) error {
	return r.tenantCall(mem, tenant, "release", http.StatusNotFound)
}

// adopt tells a member that ownership of a tenant has (re)turned to it:
// any handoff mark from a release this router issued earlier is cleared,
// so the member's pending loader may materialize the tenant on first
// touch again. Without this, "migrate away, then the target dies" would
// leave the tenant permanently 404 on its fallback owner.
func (r *Router) adopt(mem *member, tenant string) error {
	return r.tenantCall(mem, tenant, "adopt", http.StatusOK)
}

// tenantCall POSTs /v1/{tenant}/{verb} to a member under the admin token;
// any answer but 200 or also is an error.
func (r *Router) tenantCall(mem *member, tenant, verb string, also int) error {
	status, _, err := r.call(mem, http.MethodPost, "/v1/"+url.PathEscape(tenant)+"/"+verb)
	if err != nil {
		return err
	}
	if status != http.StatusOK && status != also {
		return fmt.Errorf("%s %s on %s: status %d", verb, tenant, mem.name, status)
	}
	return nil
}
