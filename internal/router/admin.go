package router

import (
	"errors"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strings"
	"time"

	"sizelos/internal/tenancy"
)

// MemberStatus is one row of GET /router/members.
type MemberStatus struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Requests int64  `json:"requests"`
	Errors   int64  `json:"errors"`
}

// MigrateRequest is the body of POST /router/migrate.
type MigrateRequest struct {
	Tenant string `json:"tenant"`
	To     string `json:"to"`
}

// MigrateResponse reports a completed handoff.
type MigrateResponse struct {
	Tenant string `json:"tenant"`
	From   string `json:"from"`
	To     string `json:"to"`
}

// serveAdmin is the /router/* control plane:
//
//	GET    /router/members         -> [MemberStatus] (health + per-node counters)
//	POST   /router/members         -> add a member {name,url}; triggers a rebalance
//	DELETE /router/members/{name}  -> remove a member; its tenants rehash
//	POST   /router/migrate         -> MigrateRequest: drain, release, repin
//	GET    /router/ring?key=t      -> owner of one key, or the full member list
//
// AdminToken (when configured) guards every route through the node's own
// bearer check, tenancy.BearerAuth.
func (r *Router) serveAdmin(w http.ResponseWriter, req *http.Request) {
	path := req.URL.Path
	switch {
	case path == "/router/members" && req.Method == http.MethodGet:
		r.serveMembers(w)
	case path == "/router/members" && req.Method == http.MethodPost:
		r.serveAddMember(w, req)
	case strings.HasPrefix(path, "/router/members/") && req.Method == http.MethodDelete:
		r.serveRemoveMember(w, strings.TrimPrefix(path, "/router/members/"))
	case path == "/router/migrate" && req.Method == http.MethodPost:
		r.serveMigrate(w, req)
	case path == "/router/ring" && req.Method == http.MethodGet:
		r.serveRing(w, req)
	default:
		tenancy.WriteError(w, tenancy.NotFound("no such endpoint"))
	}
}

// decodeAdmin reads an admin body with the node's strict decoder: over the
// cap it fails as on a node (413); any other malformed body — anything
// after the JSON value included — is a 400 carrying the route's msg.
func decodeAdmin(w http.ResponseWriter, req *http.Request, v any, msg string) error {
	err := tenancy.DecodeBody(w, req, v, false)
	var malformed *tenancy.Error
	if errors.As(err, &malformed) {
		err = tenancy.BadRequest("%s", msg)
	}
	return err
}

func (r *Router) serveMembers(w http.ResponseWriter) {
	r.mu.RLock()
	out := make([]MemberStatus, 0, len(r.members))
	for _, name := range slices.Sorted(maps.Keys(r.members)) {
		mem := r.members[name]
		out = append(out, MemberStatus{
			Name: mem.name, URL: mem.url.String(), Healthy: mem.healthy,
			Requests: mem.requests.Load(), Errors: mem.errors.Load(),
		})
	}
	r.mu.RUnlock()
	tenancy.WriteJSON(w, http.StatusOK, map[string]any{"members": out})
}

func (r *Router) serveAddMember(w http.ResponseWriter, req *http.Request) {
	var m Member
	if err := decodeAdmin(w, req, &m, "bad member body"); err != nil {
		tenancy.WriteError(w, err)
		return
	}
	r.mu.Lock()
	err := r.addMemberLocked(m)
	r.mu.Unlock()
	if err != nil {
		tenancy.WriteError(w, tenancy.BadRequest("%v", err))
		return
	}
	r.logf("router: member %s (%s) added", m.Name, m.URL)
	// The new member now owns ~1/N of the key space; move those tenants.
	r.rebalance()
	tenancy.WriteJSON(w, http.StatusCreated, map[string]string{"added": m.Name})
}

func (r *Router) serveRemoveMember(w http.ResponseWriter, name string) {
	r.mu.Lock()
	mem, ok := r.members[name]
	if ok {
		delete(r.members, name)
		r.ring.Remove(name)
		for tenant, pin := range r.pins {
			if pin == name {
				delete(r.pins, tenant)
			}
		}
	}
	left := len(r.members)
	r.mu.Unlock()
	if !ok {
		tenancy.WriteError(w, tenancy.NotFound(fmt.Sprintf("no member %q", name)))
		return
	}
	// A graceful removal releases the leaving node's live tenants so their
	// new owners adopt cleanly; if the node is already gone this is a
	// logged no-op and first-touch recovery covers it.
	if err := r.drainAll(mem); err != nil {
		r.logf("router: remove %s: %v", name, err)
	}
	mem.client.closeIdle(true)
	r.logf("router: member %s removed (%d remain)", name, left)
	r.rebalance()
	tenancy.WriteJSON(w, http.StatusOK, map[string]string{"removed": name})
}

// drainAll releases every tenant live on a leaving member.
func (r *Router) drainAll(mem *member) error {
	live, err := r.tenants(mem, "/v1/tenants?live=1")
	if err != nil {
		return err
	}
	for _, tenant := range live {
		if err := r.release(mem, tenant); err != nil {
			return err
		}
	}
	return nil
}

// serveMigrate executes a live handoff: drain the tenant at the router
// (new requests 503-retryable), wait out in-flight requests, release the
// current owner, then atomically pin the tenant to the target. The next
// request recovers the tenant there from the shared data dir.
func (r *Router) serveMigrate(w http.ResponseWriter, req *http.Request) {
	var body MigrateRequest
	const needs = `migrate body needs {"tenant":..., "to":...}`
	err := decodeAdmin(w, req, &body, needs)
	if err == nil && (body.Tenant == "" || body.To == "") {
		err = tenancy.BadRequest(needs)
	}
	if err != nil {
		tenancy.WriteError(w, err)
		return
	}

	r.mu.Lock()
	target, ok := r.members[body.To]
	if !ok || !target.healthy {
		r.mu.Unlock()
		tenancy.WriteError(w, tenancy.BadRequest("no healthy member %q", body.To))
		return
	}
	if _, mid := r.draining[body.Tenant]; mid {
		r.mu.Unlock()
		tenancy.WriteError(w, tenancy.Conflict(fmt.Sprintf("tenant %s is already migrating", body.Tenant)))
		return
	}
	fromName, _ := r.ownerLocked(body.Tenant)
	if fromName == body.To {
		r.mu.Unlock()
		tenancy.WriteJSON(w, http.StatusOK, MigrateResponse{Tenant: body.Tenant, From: fromName, To: body.To})
		return
	}
	from := r.members[fromName]
	done := make(chan struct{})
	r.draining[body.Tenant] = done
	r.mu.Unlock()

	finish := func() {
		r.mu.Lock()
		delete(r.draining, body.Tenant)
		r.mu.Unlock()
		close(done)
	}

	// New requests are now refused; wait for the in-flight ones.
	if !r.awaitIdle(body.Tenant, r.cfg.DrainTimeout) {
		finish()
		tenancy.WriteError(w, tenancy.Overloaded(
			fmt.Sprintf("tenant %s did not drain within %s", body.Tenant, r.cfg.DrainTimeout), time.Second))
		return
	}
	// Old owner takes a final snapshot and closes the WAL before the pin
	// flips — the single-writer invariant holds throughout.
	if from != nil {
		if err := r.release(from, body.Tenant); err != nil {
			finish()
			tenancy.WriteError(w, badGateway(fmt.Sprintf("release on %s failed: %v", fromName, err)))
			return
		}
	}
	// The target may have released this tenant in an earlier handoff
	// (A -> B -> A round trip); re-arm adoption there before the pin flips.
	if err := r.adopt(target, body.Tenant); err != nil {
		r.logf("router: migrate: re-arm adoption of %s on %s: %v", body.Tenant, body.To, err)
	}
	r.mu.Lock()
	r.pins[body.Tenant] = body.To
	r.mu.Unlock()
	finish()
	r.logf("router: tenant %s migrated %s -> %s", body.Tenant, fromName, body.To)
	tenancy.WriteJSON(w, http.StatusOK, MigrateResponse{Tenant: body.Tenant, From: fromName, To: body.To})
}

func (r *Router) serveRing(w http.ResponseWriter, req *http.Request) {
	if key := req.URL.Query().Get("key"); key != "" {
		owner, ok := r.Owner(key)
		if !ok {
			tenancy.WriteError(w, errNoMember)
			return
		}
		tenancy.WriteJSON(w, http.StatusOK, map[string]string{"key": key, "owner": owner})
		return
	}
	r.mu.RLock()
	members := r.ring.Members()
	vnodes := r.ring.VirtualNodes()
	pins := make(map[string]string, len(r.pins))
	for tenant, pin := range r.pins {
		pins[tenant] = pin
	}
	r.mu.RUnlock()
	tenancy.WriteJSON(w, http.StatusOK, map[string]any{
		"members": members, "virtual_nodes": vnodes, "pins": pins,
	})
}

// Healthy reports whether a named member is currently on the ring
// (exported for tests and cmd/osrouter's startup log).
func (r *Router) Healthy(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	mem, ok := r.members[name]
	return ok && mem.healthy
}
