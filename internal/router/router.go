package router

import (
	"encoding/json"
	"fmt"
	"log"
	"maps"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sizelos/internal/placement"
	"sizelos/internal/tenancy"
)

// NodeHeader names the fleet member that served a proxied response.
const NodeHeader = "X-Sizelos-Node"

// Member declares one fleet node the router fronts.
type Member struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// Config carries the router's knobs; zero values take the documented
// defaults (docs/SCALEOUT.md has the full table).
type Config struct {
	// Members is the initial fleet. At least one is required.
	Members []Member
	// AdminToken, when set, guards /router/* and is presented as the
	// bearer token on the release calls the router issues to members.
	AdminToken string
	// HealthInterval is the probe cadence (default 2s; <0 disables the
	// background loop — tests drive CheckNow instead).
	HealthInterval time.Duration
	// HealthTimeout bounds one probe (default 1s).
	HealthTimeout time.Duration
	// FailThreshold is the consecutive probe failures that evict a member
	// from the ring (default 2).
	FailThreshold int
	// DrainTimeout bounds how long a migration waits for the tenant's
	// in-flight requests before giving up with a 503 (default 10s).
	DrainTimeout time.Duration
	// Logf receives operational log lines; nil means log.Printf.
	Logf func(format string, args ...any)
}

func (c *Config) fill() error {
	if len(c.Members) == 0 {
		return fmt.Errorf("router: no fleet members configured")
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.HealthTimeout == 0 {
		c.HealthTimeout = time.Second
	}
	if c.FailThreshold == 0 {
		c.FailThreshold = 2
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return nil
}

// member is one fleet node plus its routing state. healthy/fails are
// guarded by Router.mu; the counters are atomics so the proxy hot path
// never takes the lock for accounting.
type member struct {
	name   string
	url    *url.URL
	client *memberClient
	// nodeHeader is the X-Sizelos-Node value every answer it serves
	// carries; shared, so read-only.
	nodeHeader []string
	healthy    bool
	fails      int

	requests atomic.Int64
	errors   atomic.Int64
}

// Router proxies tenant traffic onto the fleet. See the package comment
// for the invariants it maintains.
type Router struct {
	cfg Config
	// auth carries the admin token on the router's own member calls.
	auth http.Header
	// bodyBufs are the buffers forward relays answers through.
	bodyBufs *tenancy.FreeList[[]byte]
	// admin is the /router/* plane behind the admin token.
	admin http.Handler

	mu       sync.RWMutex
	ring     *placement.Ring          // healthy members only
	members  map[string]*member       // every configured member
	pins     map[string]string        // tenant -> member name (migration override)
	draining map[string]chan struct{} // tenant mid-migration; closed on completion

	inflightMu sync.Mutex
	inflight   map[string]*tenantGate

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// tenantGate counts a tenant's in-flight proxied requests so a migration
// can wait them out.
type tenantGate struct {
	n    int
	idle chan struct{} // closed when n drops to 0 and a drain is waiting
	wait bool
}

// New builds the router and, unless cfg.HealthInterval < 0, starts its
// health loop. Members start healthy (on the ring); the first probe round
// corrects that for any node that is already down.
func New(cfg Config) (*Router, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	r := &Router{
		cfg:      cfg,
		bodyBufs: tenancy.NewFreeList(func() []byte { return make([]byte, 32<<10) }),
		ring:     placement.New(placement.DefaultVirtualNodes),
		members:  make(map[string]*member),
		pins:     make(map[string]string),
		draining: make(map[string]chan struct{}),
		inflight: make(map[string]*tenantGate),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if cfg.AdminToken != "" {
		r.auth = http.Header{"Authorization": {"Bearer " + cfg.AdminToken}}
	}
	r.admin = tenancy.BearerAuth(cfg.AdminToken)(http.HandlerFunc(r.serveAdmin))
	for _, m := range cfg.Members {
		if err := r.addMemberLocked(m); err != nil {
			return nil, err
		}
	}
	if cfg.HealthInterval > 0 {
		go r.healthLoop()
	} else {
		close(r.done)
	}
	return r, nil
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// addMemberLocked registers a member and puts it on the ring as healthy.
// Callers hold r.mu or are in single-threaded setup.
func (r *Router) addMemberLocked(m Member) error {
	if m.Name == "" || m.URL == "" {
		return fmt.Errorf("router: member needs name and url, got %q=%q", m.Name, m.URL)
	}
	if _, ok := r.members[m.Name]; ok {
		return fmt.Errorf("router: duplicate member %q", m.Name)
	}
	u, err := url.Parse(m.URL)
	if err != nil || u.Scheme != "http" || u.Port() == "" || strings.Trim(u.Path, "/") != "" {
		return fmt.Errorf("router: member %s: bad url %q (want http://host:port)", m.Name, m.URL)
	}
	r.members[m.Name] = &member{name: m.Name, url: u, client: &memberClient{addr: u.Host}, nodeHeader: []string{m.Name}, healthy: true}
	r.ring.Add(m.Name)
	return nil
}

// Close stops the health loop and closes the member connections, idle ones
// now and busy ones when their exchange ends. It does not touch the fleet.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, mem := range r.members {
		mem.client.closeIdle(true)
	}
}

// Owner reports the member a tenant's traffic routes to right now: its
// pin when one is set, else the ring owner. ok is false with no healthy
// members (and no healthy pin).
func (r *Router) Owner(tenant string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ownerLocked(tenant)
}

func (r *Router) ownerLocked(tenant string) (string, bool) {
	if pin, ok := r.pins[tenant]; ok {
		if mem := r.members[pin]; mem != nil && mem.healthy {
			return pin, true
		}
		// Pinned member down: fall back to the ring — the shared data dir
		// makes any healthy node a correct owner.
	}
	name, ok := r.ring.Owner(tenant)
	return name, ok
}

// ServeHTTP routes /router/* to the admin plane and everything under /v1
// to the tenant's owner.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	path := req.URL.Path
	switch {
	case path == "/router/members" || strings.HasPrefix(path, "/router/members/"),
		path == "/router/migrate", path == "/router/ring":
		r.admin.ServeHTTP(w, req)
	case path == "/v1/tenants":
		r.serveTenantsIndex(w, req)
	case strings.HasPrefix(path, "/v1/"):
		r.serveTenant(w, req)
	default:
		tenancy.WriteError(w, tenancy.NotFound("no such endpoint"))
	}
}

// serveTenant proxies one tenant-scoped request to the tenant's owner.
func (r *Router) serveTenant(w http.ResponseWriter, req *http.Request) {
	tenant := strings.SplitN(strings.TrimPrefix(req.URL.Path, "/v1/"), "/", 2)[0]
	if tenant == "" {
		tenancy.WriteError(w, tenancy.NotFound("no such endpoint"))
		return
	}
	r.mu.RLock()
	if _, mid := r.draining[tenant]; mid {
		r.mu.RUnlock()
		tenancy.WriteError(w, tenancy.Overloaded(fmt.Sprintf("tenant %s is migrating; retry shortly", tenant), time.Second))
		return
	}
	name, ok := r.ownerLocked(tenant)
	var mem *member
	if ok {
		mem = r.members[name]
	}
	if mem != nil {
		// Counted in while the draining check still holds: a migration sets
		// draining under the write lock and then awaits idle, so it either
		// refused this request above or waits for it.
		r.enter(tenant)
	}
	r.mu.RUnlock()
	if mem == nil {
		tenancy.WriteError(w, errNoMember)
		return
	}
	defer r.leave(tenant)
	body, err := readBody(w, req)
	if err != nil {
		w.Header()[NodeHeader] = mem.nodeHeader
		tenancy.WriteError(w, err)
		return
	}
	r.forward(w, req, mem, body)
}

// serveTenantsIndex handles the fleet-wide /v1/tenants route. GET merges
// the (identical, in a shared-store fleet) listings of every healthy
// member; POST peeks the registration body for the tenant name and routes
// it to that tenant's owner so the first WAL opens on the right node.
func (r *Router) serveTenantsIndex(w http.ResponseWriter, req *http.Request) {
	switch req.Method {
	case http.MethodGet:
		set := make(map[string]bool)
		for _, mem := range r.healthyMembers() {
			listed, err := r.tenants(mem, req.URL.RequestURI())
			if err != nil {
				r.logf("router: list tenants on %s: %v", mem.name, err)
				continue
			}
			for _, name := range listed {
				set[name] = true
			}
		}
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		tenancy.WriteJSON(w, http.StatusOK, map[string][]string{"tenants": names})
	case http.MethodPost:
		body, err := readBody(w, req)
		if err != nil {
			tenancy.WriteError(w, err)
			return
		}
		var peek struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(body, &peek); err != nil || peek.Name == "" {
			tenancy.WriteError(w, tenancy.BadRequest("registration body needs a tenant name"))
			return
		}
		r.mu.RLock()
		name, ok := r.ownerLocked(peek.Name)
		var mem *member
		if ok {
			mem = r.members[name]
		}
		r.mu.RUnlock()
		if mem == nil {
			tenancy.WriteError(w, errNoMember)
			return
		}
		r.forward(w, req, mem, body)
	default:
		tenancy.WriteError(w, tenancy.NotFound("no such endpoint"))
	}
}

// enter/leave track per-tenant in-flight proxied requests for drains.
// serveTenant calls enter holding r.mu (read); the lock order is mu, then
// inflightMu, and leave and awaitIdle take inflightMu alone.
func (r *Router) enter(tenant string) {
	r.inflightMu.Lock()
	g := r.inflight[tenant]
	if g == nil {
		g = &tenantGate{}
		r.inflight[tenant] = g
	}
	g.n++
	r.inflightMu.Unlock()
}

func (r *Router) leave(tenant string) {
	r.inflightMu.Lock()
	g := r.inflight[tenant]
	if g != nil {
		g.n--
		if g.n <= 0 {
			if g.wait {
				close(g.idle)
			}
			delete(r.inflight, tenant)
		}
	}
	r.inflightMu.Unlock()
}

// awaitIdle blocks until the tenant has no in-flight requests (or the
// timeout passes). The caller has already made the tenant draining under
// the write lock, and serveTenant enters under the read lock it checked
// draining with, so every request that was let through is counted here
// and no new one can enter.
func (r *Router) awaitIdle(tenant string, timeout time.Duration) bool {
	r.inflightMu.Lock()
	g := r.inflight[tenant]
	if g == nil || g.n <= 0 {
		r.inflightMu.Unlock()
		return true
	}
	if !g.wait {
		g.wait = true
		g.idle = make(chan struct{})
	}
	idle := g.idle
	r.inflightMu.Unlock()
	select {
	case <-idle:
		return true
	case <-time.After(timeout):
		return false
	}
}

func (r *Router) healthyMembers() []*member {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*member
	for _, name := range slices.Sorted(maps.Keys(r.members)) {
		if mem := r.members[name]; mem.healthy {
			out = append(out, mem)
		}
	}
	return out
}

// tenants is a member's tenant listing: GET pathQuery, a /v1/tenants query.
func (r *Router) tenants(mem *member, pathQuery string) ([]string, error) {
	var out struct {
		Tenants []string `json:"tenants"`
	}
	status, body, err := r.call(mem, http.MethodGet, pathQuery)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", pathQuery, status)
	} else if err == nil {
		err = json.Unmarshal(body, &out)
	}
	return out.Tenants, err
}

// errNoMember answers a request no healthy member can take.
var errNoMember = tenancy.Overloaded("no healthy fleet member", 0)

// badGateway is the retryable answer for a member that did not answer.
func badGateway(msg string) *tenancy.Error {
	return &tenancy.Error{Status: http.StatusBadGateway, Code: tenancy.CodeOverloaded, Message: msg, Retryable: true}
}
