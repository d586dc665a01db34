package tenancy

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"sizelos"
	"sizelos/internal/durable"
	"sizelos/internal/qos"
	"sizelos/internal/searchexec"
)

var (
	// ErrTenantExists reports a dynamic registration naming a tenant that
	// is already live, pending recovery, or being created concurrently.
	ErrTenantExists = errors.New("tenancy: tenant already registered")
	// ErrDurabilityFailed reports a registration that was rolled back
	// because it could not be recorded durably.
	ErrDurabilityFailed = errors.New("tenancy: registration could not be made durable")
)

// Tenant is one registered (DB, Engine, Index) triple plus its service
// state. Fields are immutable after registration; query methods are safe
// for concurrent use.
type Tenant struct {
	Name        string
	Engine      *sizelos.Engine
	CacheBudget int

	pool *searchexec.Pool
	// What this tenant's batches did to the summary cache, for /stats: how
	// many stamped subjects only, how many invalidated a whole DS relation,
	// and the subjects stamped (sizelos.MutationResult.Footprint).
	footprintBatches, wideBatches, subjectsStamped atomic.Uint64
}

// Registry is the tenant table — one map from a name to its whole
// lifecycle on this node, under one lock — and owns the shared summary
// pool. The zero value is not usable; construct with NewRegistry.
type Registry struct {
	pool *searchexec.Pool
	// qos is the limits config when it asks for any; nil imposes no limits
	// and keeps the middleware out of the hot path.
	qos *qos.Config
	// adminToken, when non-empty, locks the write plane.
	adminToken string
	// defaultCache is the cache budget applied to registrations that do
	// not name their own.
	defaultCache int
	// recoverer builds the engine of a pending or HTTP-registered tenant;
	// durability persists lifecycle events and, on a Resolve miss, finds
	// tenants another fleet node recorded. Both are fixed at construction.
	recoverer  Recoverer
	durability Durability

	// mu guards tenants. Every path decides under it and does its I/O —
	// recoverer, Durability and Attachment calls — after releasing it.
	mu      sync.RWMutex
	tenants map[string]*entry
}

// entry is one name's whole lifecycle on this node; an entry with no state
// leaves the table. The states combine: a pending name may have a flight
// recovering it, and a direct Register can make a pending name live.
type entry struct {
	t   *Tenant      // live: serving from memory
	att Attachment   // the durable state t's engine writes through; nil in memory
	lim *qos.Limiter // the name's QoS state, fresh for each registration
	// pending is the spec of a tenant known durably but not yet recovered.
	pending *TenantSpec
	// flight is the name's in-flight recovery or creation: Resolve waits on
	// it, RegisterDynamic backs off, and Deregister and Release drain it.
	flight *flight[*Tenant]
	// released marks a name handed off to another owner (Release): the
	// miss-path lookup never re-adopts it, or a stray request on the old
	// owner would re-open a WAL the new owner appends to. AddPending,
	// RegisterDynamic and Readopt clear it.
	released bool
}

// TenantSpec is a tenant's recipe: the manifest entry of the durable tier,
// and what Register, AddPending and RegisterDynamic take.
type TenantSpec = durable.TenantSpec

// Recoverer builds a ready-to-serve engine for spec and hands back the
// Attachment it left open: for a durable deployment, newest snapshot +
// WAL-tail replay with the WAL attached as the engine's mutation log; for
// an in-memory tenant, a fresh build and nil. Called outside the registry
// lock (engine builds take seconds), at most once concurrently per name.
type Recoverer func(spec TenantSpec) (*sizelos.Engine, Attachment, error)

// Attachment is the durable state (the WAL) a recovery leaves attached to
// its engine. The tenant's entry owns it; the registry alone snapshots and
// closes it, outside its lock. Both are best effort and report their own
// failures: a failed snapshot only lengthens the next replay.
type Attachment interface {
	Snapshot() // checkpoint the engine's committed state
	Close()    // close the log; a later Snapshot refuses
}

// Durability persists tenant lifecycle events so a restarted service knows
// which tenants to recover. Implementations must be safe for concurrent
// use.
type Durability interface {
	// RecordTenant durably records that spec is registered (upsert).
	RecordTenant(spec TenantSpec) error
	// ForgetTenant removes the tenant's durable record and on-disk state
	// (the registry has closed its attachment); an unrecorded name is fine.
	ForgetTenant(name string) error
	// LookupPending resolves a tenant name the registry has never heard of
	// to its durable spec — a tenant another fleet node recorded in a
	// shared store, or one migrated here — or reports that none exists. It
	// runs outside the registry lock on the Resolve miss path (typically a
	// manifest re-read), so it may do I/O.
	LookupPending(name string) (TenantSpec, bool)
}

// NewRegistry builds the registry cfg describes: a summary pool of
// cfg.PoolSize slots shared by every tenant (<= 0: GOMAXPROCS),
// cfg.CacheBudget as the cache of registrations that name none,
// cfg.AdminToken on the write plane, and per-tenant QoS when cfg.QoS asks
// for any limit. rec builds the engine of a pending tenant and of one
// registered over HTTP (nil: neither is possible). d persists the tenant
// lifecycle; nil keeps the registry in memory.
func NewRegistry(cfg ServerConfig, rec Recoverer, d Durability) *Registry {
	r := &Registry{
		pool:         searchexec.NewPool(cfg.PoolSize),
		adminToken:   cfg.AdminToken,
		defaultCache: max(cfg.CacheBudget, 0),
		recoverer:    rec,
		durability:   d,
		tenants:      make(map[string]*entry),
	}
	// A zero QoS config keeps the QoS layer entirely out of the request path.
	if cfg.QoS.Default != (qos.Limits{}) || len(cfg.QoS.Tenants) > 0 {
		r.qos = &cfg.QoS
	}
	return r
}

// entryLocked returns name's entry, adding an empty one if there is none,
// and gives it a limiter when QoS is on. The caller holds mu for writing.
func (r *Registry) entryLocked(name string) *entry {
	e := r.tenants[name]
	if e == nil {
		e = &entry{}
		r.tenants[name] = e
	}
	if e.lim == nil && r.qos != nil {
		e.lim = qos.NewLimiter(r.qos.For(name))
	}
	return e
}

// tidyLocked drops e, name's entry, once it holds no state.
func (r *Registry) tidyLocked(name string, e *entry) {
	if e.t == nil && e.pending == nil && e.flight == nil && !e.released {
		delete(r.tenants, name)
	}
}

// AddPending declares a tenant that exists durably but is not yet loaded:
// it shows up in Names and is recovered on first Resolve. Startup calls
// this for every manifest entry instead of paying every tenant's recovery
// before serving.
func (r *Registry) AddPending(spec TenantSpec) error {
	if !validName(spec.Name) {
		return fmt.Errorf("tenancy: invalid tenant name %q (want [A-Za-z0-9._-]+)", spec.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entryLocked(spec.Name)
	e.pending, e.released = &spec, false
	return nil
}

// Resolve returns the named tenant, lazily recovering it if it is pending.
// found=false means the registry has never heard of the name; a non-nil
// error means the tenant exists durably but could not be recovered (the
// caller should surface a server error, not a 404). Concurrent Resolves of
// one pending tenant share a single recovery. With a Durability, a miss
// on a name not released here consults Durability.LookupPending and adopts
// the spec it returns — the first-touch path for tenants recorded in a
// shared store by another fleet node or migrated to this one.
func (r *Registry) Resolve(name string) (*Tenant, bool, error) {
	if t, ok := r.Get(name); ok {
		return t, true, nil
	}
	// A second round only follows an adoption.
	for lookup := r.durability != nil; ; lookup = false {
		r.mu.Lock()
		e := r.tenants[name]
		switch {
		case e != nil && e.t != nil:
			// A racing Resolve has just made it live.
			t := e.t
			r.mu.Unlock()
			return t, true, nil
		case e != nil && e.pending != nil && e.flight != nil:
			f := e.flight
			r.mu.Unlock()
			t, err := f.wait()
			return t, true, err
		case e != nil && e.pending != nil:
			spec := *e.pending
			t, err := r.flyLocked(name, e, func() (*Tenant, error) {
				if r.recoverer == nil {
					return nil, fmt.Errorf("tenancy: tenant %q is pending but no recoverer is configured", name)
				}
				eng, att, err := r.recoverer(spec)
				if err != nil {
					return nil, fmt.Errorf("tenancy: recover tenant %q: %w", name, err)
				}
				return r.register(spec, eng, att)
			})
			return t, true, err
		}
		handedOff := e != nil && e.released
		r.mu.Unlock()
		if !lookup || handedOff {
			return nil, false, nil
		}
		spec, ok := r.durability.LookupPending(name)
		if !ok || spec.Name != name {
			return nil, false, nil
		}
		// Adopt the spec unless the name gained any state while the lookup
		// ran: the race loser must not clobber a live tenant's recovery.
		r.mu.Lock()
		if r.tenants[name] == nil {
			r.entryLocked(name).pending = &spec
		}
		r.mu.Unlock()
	}
}

// flyLocked claims name for a flight — a recovery or a creation — running
// fn, whose outcome every concurrent Resolve of the name shares. The caller
// holds mu, which flyLocked releases before fn runs. Landing, a tenant the
// flight made live leaves the pending state and the name is free again.
func (r *Registry) flyLocked(name string, e *entry, fn func() (*Tenant, error)) (*Tenant, error) {
	f := newFlight[*Tenant]()
	e.flight = f
	r.mu.Unlock()
	return f.run(fn, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		if f.val != nil {
			e.pending = nil
		}
		e.flight = nil
		r.tidyLocked(name, e)
	})
}

// RegisterDynamic creates a brand-new tenant through the recoverer and,
// with a Durability, records it durably before returning; a failed record
// rolls the registration back (ErrDurabilityFailed). The name is claimed by
// the flight lazy recovery uses, so two recoveries of one name — two append
// handles on one WAL — never run at once. A name that is live, pending,
// mid-creation or recorded in the durable store (LookupPending: in a fleet,
// another node's tenant) fails with ErrTenantExists: recovering its durable
// state under a new spec would serve the old tenant's data.
func (r *Registry) RegisterDynamic(spec TenantSpec) (*Tenant, error) {
	if r.recoverer == nil {
		return nil, fmt.Errorf("tenancy: dynamic registration needs a recoverer")
	}
	name := spec.Name
	if !validName(name) {
		return nil, fmt.Errorf("tenancy: invalid tenant name %q (want [A-Za-z0-9._-]+)", name)
	}
	// Outside the lock, as Resolve asks: the lookup may do I/O.
	if r.durability != nil {
		if _, recorded := r.durability.LookupPending(name); recorded {
			return nil, fmt.Errorf("%w: %q is recorded in the durable store", ErrTenantExists, name)
		}
	}
	r.mu.Lock()
	e := r.entryLocked(name)
	var err error
	switch {
	case e.pending != nil:
		err = fmt.Errorf("%w: %q is pending recovery", ErrTenantExists, name)
	case e.flight != nil:
		err = fmt.Errorf("%w: %q is being created concurrently", ErrTenantExists, name)
	case e.t != nil:
		err = fmt.Errorf("%w: %q", ErrTenantExists, name)
	}
	if err != nil {
		r.mu.Unlock()
		return nil, err
	}
	// A deliberate re-registration lifts the handoff mark: this node is the
	// tenant's owner again.
	e.released = false
	return r.flyLocked(name, e, func() (*Tenant, error) { return r.create(spec) })
}

// create is RegisterDynamic's flight: build, register, record durably.
func (r *Registry) create(spec TenantSpec) (*Tenant, error) {
	eng, att, err := r.recoverer(spec)
	if err != nil {
		return nil, err
	}
	t, err := r.register(spec, eng, att)
	if err != nil {
		return nil, fmt.Errorf("%w: %q", ErrTenantExists, spec.Name)
	}
	if r.durability == nil {
		return t, nil
	}
	// Only a durably recorded registration is acknowledged: a crash after
	// success must bring the tenant back. Roll back inline rather than via
	// Deregister — Deregister drains in-flight creations, and this is one.
	if err := r.durability.RecordTenant(spec); err != nil {
		r.mu.Lock()
		e := r.tenants[spec.Name]
		e.t, e.att = nil, nil
		r.mu.Unlock()
		closeAttachment(att)
		_ = r.durability.ForgetTenant(spec.Name)
		return nil, fmt.Errorf("%w: %v", ErrDurabilityFailed, err)
	}
	return t, nil
}

// closeAttachment closes att, if there is one.
func closeAttachment(att Attachment) {
	if att != nil {
		att.Close() //errlint:ok (void: an Attachment reports its own failures)
	}
}

// Pool exposes the shared summary pool, e.g. for load reporting.
func (r *Registry) Pool() *searchexec.Pool { return r.pool }

// validName keeps tenant names URL-path-safe: letters, digits, '.', '_',
// '-', excluding the path elements "." and ".." (ServeMux cleans those out
// of request paths, so such tenants could never be addressed) and the
// reserved word "tenants" (it names the collection endpoint /v1/tenants).
func validName(name string) bool {
	if name == "" || name == "." || name == ".." || name == "tenants" {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Register adds tenant spec.Name serving eng, which must be fully set up
// (G_DSs registered). Registration wires the shared pool and installs
// spec.Cache (0: the registry default) on an engine that has no cache
// yet: tenants sharing one engine share the first-installed budget, so a
// later registration never wipes a sibling's warm cache, while entries
// stay per-tenant (keys are scoped by name). Registering a live registry
// is safe while other tenants serve traffic.
func (r *Registry) Register(spec TenantSpec, eng *sizelos.Engine) (*Tenant, error) {
	return r.register(spec, eng, nil)
}

// register is Register for an engine a recoverer built: att joins the
// tenant's entry or, if the registration fails, is closed (after the
// unlock) rather than leaked open.
func (r *Registry) register(spec TenantSpec, eng *sizelos.Engine, att Attachment) (_ *Tenant, err error) {
	defer func() {
		if err != nil {
			closeAttachment(att)
		}
	}()
	name := spec.Name
	if !validName(name) {
		return nil, fmt.Errorf("tenancy: invalid tenant name %q (want [A-Za-z0-9._-]+)", name)
	}
	if eng == nil {
		return nil, fmt.Errorf("tenancy: tenant %q: nil engine", name)
	}
	budget := spec.Cache
	if budget == 0 {
		budget = r.defaultCache
	}
	t := &Tenant{
		Name:        name,
		Engine:      eng,
		CacheBudget: budget,
		pool:        r.pool,
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entryLocked(name)
	if e.t != nil {
		// Fail before touching the engine: a duplicate Register (config
		// reload, retry) must not wipe the live tenant's warm cache.
		return nil, fmt.Errorf("tenancy: tenant %q already registered", name)
	}
	// Install the budget only on a cache-less engine: EnableSummaryCache
	// swaps in an empty LRU, so re-installing on an engine shared with an
	// already-live tenant would wipe that tenant's warm entries mid-traffic.
	if _, enabled := eng.SummaryCacheStats(); !enabled && budget > 0 {
		eng.EnableSummaryCache(budget)
	}
	e.t, e.att = t, att
	return t, nil
}

// Get returns a live tenant by name.
func (r *Registry) Get(name string) (*Tenant, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e := r.tenants[name]; e != nil && e.t != nil {
		return e.t, true
	}
	return nil, false
}

// Deregister removes a tenant, live or pending, closes its attachment and,
// with a Durability, removes its durable record and state; the error
// reports a failed durable removal (the in-memory one has happened).
// In-flight queries finish normally; a racing recovery or creation is
// drained first and its result removed too, so a successful DELETE never
// leaves the tenant serving from memory.
func (r *Registry) Deregister(name string) (bool, error) {
	att, ok := r.remove(name, false)
	if !ok {
		return false, nil
	}
	closeAttachment(att)
	if r.durability != nil {
		if err := r.durability.ForgetTenant(name); err != nil {
			return true, fmt.Errorf("tenancy: forget tenant %q: %w", name, err)
		}
	}
	return true, nil
}

// Release is the old-owner half of a handoff: it removes a tenant, live or
// pending, from serving and ends its attachment with a final snapshot (so
// the new owner replays a short tail), but leaves the manifest entry, WAL
// and snapshots to the NEW owner — contrast Deregister. Like Deregister it
// drains a racing recovery first. The name is then unknown here: a later
// Deregister 404s and must NOT reach ForgetTenant, which would delete the
// state the new owner serves from.
func (r *Registry) Release(name string) bool {
	att, ok := r.remove(name, true)
	if ok && att != nil {
		att.Snapshot()
		att.Close() //errlint:ok (void: an Attachment reports its own failures)
	}
	return ok
}

// remove is the in-memory half of Deregister and Release: after draining
// any flight of name (whose registration would otherwise resurrect it), it
// drops the live, pending and QoS states in the same lock hold, marks the
// name released if asked, and returns the attachment to end outside the
// lock and whether there was anything to remove.
func (r *Registry) remove(name string, release bool) (Attachment, bool) {
	r.mu.Lock()
	e := r.tenants[name]
	for e != nil && e.flight != nil {
		done := e.flight.done
		r.mu.Unlock()
		<-done
		r.mu.Lock()
		e = r.tenants[name]
	}
	if e == nil || (e.t == nil && e.pending == nil) {
		r.mu.Unlock()
		return nil, false
	}
	att := e.att
	// A later registration of the name starts with fresh QoS counters.
	e.t, e.att, e.pending, e.lim = nil, nil, nil, nil
	e.released = e.released || release
	r.tidyLocked(name, e)
	r.mu.Unlock()
	return att, true
}

// Readopt clears a Release mark so the miss-path lookup may adopt the name
// here again. Only the routing tier calls it, when ownership returns to
// this node (the newer owner failed, or a rebalance mapped the tenant
// back): a stray request still cannot resurrect a handed-off tenant; only
// an explicit ownership assignment can.
func (r *Registry) Readopt(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.tenants[name]; e != nil {
		e.released = false
		r.tidyLocked(name, e)
	}
}

// SnapshotAll checkpoints every attached tenant: the periodic tick, and the
// first half of a node's shutdown. A tenant released meanwhile is detached
// and its snapshot refuses.
func (r *Registry) SnapshotAll() { r.eachAttachment(false, Attachment.Snapshot) }

// CloseAll closes every tenant's attachment (shutdown). The tenants stay
// registered; a batch after this fails at its log append.
func (r *Registry) CloseAll() { r.eachAttachment(true, Attachment.Close) }

// eachAttachment runs do on every live tenant's attachment outside the
// lock, first taking each out of its entry when detach is set.
func (r *Registry) eachAttachment(detach bool, do func(Attachment)) {
	var atts []Attachment
	r.mu.Lock()
	for _, e := range r.tenants {
		if e.att != nil {
			atts = append(atts, e.att)
			if detach {
				e.att = nil
			}
		}
	}
	r.mu.Unlock()
	for _, att := range atts {
		do(att)
	}
}

// LiveNames lists, sorted, only the tenants this process serves from
// memory: in a fleet sharing one store every node sees every tenant
// pending, and a rebalance needs to know who serves what.
func (r *Registry) LiveNames() []string {
	return r.names(func(e *entry) bool { return e.t != nil })
}

// Names lists registered tenants — live and pending — sorted.
func (r *Registry) Names() []string {
	return r.names(func(e *entry) bool { return e.t != nil || e.pending != nil })
}

func (r *Registry) names(keep func(*entry) bool) []string {
	var out []string
	r.mu.RLock()
	for name, e := range r.tenants {
		if keep(e) {
			out = append(out, name)
		}
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Page is one served slice of a query's result sequence.
type Page struct {
	// Summaries is the page content, in serving order.
	Summaries []sizelos.Summary
	// Cursor resumes the query after this page; empty when the query is
	// fully served.
	Cursor string
	// Stats counts the work behind the page (matches seen, summaries
	// actually computed, tombstones skipped).
	Stats sizelos.QueryStats
}

// QueryPage serves one page of req (Limit/Cursor) through the shared pool
// under the tenant's cache scope: one Engine.QueryPage call.
func (t *Tenant) QueryPage(req sizelos.QueryRequest) (Page, error) {
	req.Pool, req.CacheScope = t.pool, t.Name
	sums, cursor, stats, err := t.Engine.QueryPage(req)
	return Page{Summaries: sums, Cursor: cursor, Stats: stats}, err
}

// Mutate applies one atomic batch of tuple mutations to the tenant's
// engine. The engine serializes the batch against this tenant's (and any
// engine-sharing sibling's) in-flight searches and stamps the subjects the
// batch reaches, so no post-mutation request is ever served a pre-mutation
// summary of one. Pages already executing finish against the pre-mutation
// state, under the read lock the batch waits for.
func (t *Tenant) Mutate(b sizelos.MutationBatch) (sizelos.MutationResult, error) {
	res, err := t.Engine.Mutate(b)
	batches := &t.footprintBatches
	for _, n := range res.Footprint {
		t.subjectsStamped.Add(uint64(max(n, 0)))
		if n < 0 {
			batches = &t.wideBatches
		}
	}
	if len(res.Footprint) > 0 {
		batches.Add(1)
	}
	return res, err
}

// flight is one in-flight computation that concurrent callers share
// instead of repeating it: a tenant's recovery or creation, held by its
// registry entry. Unlike a cache, an outcome is not retained once the
// flight has landed.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func newFlight[V any]() *flight[V] { return &flight[V]{done: make(chan struct{})} }

// wait blocks until the flight has landed and returns its outcome.
func (f *flight[V]) wait() (V, error) {
	<-f.done
	return f.val, f.err
}

// run computes the flight's outcome with fn on the leader's goroutine,
// then lands it: land unregisters the flight from its entry, and every
// waiter wakes. It lands even if fn panics (net/http recovers handler
// panics) — otherwise every later caller of the name would block on
// a wedged flight. Waiters on a panicked flight get an error, not a silent
// zero value; the panic itself propagates from the leader's goroutine.
func (f *flight[V]) run(fn func() (V, error), land func()) (V, error) {
	completed := false
	defer func() {
		if !completed {
			f.err = errors.New("tenancy: in-flight call panicked")
		}
		land()
		close(f.done)
	}()
	f.val, f.err = fn()
	completed = true
	return f.val, f.err
}
