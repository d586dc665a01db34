package nodehost

import (
	"fmt"
	"log"
	"sync"

	"sizelos"
	"sizelos/internal/datagen"
	"sizelos/internal/durable"
	"sizelos/internal/tenancy"
)

// Config carries a node's local hooks; everything deployment-wide is in
// the tenancy.ServerConfig that Boot takes beside it.
type Config struct {
	// Open overrides fresh dataset construction (tests substitute tiny
	// recipes); nil builds the named synthetic dataset. The override must
	// be deterministic in (dataset, seed) — recovery rebuilds through it.
	Open func(dataset string, seed int64) (*sizelos.Engine, error)
	// Logf receives operational log lines; nil means log.Printf.
	Logf func(format string, args ...any)
}

// openDataset funnels every fresh engine build through the override seam.
func (c Config) openDataset(dataset string, seed int64) (*sizelos.Engine, error) {
	if c.Open != nil {
		return c.Open(dataset, seed)
	}
	d, err := lookupDataset(dataset)
	if err != nil {
		return nil, err
	}
	return d.open(seed)
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// resolveSeed pins a concrete seed: dataset recipes must not silently
// change when the deployment default does, so specs are recorded resolved.
func resolveSeed(s, deployment int64) int64 {
	if s > 0 {
		return s
	}
	return deployment
}

// dataset is one named synthetic dataset: its fresh build at a generator
// seed and its snapshot-restore constructor.
type dataset struct {
	open    func(seed int64) (*sizelos.Engine, error)
	restore func(*sizelos.EngineState) (*sizelos.Engine, error)
}

// datasets is every dataset a node can serve, by the name a tenant spec
// gives.
var datasets = map[string]dataset{
	"dblp": {func(seed int64) (*sizelos.Engine, error) {
		c := datagen.DefaultDBLPConfig()
		c.Seed = seed
		return sizelos.OpenDBLP(c)
	}, sizelos.RestoreDBLP},
	"tpch": {func(seed int64) (*sizelos.Engine, error) {
		c := datagen.DefaultTPCHConfig()
		c.Seed = seed
		return sizelos.OpenTPCH(c)
	}, sizelos.RestoreTPCH},
}

func lookupDataset(name string) (dataset, error) {
	d, ok := datasets[name]
	if !ok {
		return dataset{}, fmt.Errorf("unknown dataset %q (want dblp or tpch)", name)
	}
	return d, nil
}

// Restorer maps a dataset name to its snapshot-restore constructor.
func Restorer(name string) (func(*sizelos.EngineState) (*sizelos.Engine, error), error) {
	d, err := lookupDataset(name)
	return d.restore, err
}

// Hub wires the registry's durability seam to a durable.Store: it recovers
// tenants from their WAL+snapshot directories, records the tenant
// lifecycle in the store manifest, and tracks every open TenantStore so
// the snapshot ticker and the shutdown path can reach them. It implements
// tenancy.Recoverer (Recover) and tenancy.Durability.
type Hub struct {
	store *durable.Store
	cfg   Config
	// seed is the deployment-default generator seed (ServerConfig.Seed).
	seed int64

	mu      sync.Mutex
	tenants map[string]*hubTenant
}

type hubTenant struct {
	ts  *durable.TenantStore
	eng *sizelos.Engine
}

// newHub builds a hub over an opened store.
func newHub(store *durable.Store, cfg Config, seed int64) *Hub {
	return &Hub{store: store, cfg: cfg, seed: seed, tenants: make(map[string]*hubTenant)}
}

// Recover implements tenancy.Recoverer: rebuild the tenant from its
// durable directory (newest valid snapshot + WAL-tail replay; a fresh
// dataset build when nothing durable exists yet) and leave its WAL
// attached as the engine's mutation log.
func (h *Hub) Recover(spec tenancy.TenantSpec) (*sizelos.Engine, error) {
	restore, err := Restorer(spec.Dataset)
	if err != nil {
		return nil, err
	}
	seed := resolveSeed(spec.Seed, h.seed)
	ts := h.store.Tenant(spec.Name)
	eng, info, err := ts.Recover(restore, func() (*sizelos.Engine, error) {
		return h.cfg.openDataset(spec.Dataset, seed)
	})
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.tenants[spec.Name] = &hubTenant{ts: ts, eng: eng}
	h.mu.Unlock()
	h.cfg.logf("nodehost: tenant %s recovered (dataset %s, snapshot seq %d, %d records replayed, seq %d)",
		spec.Name, spec.Dataset, info.SnapshotSeq, info.Replayed, info.Seq)
	return eng, nil
}

// RecordTenant implements tenancy.Durability.
func (h *Hub) RecordTenant(spec tenancy.TenantSpec) error {
	spec.Seed = resolveSeed(spec.Seed, h.seed)
	return h.store.RecordTenant(spec)
}

// ReleaseTenant implements tenancy.Durability: close the open TenantStore
// of a tenant leaving this node, WITHOUT touching its manifest entry or
// on-disk state. On the migration handoff path a best-effort final
// snapshot is taken first, so the new owner's first-touch recovery replays
// a short WAL tail instead of the whole log; a failed snapshot only costs
// replay time (the WAL has every committed record) and is logged, not
// fatal.
func (h *Hub) ReleaseTenant(name string) {
	h.mu.Lock()
	dt := h.tenants[name]
	delete(h.tenants, name)
	h.mu.Unlock()
	if dt == nil {
		return
	}
	if seq, err := dt.ts.Snapshot(dt.eng); err != nil {
		h.cfg.logf("nodehost: tenant %s: final snapshot before release: %v", name, err)
	} else {
		h.cfg.logf("nodehost: tenant %s: released with final snapshot through seq %d", name, seq)
	}
	if err := dt.ts.Close(); err != nil {
		h.cfg.logf("nodehost: tenant %s: close WAL: %v", name, err)
	}
}

// ForgetTenant implements tenancy.Durability: close the tenant's WAL if it
// was recovered, then drop it from the manifest and delete its directory.
func (h *Hub) ForgetTenant(name string) error {
	h.mu.Lock()
	dt := h.tenants[name]
	delete(h.tenants, name)
	h.mu.Unlock()
	if dt != nil {
		if err := dt.ts.Close(); err != nil {
			h.cfg.logf("nodehost: tenant %s: close WAL: %v", name, err)
		}
	}
	return h.store.ForgetTenant(name)
}

// LookupPending implements tenancy.Durability: re-read the (possibly
// shared) manifest for a name this process has never heard of, so a
// tenant recorded by another fleet node — or migrated here — can be
// adopted on first touch. The tenancy layer guards the released-name case;
// this lookup is a plain manifest probe.
func (h *Hub) LookupPending(name string) (tenancy.TenantSpec, bool) {
	specs, err := h.store.LoadManifest()
	if err != nil {
		h.cfg.logf("nodehost: pending lookup for %s: %v", name, err)
		return tenancy.TenantSpec{}, false
	}
	for _, spec := range specs {
		if spec.Name == name {
			return spec, true
		}
	}
	return tenancy.TenantSpec{}, false
}

// SnapshotAll captures a snapshot of every recovered tenant. Errors are
// logged, not fatal: a failed snapshot only lengthens the next replay, and
// a tenant released mid-tick is detached, so its store refuses to write.
func (h *Hub) SnapshotAll() {
	for name, dt := range h.open() {
		if seq, err := dt.ts.Snapshot(dt.eng); err != nil {
			h.cfg.logf("nodehost: tenant %s: snapshot: %v", name, err)
		} else {
			h.cfg.logf("nodehost: tenant %s: snapshot through seq %d", name, seq)
		}
	}
}

// CloseAll closes every open WAL (shutdown path).
func (h *Hub) CloseAll() {
	for name, dt := range h.open() {
		if err := dt.ts.Close(); err != nil {
			h.cfg.logf("nodehost: tenant %s: close WAL: %v", name, err)
		}
	}
	h.mu.Lock()
	h.tenants = make(map[string]*hubTenant)
	h.mu.Unlock()
}

func (h *Hub) open() map[string]*hubTenant {
	h.mu.Lock()
	defer h.mu.Unlock()
	open := make(map[string]*hubTenant, len(h.tenants))
	for name, dt := range h.tenants {
		open[name] = dt
	}
	return open
}
