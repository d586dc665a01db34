package nodehost

import (
	"fmt"
	"log"

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
// tenants from their WAL+snapshot directories, handing each one's WAL back
// as the registry entry's attachment, and records the tenant lifecycle in
// the store manifest. It keeps no per-tenant state: the registry owns every
// open WAL. It implements tenancy.Recoverer (Recover) and
// tenancy.Durability.
type Hub struct {
	store *durable.Store
	cfg   Config
	// seed is the deployment-default generator seed (ServerConfig.Seed).
	seed int64
	// reg is the registry the hub recovers tenants into.
	reg *tenancy.Registry
}

// Recover implements tenancy.Recoverer: rebuild the tenant from its
// durable directory (newest valid snapshot + WAL-tail replay; a fresh
// dataset build when nothing durable exists yet) and return its WAL,
// attached as the engine's mutation log, for the registry entry to own.
func (h *Hub) Recover(spec tenancy.TenantSpec) (*sizelos.Engine, tenancy.Attachment, error) {
	restore, err := Restorer(spec.Dataset)
	if err != nil {
		return nil, nil, err
	}
	seed := resolveSeed(spec.Seed, h.seed)
	ts := h.store.Tenant(spec.Name)
	eng, info, err := ts.Recover(restore, func() (*sizelos.Engine, error) {
		return h.cfg.openDataset(spec.Dataset, seed)
	})
	if err != nil {
		return nil, nil, err
	}
	h.cfg.logf("nodehost: tenant %s recovered (dataset %s, snapshot seq %d, %d records replayed, seq %d)",
		spec.Name, spec.Dataset, info.SnapshotSeq, info.Replayed, info.Seq)
	return eng, &wal{name: spec.Name, ts: ts, eng: eng, cfg: h.cfg}, nil
}

// RecordTenant implements tenancy.Durability.
func (h *Hub) RecordTenant(spec tenancy.TenantSpec) error {
	spec.Seed = resolveSeed(spec.Seed, h.seed)
	return h.store.RecordTenant(spec)
}

// ForgetTenant implements tenancy.Durability: drop the tenant from the
// manifest and delete its directory (the registry has closed its WAL).
func (h *Hub) ForgetTenant(name string) error {
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

// CloseAll closes every open WAL without a snapshot (shutdown path).
func (h *Hub) CloseAll() { h.reg.CloseAll() }

// wal is a recovered tenant's tenancy.Attachment: its TenantStore, with the
// WAL open as the engine's mutation log. Failures are logged, not
// returned: a failed snapshot only lengthens the next replay, and a closed
// store refuses to write.
type wal struct {
	name string
	ts   *durable.TenantStore
	eng  *sizelos.Engine
	cfg  Config
}

func (w *wal) Snapshot() {
	if seq, err := w.ts.Snapshot(w.eng); err != nil {
		w.cfg.logf("nodehost: tenant %s: snapshot: %v", w.name, err)
	} else {
		w.cfg.logf("nodehost: tenant %s: snapshot through seq %d", w.name, seq)
	}
}

func (w *wal) Close() {
	if err := w.ts.Close(); err != nil {
		w.cfg.logf("nodehost: tenant %s: close WAL: %v", w.name, err)
	}
}
