package nodehost

import (
	"fmt"
	"net/http"
	"strings"

	"sizelos"
	"sizelos/internal/durable"
	"sizelos/internal/tenancy"
)

// Node is one booted fleet node: a tenancy registry wired (optionally) to a
// durable hub, with its boot tenants registered or recovered. cmd/ossrv
// wraps one in an http.Server; fleet tests boot several in-process.
type Node struct {
	Registry *tenancy.Registry
	// Hub is nil when the node runs without a data dir (in-memory only).
	Hub *Hub
	cfg tenancy.ServerConfig
}

// Boot assembles a node from a resolved ServerConfig and its boot tenant
// definitions ("name=dataset"). With cfg.DataDir set the node is durable:
// manifest tenants become lazily-recoverable pending entries, boot tenants
// are recorded and recovered eagerly (an unrecoverable WAL fails the boot,
// loudly), and the registry's pending loader re-probes the manifest so
// tenants recorded by other nodes sharing the directory are adopted on
// first touch. opts carries the node-local hooks (Logf, the test-only Open
// override); its DefaultSeed is taken from cfg.
func Boot(cfg tenancy.ServerConfig, tenants []string, opts Config) (*Node, error) {
	reg := cfg.NewRegistry()
	hubCfg := opts
	hubCfg.DefaultSeed = cfg.Seed
	// Without a data dir a tenant registered over HTTP is a from-scratch
	// build by the same opener as the boot tenants; a request-supplied seed
	// overrides the deployment default. With one, hub.Recover replaces it.
	reg.SetRecoverer(func(spec tenancy.TenantSpec) (*sizelos.Engine, error) {
		return hubCfg.openDataset(spec.Dataset, hubCfg.resolveSeed(spec.Seed))
	})

	var hub *Hub
	if cfg.DataDir != "" {
		store, err := durable.Open(durable.NewDirFS(cfg.DataDir), durable.Options{
			SyncInterval:  cfg.WALSync.Std(),
			KeepSnapshots: cfg.KeepSnapshots,
		})
		if err != nil {
			return nil, fmt.Errorf("open data dir %s: %w", cfg.DataDir, err)
		}
		hub = NewHub(store, hubCfg)
		reg.SetRecoverer(hub.Recover)
		reg.SetDurability(hub)
		reg.SetPendingLoader(hub.LookupPending)
		// Manifest tenants recover lazily: pending until first touched, so
		// a restart with many tenants is ready to listen immediately.
		specs, err := store.LoadManifest()
		if err != nil {
			return nil, err
		}
		for _, spec := range specs {
			pend := tenancy.TenantSpec{Name: spec.Name, Dataset: spec.Dataset, Seed: spec.Seed, Cache: spec.Cache}
			if err := reg.AddPending(pend); err != nil {
				return nil, fmt.Errorf("manifest tenant %s: %w", spec.Name, err)
			}
			hubCfg.logf("nodehost: tenant %s pending recovery (dataset %s)", spec.Name, spec.Dataset)
		}
	}

	known := make(map[string]bool)
	for _, name := range reg.Names() {
		known[name] = true
	}
	for _, def := range tenants {
		name, dataset, ok := strings.Cut(def, "=")
		if !ok {
			return nil, fmt.Errorf("bad tenant definition %q (want name=dataset)", def)
		}
		if hub == nil {
			eng, err := hubCfg.openDataset(dataset, cfg.Seed)
			if err != nil {
				return nil, fmt.Errorf("tenant %s: %w", name, err)
			}
			if _, err := reg.Register(name, eng, tenancy.Options{CacheBudget: cfg.CacheBudget}); err != nil {
				return nil, err
			}
			hubCfg.logf("nodehost: tenant %s ready (dataset %s, cache budget %d)", name, dataset, cfg.CacheBudget)
			continue
		}
		// Durable boot tenants: record the spec (unless the manifest already
		// knows the name — its durable directory wins over the definition)
		// and recover eagerly so an unrecoverable WAL fails the boot.
		if !known[name] {
			spec := tenancy.TenantSpec{Name: name, Dataset: dataset, Seed: cfg.Seed, Cache: cfg.CacheBudget}
			if err := reg.AddPending(spec); err != nil {
				return nil, fmt.Errorf("tenant %s: %w", name, err)
			}
			if err := hub.RecordTenant(spec); err != nil {
				return nil, fmt.Errorf("tenant %s: %w", name, err)
			}
		}
		if _, _, err := reg.Resolve(name); err != nil {
			return nil, fmt.Errorf("tenant %s: %w", name, err)
		}
		hubCfg.logf("nodehost: tenant %s ready (dataset %s, cache budget %d)", name, dataset, cfg.CacheBudget)
	}
	return &Node{Registry: reg, Hub: hub, cfg: cfg}, nil
}

// Handler returns the node's full HTTP surface (the tenancy API).
func (n *Node) Handler() http.Handler { return n.Registry.Handler() }

// SnapshotAll snapshots every recovered tenant; a no-op without a data dir.
func (n *Node) SnapshotAll() {
	if n.Hub != nil {
		n.Hub.SnapshotAll()
	}
}

// Close takes final snapshots and closes every open WAL; a no-op without a
// data dir. The caller drains in-flight HTTP traffic first.
func (n *Node) Close() {
	if n.Hub != nil {
		n.Hub.SnapshotAll()
		n.Hub.CloseAll()
	}
}
