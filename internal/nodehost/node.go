package nodehost

import (
	"fmt"
	"net/http"
	"slices"
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
}

// Boot assembles a node from a resolved ServerConfig and its boot tenant
// definitions ("name=dataset"). With cfg.DataDir set the node is durable:
// manifest tenants become lazily-recoverable pending entries, boot tenants
// are recorded and recovered eagerly (an unrecoverable WAL fails the boot,
// loudly), and the hub's manifest lookup lets the registry adopt on first
// touch the tenants other nodes sharing the directory recorded. opts
// carries the node-local hooks (Logf, the test-only Open override).
func Boot(cfg tenancy.ServerConfig, tenants []string, opts Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Without a data dir a tenant registered over HTTP is a from-scratch
	// build by the same opener as the boot tenants; a request-supplied seed
	// overrides the deployment default. With one, hub.Recover replaces it.
	var rec tenancy.Recoverer = func(spec tenancy.TenantSpec) (*sizelos.Engine, tenancy.Attachment, error) {
		eng, err := opts.openDataset(spec.Dataset, resolveSeed(spec.Seed, cfg.Seed))
		return eng, nil, err
	}
	var (
		hub   *Hub
		d     tenancy.Durability
		specs []tenancy.TenantSpec
	)
	if cfg.DataDir != "" {
		store, err := durable.Open(durable.NewDirFS(cfg.DataDir), durable.Options{KeepSnapshots: cfg.KeepSnapshots})
		if err != nil {
			return nil, fmt.Errorf("open data dir %s: %w", cfg.DataDir, err)
		}
		if specs, err = store.LoadManifest(); err != nil {
			return nil, err
		}
		hub = &Hub{store: store, cfg: opts, seed: cfg.Seed}
		rec, d = hub.Recover, hub
	}
	reg := tenancy.NewRegistry(cfg, rec, d)
	if hub != nil {
		hub.reg = reg
	}
	// Manifest tenants recover lazily: pending until first touched, so a
	// restart with many tenants is ready to listen immediately.
	for _, spec := range specs {
		if err := reg.AddPending(spec); err != nil {
			return nil, fmt.Errorf("manifest tenant %s: %w", spec.Name, err)
		}
		opts.logf("nodehost: tenant %s pending recovery (dataset %s)", spec.Name, spec.Dataset)
	}

	for _, def := range tenants {
		name, dataset, ok := strings.Cut(def, "=")
		if !ok {
			return nil, fmt.Errorf("bad tenant definition %q (want name=dataset)", def)
		}
		spec := tenancy.TenantSpec{Name: name, Dataset: dataset, Seed: cfg.Seed, Cache: cfg.CacheBudget}
		var err error
		if hub == nil {
			_, err = reg.RegisterDynamic(spec)
		} else {
			// Durable boot tenants: record the spec (unless the manifest
			// already knows the name — its durable directory wins over the
			// definition) and recover eagerly so an unrecoverable WAL fails
			// the boot.
			if !slices.ContainsFunc(specs, func(s tenancy.TenantSpec) bool { return s.Name == name }) {
				if err = reg.AddPending(spec); err == nil {
					err = hub.RecordTenant(spec)
				}
			}
			if err == nil {
				_, _, err = reg.Resolve(name)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %w", name, err)
		}
		opts.logf("nodehost: tenant %s ready (dataset %s, cache budget %d)", name, dataset, cfg.CacheBudget)
	}
	return &Node{Registry: reg, Hub: hub}, nil
}

// Handler returns the node's full HTTP surface (the tenancy API).
func (n *Node) Handler() http.Handler { return n.Registry.Handler() }

// Close takes final snapshots and closes every open WAL; a no-op without a
// data dir. The caller drains in-flight HTTP traffic first.
func (n *Node) Close() {
	n.Registry.SnapshotAll()
	n.Registry.CloseAll()
}
