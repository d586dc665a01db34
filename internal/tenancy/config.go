package tenancy

import (
	"encoding/json"
	"fmt"
	"os"

	"sizelos/internal/qos"
)

// ServerConfig is the whole service configuration in one object: cache
// budgets, the shared pool, durability, authz, and the QoS surface.
// cmd/ossrv's flags are a thin parser into it, and the same shape is
// accepted as a JSON file (ossrv -config), where per-tenant QoS overrides
// live without needing one flag per tenant:
//
//	{
//	  "addr": ":8080",
//	  "pool": 8,
//	  "cache": 1024,
//	  "admin_token": "s3cret",
//	  "data_dir": "/var/lib/sizelos",
//	  "snapshot_interval": "5m",
//	  "tenants": {"demo": "dblp"},
//	  "qos": {
//	    "default": {"search_rate": 200, "max_in_flight": 8, "max_queue_wait": "250ms"},
//	    "tenants": {"noisy": {"search_rate": 20, "max_in_flight": 2}}
//	  }
//	}
type ServerConfig struct {
	// Addr is the listen address.
	Addr string `json:"addr,omitempty"`
	// PoolSize is the machine-wide summary-pool budget (<= 0: GOMAXPROCS).
	PoolSize int `json:"pool,omitempty"`
	// CacheBudget is the default per-tenant summary-cache budget in
	// entries, applied when a registration does not name its own.
	CacheBudget int `json:"cache,omitempty"`
	// Seed is the deployment-default dataset generator seed.
	Seed int64 `json:"seed,omitempty"`
	// AdminToken, when non-empty, locks the write plane (POST /v1/tenants,
	// DELETE /v1/{tenant}, POST /v1/{tenant}/tuples) behind
	// "Authorization: Bearer <token>".
	AdminToken string `json:"admin_token,omitempty"`
	// DataDir, SnapshotInterval, WALSync, and KeepSnapshots are the
	// durability tier's knobs (docs/DURABILITY.md); empty DataDir keeps
	// the service in-memory only.
	DataDir          string       `json:"data_dir,omitempty"`
	SnapshotInterval qos.Duration `json:"snapshot_interval,omitempty"`
	WALSync          qos.Duration `json:"wal_sync,omitempty"`
	KeepSnapshots    int          `json:"keep_snapshots,omitempty"`
	// Drain bounds the graceful-shutdown wait for in-flight requests.
	Drain qos.Duration `json:"drain,omitempty"`
	// Tenants maps boot-time tenant names to their datasets.
	Tenants map[string]string `json:"tenants,omitempty"`
	// QoS is the fairness contract: registry-wide default limits plus
	// per-tenant overrides (docs/QOS.md).
	QoS qos.Config `json:"qos"`
}

// LoadServerConfig reads a ServerConfig from a JSON file, rejecting
// unknown fields so a typo'd knob fails loudly instead of silently
// defaulting.
func LoadServerConfig(path string) (ServerConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return ServerConfig{}, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var c ServerConfig
	if err := dec.Decode(&c); err != nil {
		return ServerConfig{}, fmt.Errorf("tenancy: config %s: %w", path, err)
	}
	return c, nil
}

// Option is a functional option for NewRegistry / NewHandler.
type Option func(*Registry)

// WithQoS installs per-tenant rate limits, admission control, and load
// shedding from cfg. Without this option the service imposes no QoS at
// all (the pre-QoS behavior, byte for byte).
func WithQoS(cfg qos.Config) Option {
	return func(r *Registry) { r.qos = qos.NewSet(cfg) }
}

// WithAdminToken locks the write plane behind a bearer token; empty
// leaves it open.
func WithAdminToken(token string) Option {
	return func(r *Registry) { r.adminToken = token }
}

// WithDefaultCacheBudget sets the summary-cache budget applied to
// registrations that do not name their own (Options.CacheBudget == 0).
func WithDefaultCacheBudget(entries int) Option {
	return func(r *Registry) { r.defaultCache = entries }
}

// Options lowers the config onto registry options.
func (c ServerConfig) Options() []Option {
	var opts []Option
	if c.AdminToken != "" {
		opts = append(opts, WithAdminToken(c.AdminToken))
	}
	if c.CacheBudget > 0 {
		opts = append(opts, WithDefaultCacheBudget(c.CacheBudget))
	}
	if qosConfigured(c.QoS) {
		opts = append(opts, WithQoS(c.QoS))
	}
	return opts
}

// NewRegistry builds the registry the config describes (pool size, cache
// default, authz, QoS).
func (c ServerConfig) NewRegistry() *Registry {
	return NewRegistry(c.PoolSize, c.Options()...)
}

// qosConfigured reports whether cfg asks for any enforcement; a zero
// config keeps the QoS layer entirely out of the request path.
func qosConfigured(cfg qos.Config) bool {
	return cfg.Default != (qos.Limits{}) || len(cfg.Tenants) > 0
}
