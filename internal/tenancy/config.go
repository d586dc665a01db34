package tenancy

import (
	"fmt"
	"os"
	"time"

	"sizelos/internal/qos"
)

// ServerConfig is the whole service configuration in one object: cache
// budgets, the shared pool, durability, authz, and the QoS surface.
// NewRegistry is built from it, cmd/ossrv's flags are a thin parser into
// it, and the same shape is accepted as a JSON file (ossrv -config), where
// per-tenant QoS overrides live without needing one flag per tenant:
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
	// DataDir, SnapshotInterval, and KeepSnapshots are the durability
	// tier's knobs (docs/DURABILITY.md); empty DataDir keeps the service
	// in-memory only.
	DataDir          string       `json:"data_dir,omitempty"`
	SnapshotInterval qos.Duration `json:"snapshot_interval,omitempty"`
	KeepSnapshots    int          `json:"keep_snapshots,omitempty"`
	// Drain bounds the graceful-shutdown wait for in-flight requests.
	Drain qos.Duration `json:"drain,omitempty"`
	// Tenants maps boot-time tenant names to their datasets.
	Tenants map[string]string `json:"tenants,omitempty"`
	// QoS is the fairness contract: registry-wide default limits plus
	// per-tenant overrides (docs/QOS.md).
	QoS qos.Config `json:"qos"`
}

// DefaultServerConfig is the configuration ossrv starts from before a
// config file or a flag names a value.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		Addr:             ":8080",
		CacheBudget:      1024,
		Seed:             1,
		SnapshotInterval: qos.Duration(5 * time.Minute),
		KeepSnapshots:    2,
		Drain:            qos.Duration(10 * time.Second),
	}
}

// LoadServerConfig reads a ServerConfig from a JSON file over
// DefaultServerConfig: a field the file names replaces the default, even
// with a zero. The file is decoded as strictly as a request body — one
// JSON value of known fields and nothing after it — so a typo'd knob or a
// second object fails loudly instead of silently defaulting.
func LoadServerConfig(path string) (ServerConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return ServerConfig{}, err
	}
	defer f.Close()
	c := DefaultServerConfig()
	if err := decodeOne(f, &c, true); err != nil {
		return ServerConfig{}, fmt.Errorf("tenancy: config %s: %w", path, err)
	}
	return c, nil
}

// Validate rejects a configuration no deployment can mean: a negative
// duration.
func (c ServerConfig) Validate() error {
	names := []string{"snapshot_interval", "drain"}
	for i, d := range []qos.Duration{c.SnapshotInterval, c.Drain} {
		if d < 0 {
			return fmt.Errorf("tenancy: %s %s is negative", names[i], d.Std())
		}
	}
	return nil
}
