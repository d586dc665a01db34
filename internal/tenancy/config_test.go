package tenancy

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"sizelos/internal/qos"
)

func TestLoadServerConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ossrv.json")
	doc := `{
		"addr": ":9090",
		"pool": 3,
		"cache": 512,
		"seed": 42,
		"admin_token": "sekrit",
		"data_dir": "/tmp/sizelos-test",
		"snapshot_interval": "5m",
		"keep_snapshots": 3,
		"drain": 2000000000,
		"tenants": {"demo": "dblp"},
		"qos": {
			"default": {"max_in_flight": 8, "default_budget": "250ms"},
			"tenants": {"noisy": {"search_rate": 20, "search_burst": 5}}
		}
	}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadServerConfig(path)
	if err != nil {
		t.Fatalf("LoadServerConfig: %v", err)
	}
	if cfg.Addr != ":9090" || cfg.PoolSize != 3 || cfg.CacheBudget != 512 || cfg.Seed != 42 {
		t.Errorf("core fields: %+v", cfg)
	}
	if cfg.AdminToken != "sekrit" || cfg.DataDir != "/tmp/sizelos-test" {
		t.Errorf("authz/durability fields: %+v", cfg)
	}
	// Durations are accepted both as Go strings and as nanosecond numbers.
	if cfg.SnapshotInterval.Std() != 5*time.Minute {
		t.Errorf("snapshot_interval = %v", cfg.SnapshotInterval.Std())
	}
	if cfg.Drain.Std() != 2*time.Second || cfg.KeepSnapshots != 3 {
		t.Errorf("drain/keep: %+v", cfg)
	}
	if cfg.Tenants["demo"] != "dblp" {
		t.Errorf("tenants = %v", cfg.Tenants)
	}
	if cfg.QoS.Default.MaxInFlight != 8 || cfg.QoS.Default.DefaultBudget.Std() != 250*time.Millisecond {
		t.Errorf("qos default = %+v", cfg.QoS.Default)
	}
	noisy := cfg.QoS.For("noisy")
	if noisy.SearchRate != 20 || noisy.SearchBurst != 5 || noisy.MaxInFlight != 8 {
		t.Errorf("noisy merged limits = %+v (per-tenant override must inherit default max_in_flight)", noisy)
	}
}

// TestLoadServerConfigOverDefaults: a field the file leaves out keeps its
// DefaultServerConfig value, and one the file names wins even with a zero.
func TestLoadServerConfigOverDefaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ossrv.json")
	if err := os.WriteFile(path, []byte(`{"cache": 0, "addr": ":9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadServerConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultServerConfig()
	want.CacheBudget, want.Addr = 0, ":9"
	if cfg.Addr != want.Addr || cfg.CacheBudget != want.CacheBudget || cfg.Seed != want.Seed ||
		cfg.SnapshotInterval != want.SnapshotInterval || cfg.KeepSnapshots != want.KeepSnapshots || cfg.Drain != want.Drain {
		t.Errorf("config = %+v, want %+v", cfg, want)
	}
}

// TestLoadServerConfigRejectsUnknownFields: the file is decoded like a
// request body — a typo'd or retired key, anything after the first JSON
// value, or a duration that does not fit an int64 fails the load instead
// of being dropped or wrapped.
func TestLoadServerConfigRejectsUnknownFields(t *testing.T) {
	for _, doc := range []string{
		`{"adress": ":9090"}`,
		`{"wal_sync": "5ms"}`,
		`{"addr":":1"} {"pool":3}`,
		`{"addr":":1"} x`,
		`{"snapshot_interval": 1e19}`,
		`{"drain": -1e19}`,
	} {
		path := filepath.Join(t.TempDir(), "bad.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if cfg, err := LoadServerConfig(path); err == nil {
			t.Errorf("%s loaded silently as %+v; want an error", doc, cfg)
		}
	}
	if _, err := LoadServerConfig(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file loaded silently; want an error")
	}
}

// TestServerConfigValidate: a negative duration is refused and every zero
// is valid.
func TestServerConfigValidate(t *testing.T) {
	if err := (ServerConfig{}).Validate(); err != nil {
		t.Fatalf("zero config: %v", err)
	}
	if err := DefaultServerConfig().Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
	neg := qos.Duration(-time.Millisecond)
	for _, cfg := range []ServerConfig{{SnapshotInterval: neg}, {Drain: neg}} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%+v validated; want a negative-duration error", cfg)
		}
	}
	// A per-tenant QoS duration below zero means "explicitly unlimited".
	cfg := ServerConfig{QoS: qos.Config{Tenants: map[string]qos.Limits{"t": {MaxQueueWait: neg}}}}
	if err := cfg.Validate(); err != nil {
		t.Errorf("negative per-tenant QoS override refused: %v", err)
	}
}

// TestServerConfigNewRegistry proves the config actually lands on the
// registry: authz token, default cache budget, and QoS enforcement.
func TestServerConfigNewRegistry(t *testing.T) {
	cfg := ServerConfig{
		PoolSize:    2,
		CacheBudget: 64,
		AdminToken:  "tok",
		QoS: qos.Config{
			Default: qos.Limits{MaxInFlight: 4},
		},
	}
	reg := NewRegistry(cfg, nil, nil)
	if reg.adminToken != "tok" {
		t.Errorf("adminToken = %q", reg.adminToken)
	}
	if reg.defaultCache != 64 {
		t.Errorf("defaultCache = %d", reg.defaultCache)
	}
	if reg.Pool().Stats().Size != 2 {
		t.Errorf("pool size = %d", reg.Pool().Stats().Size)
	}
	if reg.qos == nil {
		t.Fatal("qos not installed")
	}
	if _, err := reg.Register(TenantSpec{Name: "demo"}, testEngine(t, 1)); err != nil {
		t.Fatal(err)
	}
	if lim := reg.limiterFor("demo"); lim == nil {
		t.Error("no limiter for a registered tenant under a default QoS config")
	} else if lim.Stats().Admission.MaxInFlight != 4 {
		t.Errorf("admission = %+v", lim.Stats().Admission)
	}
	// Registration inherited the default cache budget.
	tn, _ := reg.Get("demo")
	if cs, enabled := tn.Engine.SummaryCacheStats(); !enabled || cs.Cap != 64 {
		t.Errorf("cache: enabled=%v cap=%d, want enabled cap 64", enabled, cs.Cap)
	}
	// A zero QoS config must install nothing at all.
	if reg2 := NewRegistry(ServerConfig{PoolSize: 1}, nil, nil); reg2.qos != nil {
		t.Error("zero config installed a QoS set")
	}
}
