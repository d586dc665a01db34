package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sizelos/internal/qos"
	"sizelos/internal/tenancy"
)

// TestLoadConfigPrecedence pins the one precedence order of ossrv's
// configuration: built-in defaults < the -config file < flags set on the
// command line, an explicit zero flag included; boot tenants are the
// file's (sorted) before the -tenant flags, the demo pair when neither
// names one, and none at all for "-tenant none".
func TestLoadConfigPrecedence(t *testing.T) {
	dir := t.TempDir()
	file := func(name, doc string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	full := file("full.json", `{"addr":":9","cache":7,"pool":3,"seed":42,
		"snapshot_interval":"1m","keep_snapshots":4,"drain":"1s","admin_token":"tok","data_dir":"d",
		"tenants":{"z":"dblp","a":"tpch"}}`)
	zeroCache := file("zero.json", `{"cache":0}`)

	defaults := tenancy.DefaultServerConfig()
	fromFile := tenancy.ServerConfig{
		Addr: ":9", CacheBudget: 7, PoolSize: 3, Seed: 42,
		SnapshotInterval: qos.Duration(time.Minute), KeepSnapshots: 4, Drain: qos.Duration(time.Second),
		AdminToken: "tok", DataDir: "d", Tenants: map[string]string{"z": "dblp", "a": "tpch"},
	}
	with := func(base tenancy.ServerConfig, edit func(*tenancy.ServerConfig)) tenancy.ServerConfig {
		edit(&base)
		return base
	}
	demo := []string{"dblp=dblp", "tpch=tpch"}

	for _, tc := range []struct {
		name    string
		args    []string
		want    tenancy.ServerConfig
		tenants []string
	}{
		{"defaults", nil, defaults, demo},
		{"flags over defaults", []string{"-seed", "7", "-addr", ":1", "-drain", "3s"},
			with(defaults, func(c *tenancy.ServerConfig) { c.Seed, c.Addr, c.Drain = 7, ":1", qos.Duration(3*time.Second) }), demo},
		{"file over defaults", []string{"-config", full}, fromFile, []string{"a=tpch", "z=dblp"}},
		{"file zero over default", []string{"-config", zeroCache},
			with(defaults, func(c *tenancy.ServerConfig) { c.CacheBudget = 0 }), demo},
		{"flags over file", []string{"-addr", ":10", "-keep-snapshots", "9", "-config", full},
			with(fromFile, func(c *tenancy.ServerConfig) { c.Addr, c.KeepSnapshots = ":10", 9 }), []string{"a=tpch", "z=dblp"}},
		{"explicit zero flags over file", []string{"-config", full, "-snapshot-interval", "0", "-cache", "0", "-pool", "0", "-admin-token", ""},
			with(fromFile, func(c *tenancy.ServerConfig) {
				c.SnapshotInterval, c.CacheBudget, c.PoolSize, c.AdminToken = 0, 0, 0, ""
			}),
			[]string{"a=tpch", "z=dblp"}},
		{"file tenants before flag tenants", []string{"-tenant", "m=dblp", "-config", full, "-tenant", "b=tpch"},
			fromFile, []string{"a=tpch", "z=dblp", "m=dblp", "b=tpch"}},
		{"tenant none", []string{"-tenant", "none"}, defaults, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, tenants, err := loadConfig(tc.args)
			if err != nil {
				t.Fatalf("loadConfig(%q): %v", tc.args, err)
			}
			if !reflect.DeepEqual(cfg, tc.want) {
				t.Errorf("config = %+v\nwant     %+v", cfg, tc.want)
			}
			if !reflect.DeepEqual(tenants, tc.tenants) {
				t.Errorf("tenants = %q, want %q", tenants, tc.tenants)
			}
		})
	}

	for _, args := range [][]string{
		{"-config", filepath.Join(dir, "missing.json")},
		{"-nope"},
		{"-wal-sync", "0"}, // a retired knob fails the start, never silently
	} {
		if _, _, err := loadConfig(args); err == nil {
			t.Errorf("loadConfig(%q) succeeded; want an error", args)
		}
	}
}
