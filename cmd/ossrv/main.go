// Command ossrv is the long-running multi-tenant search service: it builds
// one engine per configured tenant, registers them in a tenancy registry
// sharing a machine-wide summary pool, and serves size-l Object Summaries
// — plus live tenant administration and tuple mutations — over HTTP/JSON.
//
//	ossrv -addr :8080 -tenant demo=dblp -tenant shop=tpch -cache 1024
//
//	curl 'localhost:8080/v1/tenants'
//	curl 'localhost:8080/v1/demo/search?rel=Author&q=Faloutsos&l=15'
//	curl 'localhost:8080/v1/demo/ranked?rel=Author&q=Faloutsos&l=15&k=3'
//	curl 'localhost:8080/v1/demo/stats'
//	curl -X POST localhost:8080/v1/tenants -d '{"name":"live","dataset":"dblp","cache":256}'
//	curl -X POST localhost:8080/v1/live/tuples -d '{"inserts":[{"rel":"Author","values":[90001,"Ada Lovelace"]}]}'
//	curl -X DELETE localhost:8080/v1/live
//
// Pass -tenant none to start with an empty registry and register every
// tenant dynamically. -addr :0 picks a free port; the chosen address is in
// the "listening on" log line.
//
// The full configuration — including per-tenant QoS limits, which have no
// flag form — can live in a JSON file (-config; the tenancy.ServerConfig
// shape). Flags set on the command line override the file. -admin-token
// locks tenant registration, deregistration, and mutations behind
// "Authorization: Bearer <token>"; per-tenant rate limits, admission
// control, and latency-budget shedding are described in docs/QOS.md.
//
// With -data-dir the service runs durably: every committed mutation batch
// is written to a per-tenant write-ahead log before the request is
// acknowledged, state snapshots are taken on a timer (and at shutdown),
// and a restart recovers each tenant from its newest valid snapshot plus
// WAL-tail replay. Tenants recorded in the manifest recover lazily on
// first touch; tenants named by -tenant flags recover eagerly at boot.
// Without -data-dir nothing is persisted and behavior is identical to the
// in-memory-only service. SIGINT/SIGTERM trigger a graceful shutdown:
// in-flight requests drain (bounded by -drain), then every tenant takes a
// final snapshot and its WAL is flushed and closed.
//
// Several ossrv processes pointed at the SAME -data-dir form a fleet: each
// sees every manifest tenant, and cmd/osrouter places each tenant on
// exactly one node at a time (see docs/SCALEOUT.md). The node-assembly
// logic itself lives in internal/nodehost.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"sizelos/internal/nodehost"
	"sizelos/internal/qos"
	"sizelos/internal/tenancy"
)

// tenantFlags collects repeated -tenant name=dataset definitions.
type tenantFlags []string

func (t *tenantFlags) String() string { return strings.Join(*t, ",") }

func (t *tenantFlags) Set(v string) error {
	*t = append(*t, v)
	return nil
}

// loadConfig assembles the ServerConfig the process runs with: the -config
// JSON file (when given) seeds it, then every flag the command line
// explicitly set overrides the file, and built-in defaults fill whatever
// neither source named. Flags are a thin parser — all semantics live in
// tenancy.ServerConfig.
func loadConfig() (tenancy.ServerConfig, []string) {
	var tenants tenantFlags
	var (
		configPath = flag.String("config", "", "JSON config file (tenancy.ServerConfig); flags set on the command line override it")
		addr       = flag.String("addr", ":8080", "listen address")
		cache      = flag.Int("cache", 1024, "per-tenant summary cache budget in entries (0 = off)")
		pool       = flag.Int("pool", 0, "shared summary pool size across all tenants (0 = GOMAXPROCS)")
		seed       = flag.Int64("seed", 1, "generator seed for the synthetic datasets")
		adminToken = flag.String("admin-token", "", "bearer token guarding tenant admin and mutation endpoints (empty = open)")
		dataDir    = flag.String("data-dir", "", "durability root: per-tenant WAL + snapshots (empty = in-memory only)")
		snapEvery  = flag.Duration("snapshot-interval", 5*time.Minute, "cadence of periodic tenant snapshots (0 = only at shutdown; needs -data-dir)")
		walSync    = flag.Duration("wal-sync", 0, "WAL group-commit interval; 0 fsyncs every mutation before acknowledging")
		keepSnaps  = flag.Int("keep-snapshots", 2, "snapshots retained per tenant after pruning")
		drain      = flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
	)
	flag.Var(&tenants, "tenant", "tenant definition name=dataset (dataset: dblp or tpch); repeatable; 'none' starts empty")
	flag.Parse()

	var cfg tenancy.ServerConfig
	if *configPath != "" {
		var err error
		cfg, err = tenancy.LoadServerConfig(*configPath)
		if err != nil {
			log.Fatalf("ossrv: %v", err)
		}
	}
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	// An explicitly set flag beats the file; otherwise the file beats the
	// flag default; otherwise the default stands. Fields the file cannot
	// leave ambiguous (zero means "unset") just check for zero.
	if set["addr"] || cfg.Addr == "" {
		cfg.Addr = *addr
	}
	if set["cache"] || cfg.CacheBudget == 0 {
		cfg.CacheBudget = *cache
	}
	if set["pool"] {
		cfg.PoolSize = *pool
	}
	if set["seed"] || cfg.Seed == 0 {
		cfg.Seed = *seed
	}
	if set["admin-token"] {
		cfg.AdminToken = *adminToken
	}
	if set["data-dir"] {
		cfg.DataDir = *dataDir
	}
	if set["snapshot-interval"] || cfg.SnapshotInterval == 0 {
		cfg.SnapshotInterval = qos.Duration(*snapEvery)
	}
	if set["wal-sync"] {
		cfg.WALSync = qos.Duration(*walSync)
	}
	if set["keep-snapshots"] || cfg.KeepSnapshots == 0 {
		cfg.KeepSnapshots = *keepSnaps
	}
	if set["drain"] || cfg.Drain == 0 {
		cfg.Drain = qos.Duration(*drain)
	}

	// Boot tenants: config-file entries first (sorted for a deterministic
	// boot order), then -tenant flags. No tenant from either source means
	// the demo pair; a single "none" starts empty.
	var defs []string
	for _, name := range sortedKeys(cfg.Tenants) {
		defs = append(defs, name+"="+cfg.Tenants[name])
	}
	defs = append(defs, tenants...)
	if len(defs) == 0 {
		defs = []string{"dblp=dblp", "tpch=tpch"}
	}
	if len(defs) == 1 && defs[0] == "none" {
		defs = nil
	}
	return cfg, defs
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func main() {
	cfg, tenants := loadConfig()

	node, err := nodehost.Boot(cfg, tenants, nodehost.Config{
		Logf: func(format string, args ...any) {
			log.Printf("ossrv: "+strings.TrimPrefix(format, "nodehost: "), args...)
		},
	})
	if err != nil {
		log.Fatalf("ossrv: %v", err)
	}
	reg := node.Registry

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		log.Fatalf("ossrv: listen %s: %v", cfg.Addr, err)
	}
	durability := "durability off"
	if node.Hub != nil {
		durability = "data dir " + cfg.DataDir
	}
	log.Printf("ossrv: listening on %s — serving %d tenant(s) (shared pool size %d, %s)",
		ln.Addr(), len(reg.Names()), reg.Pool().Stats().Size, durability)

	srv := &http.Server{Handler: node.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var tick <-chan time.Time
	if node.Hub != nil && cfg.SnapshotInterval > 0 {
		ticker := time.NewTicker(cfg.SnapshotInterval.Std())
		defer ticker.Stop()
		tick = ticker.C
	}

	for {
		select {
		case err := <-serveErr:
			if errors.Is(err, http.ErrServerClosed) {
				continue
			}
			log.Fatalf("ossrv: serve: %v", err)
		case <-tick:
			node.SnapshotAll()
		case <-ctx.Done():
			// Restore default signal handling so a second signal kills hard.
			stop()
			log.Printf("ossrv: shutdown signal received; draining (deadline %s)", cfg.Drain.Std())
			shCtx, cancel := context.WithTimeout(context.Background(), cfg.Drain.Std())
			err := srv.Shutdown(shCtx)
			cancel()
			if err != nil {
				log.Printf("ossrv: drain incomplete: %v", err)
			}
			node.Close() //errlint:ok (void Close: snapshots + closes every tenant internally)
			log.Printf("ossrv: shutdown complete")
			return
		}
	}
}
