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
// shape). The file overrides the built-in defaults, and flags set on the
// command line override the file. -admin-token
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
// final snapshot and its WAL is closed.
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
	"maps"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"sizelos/internal/nodehost"
	"sizelos/internal/tenancy"
)

// loadConfig assembles the ServerConfig the process runs with from args,
// in one precedence order: built-in defaults, then the -config JSON file,
// then every flag the command line sets — an explicit zero included. Flags
// are a thin parser — all semantics live in tenancy.ServerConfig. It also
// returns the boot tenant definitions.
func loadConfig(args []string) (tenancy.ServerConfig, []string, error) {
	cfg := tenancy.DefaultServerConfig()
	fs, configPath, tenants := flags(&cfg)
	if err := fs.Parse(args); err != nil {
		return cfg, nil, err
	}
	if *configPath != "" {
		// The file replaces the defaults it names; parsing again puts the
		// command line back on top.
		var err error
		if cfg, err = tenancy.LoadServerConfig(*configPath); err != nil {
			return cfg, nil, err
		}
		fs, _, tenants = flags(&cfg)
		if err := fs.Parse(args); err != nil {
			return cfg, nil, err
		}
	}

	// Boot tenants: config-file entries first (sorted for a deterministic
	// boot order), then -tenant flags. No tenant from either source means
	// the demo pair; a single "none" starts empty.
	var defs []string
	for _, name := range slices.Sorted(maps.Keys(cfg.Tenants)) {
		defs = append(defs, name+"="+cfg.Tenants[name])
	}
	defs = append(defs, *tenants...)
	if len(defs) == 0 {
		defs = []string{"dblp=dblp", "tpch=tpch"}
	}
	if len(defs) == 1 && defs[0] == "none" {
		defs = nil
	}
	return cfg, defs, nil
}

// flags binds the command line to cfg's fields, each defaulting to the
// value cfg holds now, and returns the -config path and -tenant list.
func flags(cfg *tenancy.ServerConfig) (*flag.FlagSet, *string, *[]string) {
	fs := flag.NewFlagSet("ossrv", flag.ContinueOnError)
	configPath := fs.String("config", "", "JSON config file (tenancy.ServerConfig); flags set on the command line override it")
	fs.StringVar(&cfg.Addr, "addr", cfg.Addr, "listen address")
	fs.IntVar(&cfg.CacheBudget, "cache", cfg.CacheBudget, "per-tenant summary cache budget in entries (0 = off)")
	fs.IntVar(&cfg.PoolSize, "pool", cfg.PoolSize, "shared summary pool size across all tenants (0 = GOMAXPROCS)")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "generator seed for the synthetic datasets")
	fs.StringVar(&cfg.AdminToken, "admin-token", cfg.AdminToken, "bearer token guarding tenant admin and mutation endpoints (empty = open)")
	fs.StringVar(&cfg.DataDir, "data-dir", cfg.DataDir, "durability root: per-tenant WAL + snapshots (empty = in-memory only)")
	fs.DurationVar((*time.Duration)(&cfg.SnapshotInterval), "snapshot-interval", cfg.SnapshotInterval.Std(), "cadence of periodic tenant snapshots (0 = only at shutdown; needs -data-dir)")
	fs.IntVar(&cfg.KeepSnapshots, "keep-snapshots", cfg.KeepSnapshots, "snapshots retained per tenant after pruning")
	fs.DurationVar((*time.Duration)(&cfg.Drain), "drain", cfg.Drain.Std(), "graceful-shutdown deadline for in-flight requests")
	tenants := new([]string)
	fs.Func("tenant", "tenant definition name=dataset (dataset: dblp or tpch); repeatable; 'none' starts empty", func(def string) error {
		*tenants = append(*tenants, def)
		return nil
	})
	return fs, configPath, tenants
}

func main() {
	cfg, tenants, err := loadConfig(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		log.Fatalf("ossrv: %v", err)
	}

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
			reg.SnapshotAll()
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
