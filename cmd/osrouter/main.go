// Command osrouter fronts an ossrv fleet with a consistent-hash routing
// tier: every tenant-scoped /v1 request is proxied to the one node that
// currently owns the tenant, failed nodes are evicted (their tenants
// rehash and recover from the shared -data-dir on first touch), and
// tenants can be migrated live between nodes without losing acked
// mutations.
//
//	ossrv -addr :8081 -tenant none -data-dir /srv/os &
//	ossrv -addr :8082 -tenant none -data-dir /srv/os &
//	ossrv -addr :8083 -tenant none -data-dir /srv/os &
//	osrouter -addr :8080 \
//	  -member n1=http://localhost:8081 \
//	  -member n2=http://localhost:8082 \
//	  -member n3=http://localhost:8083
//
//	curl 'localhost:8080/v1/demo/search?rel=Author&q=Faloutsos'   # routed
//	curl 'localhost:8080/router/members'                          # health + counters
//	curl -X POST localhost:8080/router/migrate -d '{"tenant":"demo","to":"n2"}'
//
// The fleet members MUST share one durable data dir; the router holds no
// tenant state of its own and can be restarted freely. Responses carry an
// X-Sizelos-Node header naming the serving node. Ring semantics, the
// migration lifecycle, and the failure matrix are in docs/SCALEOUT.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sizelos/internal/router"
)

type memberFlags []router.Member

func (m *memberFlags) String() string {
	parts := make([]string, 0, len(*m))
	for _, mem := range *m {
		parts = append(parts, mem.Name+"="+mem.URL)
	}
	return strings.Join(parts, ",")
}

func (m *memberFlags) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("want name=url, got %q", v)
	}
	*m = append(*m, router.Member{Name: name, URL: url})
	return nil
}

func main() {
	var members memberFlags
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		adminToken = flag.String("admin-token", "", "bearer token guarding /router/* and presented on fleet release calls (empty = open)")
		healthInt  = flag.Duration("health-interval", 2*time.Second, "fleet health probe cadence")
		healthTO   = flag.Duration("health-timeout", time.Second, "single health probe timeout")
		failThresh = flag.Int("fail-threshold", 2, "consecutive failed probes before a member is evicted from the ring")
		drainTO    = flag.Duration("drain-timeout", 10*time.Second, "migration wait for a tenant's in-flight requests")
	)
	flag.Var(&members, "member", "fleet member name=url (repeatable; at least one required)")
	flag.Parse()

	rt, err := router.New(router.Config{
		Members:        members,
		AdminToken:     *adminToken,
		HealthInterval: *healthInt,
		HealthTimeout:  *healthTO,
		FailThreshold:  *failThresh,
		DrainTimeout:   *drainTO,
		Logf:           log.Printf,
	})
	if err != nil {
		log.Fatalf("osrouter: %v", err)
	}
	defer rt.Close()

	// One synchronous probe round so the startup log reflects reality and
	// a fleet that is already down is visible immediately.
	rt.CheckNow()
	healthy := 0
	for _, mem := range members {
		if rt.Healthy(mem.Name) {
			healthy++
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("osrouter: listen %s: %v", *addr, err)
	}
	log.Printf("osrouter: listening on %s — routing over %d member(s), %d healthy", ln.Addr(), len(members), healthy)

	srv := &http.Server{Handler: rt}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	select {
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("osrouter: serve: %v", err)
		}
	case <-ctx.Done():
		stop()
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			log.Printf("osrouter: drain incomplete: %v", err)
		}
		log.Printf("osrouter: shutdown complete")
	}
}
