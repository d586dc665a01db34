package tenancy

import (
	"crypto/subtle"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sizelos/internal/qos"
)

// Middleware is one composable layer of the service's request chain:
// recover → authz → rate-limit → admission → handler.
type Middleware func(http.Handler) http.Handler

// chain wraps h so that mw[0] is the outermost layer.
func chain(h http.Handler, mw ...Middleware) http.Handler {
	for i := len(mw) - 1; i >= 0; i-- {
		h = mw[i](h)
	}
	return h
}

// statusWriter tracks whether a response has started, so the recover
// layer knows when a late failure can still be turned into a clean 500
// envelope (versus a torn body it must not write into).
type statusWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *statusWriter) WriteHeader(status int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// recoverMiddleware is the outermost layer: a panicking handler (or
// recovery-flight leader) becomes a JSON 500 envelope instead of an aborted
// connection, and the panic never takes the process down.
func recoverMiddleware() Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			defer func() {
				if v := recover(); v != nil {
					if !sw.wrote {
						WriteError(sw, errInternal(fmt.Sprintf("internal panic: %v", v), false))
					}
				}
			}()
			next.ServeHTTP(sw, req)
		})
	}
}

// BearerAuth guards an admin plane — a node's write plane and the router's
// /router/* alike. With no token configured it is a pass-through (a
// private deployment); with one, requests must carry "Authorization:
// Bearer <token>" — absent or non-bearer credentials are 401s, wrong
// tokens 403s, compared in constant time.
func BearerAuth(token string) Middleware {
	return func(next http.Handler) http.Handler {
		if token == "" {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			auth := req.Header.Get("Authorization")
			scheme, got, ok := strings.Cut(auth, " ")
			if auth == "" || !ok || !strings.EqualFold(scheme, "Bearer") {
				WriteError(w, &Error{Status: http.StatusUnauthorized, Code: CodeUnauthorized,
					Message: "admin endpoint: provide Authorization: Bearer <token>"})
				return
			}
			if subtle.ConstantTimeCompare([]byte(strings.TrimSpace(got)), []byte(token)) != 1 {
				WriteError(w, &Error{Status: http.StatusForbidden, Code: CodeForbidden, Message: "admin token rejected"})
				return
			}
			next.ServeHTTP(w, req)
		})
	}
}

// trafficClass separates the two rate-limited planes.
type trafficClass int

const (
	classSearch trafficClass = iota
	classMutate
)

// qosMiddleware enforces the addressed tenant's rate limit and admission
// control around the handler. Refusals never reach the handler — a
// throttled or shed request never touches the shared pool or the engine,
// and queues no doomed work. Unknown tenant names pass through untouched
// for the handler's own 404, so probes cannot materialize limiter state.
func (r *Registry) qosMiddleware(class trafficClass) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			lim := r.limiterFor(req.PathValue("tenant"))
			if lim == nil {
				next.ServeHTTP(w, req)
				return
			}
			budget, err := requestBudget(req)
			if err != nil {
				WriteError(w, err)
				return
			}
			var allowErr error
			if class == classMutate {
				allowErr = lim.AllowMutate()
			} else {
				allowErr = lim.AllowSearch()
			}
			if allowErr != nil {
				WriteError(w, allowErr)
				return
			}
			release, err := lim.Admit(budget)
			if err != nil {
				WriteError(w, err)
				return
			}
			defer release()
			next.ServeHTTP(w, req)
		})
	}
}

// maxBudgetMs caps a client's latency budget at 24 h: far past any wait the
// admission queue allows, and far short of the millisecond counts whose
// conversion to a Duration wraps into a tiny or a negative budget.
const maxBudgetMs = 86_400_000

// requestBudget extracts the client's latency budget: the budget_ms query
// parameter, else the X-Sizelos-Budget-Ms header, else 0 (the tenant's
// configured default applies). The admission layer sheds the request
// outright when its queue's observed wait already exceeds the budget.
func requestBudget(req *http.Request) (time.Duration, error) {
	raw := req.URL.Query().Get("budget_ms")
	if raw == "" {
		raw = req.Header.Get("X-Sizelos-Budget-Ms")
	}
	if raw == "" {
		return 0, nil
	}
	ms, err := strconv.Atoi(raw)
	if err != nil || ms < 1 || ms > maxBudgetMs {
		return 0, BadRequest("invalid budget_ms %q (want a positive integer of milliseconds, at most %d)", raw, maxBudgetMs)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// limiterFor resolves the QoS limiter for a tenant name: nil when QoS is
// unconfigured or the name is unknown (live, pending, and mid-recovery
// names all count as known — a tenant must not dodge its limits during
// lazy recovery).
func (r *Registry) limiterFor(name string) *qos.Limiter {
	if r.qos == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e := r.tenants[name]; e != nil && (e.t != nil || e.pending != nil || e.flight != nil) {
		return e.lim
	}
	return nil
}
