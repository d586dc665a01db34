package tenancy

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"sizelos"
	"sizelos/internal/qos"
	"sizelos/internal/relational"
	"sizelos/internal/searchexec"
)

// SummaryJSON is one size-l OS in a service response.
type SummaryJSON struct {
	Relation   string  `json:"relation"`
	Tuple      int     `json:"tuple"`
	Headline   string  `json:"headline"`
	Importance float64 `json:"importance"`
	Tuples     int     `json:"tuples"`
	Text       string  `json:"text"`
}

// SearchResponse is the body of /v1/{tenant}/search and /v1/{tenant}/ranked.
type SearchResponse struct {
	Tenant   string        `json:"tenant"`
	Relation string        `json:"relation"`
	Query    string        `json:"query"`
	L        int           `json:"l"`
	Count    int           `json:"count"`
	Results  []SummaryJSON `json:"results"`
	// Cursor resumes the query after this page (pass it back as the cursor
	// parameter with otherwise identical parameters); omitted when the
	// query is fully served. A mutation between pages invalidates it: the
	// resume gets 410 Gone, never a torn page.
	Cursor string `json:"cursor,omitempty"`
}

// StatsVersion is the version stamp of the stats document. Version 2
// added the version field itself, the QoS section (limiter tokens,
// admission queue depth, shed counts), and pool wait accounting; version 3
// the invalidation section. Every earlier field is unchanged.
const StatsVersion = 3

// StatsResponse is the body of /v1/{tenant}/stats.
type StatsResponse struct {
	Tenant       string                `json:"tenant"`
	Version      int                   `json:"version"`
	CacheEnabled bool                  `json:"cache_enabled"`
	Cache        searchexecCacheJSON   `json:"cache"`
	Pool         searchexec.PoolStats  `json:"pool"`
	Invalidation InvalidationStatsJSON `json:"invalidation"`
	Settings     []string              `json:"settings"`
	// QoS reports the tenant's limiter state; omitted when QoS is not
	// configured for the deployment.
	QoS *qos.LimiterStats `json:"qos,omitempty"`
}

type searchexecCacheJSON struct {
	Hits   uint64  `json:"hits"`
	Misses uint64  `json:"misses"`
	Len    int     `json:"len"`
	Cap    int     `json:"cap"`
	Rate   float64 `json:"hit_rate"`
}

// InvalidationStatsJSON splits the write batches that reached a summary:
// FootprintBatches stamped only the subjects their tuples can reach
// (SubjectsStamped in total), WideBatches invalidated a whole DS relation.
type InvalidationStatsJSON struct {
	FootprintBatches uint64 `json:"footprint_batches"`
	WideBatches      uint64 `json:"wide_batches"`
	SubjectsStamped  uint64 `json:"subjects_stamped"`
}

// Handler builds the service's HTTP handler over the registry. Every
// route runs inside the middleware chain
//
//	recover → authz (write plane) → rate-limit → admission → handler
//
// and every failure path emits the uniform ErrorResponse envelope
// (WriteError), with Retry-After on 429/503.
//
//	GET    /v1/tenants                  -> {"tenants": [...]} (?live=1: only in-memory tenants)
//	POST   /v1/tenants                  -> register a tenant (authz; needs a Recoverer)
//	DELETE /v1/{tenant}                 -> deregister a tenant (authz)
//	POST   /v1/{tenant}/release        -> stop serving, keep durable state (authz; migration handoff)
//	POST   /v1/{tenant}/adopt          -> re-arm adoption after a release (authz; failover return)
//	GET    /v1/{tenant}/search?rel=&q=  -> SearchResponse (one OS per match)
//	GET    /v1/{tenant}/ranked?rel=&q=  -> SearchResponse (top-k by Im(S))
//	POST   /v1/{tenant}/tuples          -> MutateResponse (authz; atomic batch)
//	GET    /v1/{tenant}/stats           -> StatsResponse (never throttled)
//
// Common query parameters: l (summary size, default 15), setting, algo,
// k (ranked, default 10), limit (page size, 0 = all), cursor (opaque
// resume token; a mutation between pages turns the resume into 410 Gone),
// and budget_ms (latency budget for admission shedding; also accepted as
// the X-Sizelos-Budget-Ms header). Tenants may be
// registered and deregistered on a live registry; requests for unknown
// tenants — and for any path the API does not define — get a JSON 404.
func (r *Registry) Handler() http.Handler {
	authz := BearerAuth(r.adminToken)
	mux := http.NewServeMux()
	// Everything the explicit routes below don't claim is a JSON 404, never
	// an empty 200 or a text/plain fallback.
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		WriteError(w, NotFound("no such endpoint"))
	})
	mux.HandleFunc("GET /v1/tenants", func(w http.ResponseWriter, req *http.Request) {
		// ?live=1 restricts the listing to tenants materialized in THIS
		// process — what a fleet rebalance needs; the default includes
		// pending manifest entries, which in a shared-store fleet every
		// node lists identically.
		names := r.Names()
		if req.URL.Query().Get("live") == "1" {
			names = r.LiveNames()
		}
		if names == nil {
			names = []string{}
		}
		WriteJSON(w, http.StatusOK, map[string][]string{"tenants": names})
	})
	mux.Handle("POST /v1/tenants", chain(http.HandlerFunc(r.serveRegister), authz))
	mux.Handle("DELETE /v1/{tenant}", chain(http.HandlerFunc(r.serveDeregister), authz))
	mux.Handle("POST /v1/{tenant}/release", chain(http.HandlerFunc(r.serveRelease), authz))
	mux.Handle("POST /v1/{tenant}/adopt", chain(http.HandlerFunc(r.serveAdopt), authz))
	mux.Handle("POST /v1/{tenant}/tuples",
		chain(http.HandlerFunc(r.serveMutate), authz, r.qosMiddleware(classMutate)))
	mux.Handle("GET /v1/{tenant}/search",
		chain(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			r.serveQuery(w, req, false)
		}), r.qosMiddleware(classSearch)))
	mux.Handle("GET /v1/{tenant}/ranked",
		chain(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			r.serveQuery(w, req, true)
		}), r.qosMiddleware(classSearch)))
	// Stats stay readable while the tenant is throttled — observability of
	// an overloaded tenant is exactly when the endpoint matters.
	mux.HandleFunc("GET /v1/{tenant}/stats", r.serveStats)
	return chain(mux, recoverMiddleware())
}

func (r *Registry) serveStats(w http.ResponseWriter, req *http.Request) {
	t, ok := r.resolveTenant(w, req.PathValue("tenant"))
	if !ok {
		return
	}
	cs, enabled := t.Engine.SummaryCacheStats()
	resp := StatsResponse{
		Tenant:       t.Name,
		Version:      StatsVersion,
		CacheEnabled: enabled,
		Cache: searchexecCacheJSON{
			Hits: cs.Hits, Misses: cs.Misses, Len: cs.Len, Cap: cs.Cap,
			Rate: cs.HitRate(),
		},
		Pool: r.pool.Stats(),
		Invalidation: InvalidationStatsJSON{
			FootprintBatches: t.footprintBatches.Load(),
			WideBatches:      t.wideBatches.Load(),
			SubjectsStamped:  t.subjectsStamped.Load(),
		},
		Settings: t.Engine.SettingNames(),
	}
	if lim := r.limiterFor(t.Name); lim != nil {
		ls := lim.Stats()
		resp.QoS = &ls
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (r *Registry) serveDeregister(w http.ResponseWriter, req *http.Request) {
	name := req.PathValue("tenant")
	ok, err := r.Deregister(name)
	if !ok {
		WriteError(w, NotFound("unknown tenant"))
		return
	}
	if err != nil {
		// Removed from serving, but its durable state could not be
		// cleaned up — the operator needs to know; retrying the DELETE
		// can finish the durable removal.
		WriteError(w, errInternal(err.Error(), true))
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"deregistered": name})
}

// serveRelease stops serving a tenant on this node while leaving its
// durable state (manifest entry, WAL, snapshots) intact — the old-owner
// half of a migration handoff, driven by the routing tier: the router
// drains the tenant's traffic, POSTs the release here, then routes the
// tenant to its new owner, which adopts the durable state on first touch.
// Releasing a name this node is not serving is a 404 — including a
// tenant already migrated away, whose durable state now belongs to its
// new owner and must not be touched from here.
func (r *Registry) serveRelease(w http.ResponseWriter, req *http.Request) {
	name := req.PathValue("tenant")
	if !r.Release(name) {
		WriteError(w, NotFound("unknown tenant"))
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"released": name})
}

// serveAdopt clears a prior release handoff mark so this node may adopt
// the tenant again on its next touch — the router calls it when
// ownership returns here (the tenant's newer owner died, or a rebalance
// mapped the tenant back). Idempotent: adopting a name this node never
// released is a no-op 200, since the actual materialization stays lazy
// (first request, via the pending loader against the shared manifest).
func (r *Registry) serveAdopt(w http.ResponseWriter, req *http.Request) {
	name := req.PathValue("tenant")
	r.Readopt(name)
	WriteJSON(w, http.StatusOK, map[string]string{"adopted": name})
}

// resolveTenant materializes the tenant a request addresses, recovering it
// lazily when pending; on failure it writes the error response (404 for an
// unknown name, 500 for a tenant whose recovery failed) and returns false.
func (r *Registry) resolveTenant(w http.ResponseWriter, name string) (*Tenant, bool) {
	t, found, err := r.Resolve(name)
	if err != nil {
		// The tenant exists durably but could not be recovered; the next
		// touch retries recovery, so the failure is retryable.
		WriteError(w, errInternal(err.Error(), true))
		return nil, false
	}
	if !found {
		WriteError(w, NotFound("unknown tenant"))
		return nil, false
	}
	return t, true
}

// queryParams are the /search and /ranked URL parameters queryFromURL
// reads: each the first value of its name, and whether topk is present.
type queryParams struct {
	rel, q, setting, algo, cursor, k, l, limit string
	topk                                       bool
}

// queryNames are the names parseQueryParams reads, in its dst order.
var queryNames = []string{"rel", "q", "setting", "algo", "cursor", "k", "l", "limit", "topk"}

// parseQueryParams reads queryParams off a raw URL query in one pass, by
// url.ParseQuery's rules without its map: pairs split on '&', a pair that
// holds ';' or whose name or value is badly escaped is dropped, names and
// values are QueryUnescape'd ('+' is a space), and the first value of a
// name wins. FuzzQueryParams holds it to url.Values.
func parseQueryParams(raw string) queryParams {
	var p queryParams
	var topk string
	dst := [...]*string{&p.rel, &p.q, &p.setting, &p.algo, &p.cursor, &p.k, &p.l, &p.limit, &topk}
	var seen [len(dst)]bool
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		name, value, _ := strings.Cut(pair, "=")
		name, err := url.QueryUnescape(name)
		if i := slices.Index(queryNames, name); err == nil && i >= 0 && !seen[i] {
			if v, err := url.QueryUnescape(value); err == nil {
				*dst[i], seen[i] = v, true
			}
		}
	}
	p.topk = seen[len(dst)-1]
	return p
}

// queryFromURL lowers the /search and /ranked URL parameters onto the
// engine's QueryRequest — the one place the wire names (rel q l limit k
// cursor setting algo) and their defaults (l 15, /ranked's k 10) meet the
// request struct. What it cannot know without the engine (l >= 1, the
// algorithm and setting names) the engine validates itself
// (sizelos.ErrInvalidRequest, a 400 like the rejections here).
func queryFromURL(params queryParams, ranked bool) (sizelos.QueryRequest, error) {
	q := sizelos.QueryRequest{
		Rel:           params.rel,
		Query:         params.q,
		L:             15,
		Setting:       params.setting,
		Algorithm:     sizelos.Algorithm(params.algo),
		RankBySummary: ranked,
		Cursor:        params.cursor,
	}
	if ranked {
		q.K = 10
	}
	if q.Rel == "" || q.Query == "" {
		return q, BadRequest("rel and q parameters are required")
	}
	// topk was limit's legacy name. It is refused, never ignored like an
	// unknown parameter: an old client must not receive an unbounded page.
	if params.topk {
		return q, BadRequest("topk is no longer accepted: use limit")
	}
	// k belongs to /ranked; accepting it on /search would silently do
	// nothing, so reject it outright.
	if !ranked && params.k != "" {
		return q, BadRequest("k applies to /ranked only (use limit on /search)")
	}
	// A fixed order, so a request with several bad parameters names the
	// same one every time.
	for _, p := range []struct {
		name, raw string
		dst       *int
	}{{"l", params.l, &q.L}, {"k", params.k, &q.K}, {"limit", params.limit, &q.Limit}} {
		if p.raw == "" {
			continue
		}
		v, err := strconv.Atoi(p.raw)
		// An explicit k=0 is rejected like any other invalid k, rather than
		// silently coerced to the default.
		if err != nil || v < 0 || (p.name == "k" && v < 1) {
			return q, BadRequest("invalid %s parameter", p.name)
		}
		*p.dst = v
	}
	return q, nil
}

func (r *Registry) serveQuery(w http.ResponseWriter, req *http.Request, ranked bool) {
	t, ok := r.resolveTenant(w, req.PathValue("tenant"))
	if !ok {
		return
	}
	q, err := queryFromURL(parseQueryParams(req.URL.RawQuery), ranked)
	if err != nil {
		WriteError(w, err)
		return
	}
	// Client-input problems must surface as 400s, not 500s (or, for an
	// unknown relation, as the engine's empty answer): validate the one
	// name the engine would not reject as ErrInvalidRequest.
	if t.Engine.DB().Relation(q.Rel) == nil {
		WriteError(w, BadRequest("unknown relation %q", q.Rel))
		return
	}
	page, err := t.QueryPage(q)
	if err != nil {
		// toError sorts the cases: an invalid request or a cursor that
		// never came from this service is a 400, a cursor outlived by a
		// mutation is a 410 (the page it pointed into no longer exists;
		// restart the query).
		WriteError(w, err)
		return
	}
	writeSearch(w, SearchResponse{Tenant: t.Name, Relation: q.Rel, Query: q.Query, L: q.L,
		Count: len(page.Summaries), Cursor: page.Cursor}, page.Summaries)
}

var served = new([]byte) // marks a Wire whose summary one page has encoded

// writeSearch answers head with page as its results, byte for byte as
// json.Encoder writes the whole SearchResponse. A summary's first page
// marks its Wire served; the second, a cache hit, keeps the bytes there
// for later pages, so an entry evicted before that keeps none.
func writeSearch(w http.ResponseWriter, head SearchResponse, page []sizelos.Summary) {
	writeBody(w, http.StatusOK, func(buf *bytes.Buffer) error {
		enc := json.NewEncoder(buf)
		head.Results = []SummaryJSON{}
		_ = enc.Encode(head) // strings and ints always encode
		// A string escapes its quotes, so the first match is the field's.
		at := bytes.Index(buf.Bytes(), []byte(`"results":[`)) + len(`"results":[`)
		tail := append(make([]byte, 0, 64), buf.Bytes()[at:]...) // "]", the cursor if any, "}\n"
		buf.Truncate(at)
		var js *SummaryJSON // one per page, made at its first encoding
		for i := range page {
			s, start := &page[i], buf.Len()
			if p := s.Wire.Load(); p != nil && p != served {
				buf.Write(*p)
			} else {
				if js == nil {
					js = new(SummaryJSON)
				}
				*js = SummaryJSON{Relation: s.DSRel, Tuple: int(s.Tuple), Headline: s.Headline,
					Importance: s.Result.Importance, Tuples: len(s.Result.Nodes), Text: s.Text}
				if err := enc.Encode(js); err != nil {
					return err
				}
				buf.Truncate(buf.Len() - 1)
				kept := served
				if p != nil {
					b := bytes.Clone(buf.Bytes()[start:])
					kept = &b
				}
				s.Wire.CompareAndSwap(p, kept)
			}
			buf.WriteByte(',')
		}
		buf.Truncate(buf.Len() - min(len(page), 1)) // the last comma
		buf.Write(tail)
		return nil
	})
}

// RegisterRequest is the body of POST /v1/tenants.
type RegisterRequest struct {
	Name    string `json:"name"`
	Dataset string `json:"dataset"`
	// Seed overrides the deployment's generator seed (0 = default).
	Seed int64 `json:"seed"`
	// Cache is the tenant's summary-cache budget in entries (0 = the
	// deployment default, -1 and below = off).
	Cache int `json:"cache"`
}

// RegisterResponse confirms a dynamic registration.
type RegisterResponse struct {
	Tenant   string   `json:"tenant"`
	Dataset  string   `json:"dataset"`
	Settings []string `json:"settings"`
}

// serveRegister registers a live tenant through RegisterDynamic: the name
// is claimed in the lazy-recovery single-flight before the recoverer runs
// (a concurrent POST or first-touch recovery must never build the same
// tenant, or open the same WAL, twice), manifest-pending names are
// conflicts, and with a Durability installed the registration is recorded
// in the manifest before it is acknowledged. The engine build runs outside
// every lock, so existing tenants keep serving.
func (r *Registry) serveRegister(w http.ResponseWriter, req *http.Request) {
	if r.recoverer == nil {
		WriteError(w, &Error{Status: http.StatusNotImplemented, Code: CodeNotImplemented,
			Message: "dynamic tenant registration is not configured"})
		return
	}
	var body RegisterRequest
	if err := DecodeBody(w, req, &body, false); err != nil {
		WriteError(w, err)
		return
	}
	if body.Name == "" || body.Dataset == "" {
		WriteError(w, BadRequest("name and dataset are required"))
		return
	}
	if !validName(body.Name) {
		WriteError(w, BadRequest("invalid tenant name %q (want [A-Za-z0-9._-]+)", body.Name))
		return
	}
	t, err := r.RegisterDynamic(TenantSpec(body))
	if err != nil {
		// ErrTenantExists → 409 and ErrDurabilityFailed → 500 via
		// toError; anything else is a recoverer rejection (bad
		// dataset, unreadable state) the client caused.
		if !errors.Is(err, ErrTenantExists) && !errors.Is(err, ErrDurabilityFailed) {
			err = BadRequest("%v", err)
		}
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusCreated, RegisterResponse{
		Tenant:   t.Name,
		Dataset:  body.Dataset,
		Settings: t.Engine.SettingNames(),
	})
}

// InsertJSON is one tuple insertion in a MutateRequest: values in schema
// order, JSON numbers for INTEGER/FLOAT columns and strings for VARCHAR.
type InsertJSON struct {
	Rel    string `json:"rel"`
	Values []any  `json:"values"`
}

// DeleteJSON names one tuple to delete by primary key.
type DeleteJSON struct {
	Rel string `json:"rel"`
	PK  int64  `json:"pk"`
}

// MutateRequest is the body of POST /v1/{tenant}/tuples: one atomic batch,
// deletes applied before inserts.
type MutateRequest struct {
	Deletes []DeleteJSON `json:"deletes"`
	Inserts []InsertJSON `json:"inserts"`
	Rerank  bool         `json:"rerank"`
}

// MutateResponse reports an applied batch.
type MutateResponse struct {
	Tenant string `json:"tenant"`
	// Inserted holds the tuple ids assigned to the batch's inserts, in
	// request order.
	Inserted []int `json:"inserted"`
	// Versions and Epochs snapshot the touched relations' post-batch
	// mutation counters and cache epochs.
	Versions map[string]uint64 `json:"versions"`
	Epochs   map[string]uint64 `json:"epochs"`
	Reranked bool              `json:"reranked"`
	// RerankStats reports, per setting, which re-rank path served a
	// Reranked batch and what it cost. Omitted when the batch did not
	// re-rank.
	RerankStats map[string]RerankStatJSON `json:"rerank_stats,omitempty"`
}

// RerankStatJSON is one setting's re-rank telemetry in a MutateResponse.
type RerankStatJSON struct {
	// Residual reports the push was seeded from captured rows (false: from
	// an exact sweep); Fallback that the push abandoned the repair (seed mass
	// or budget) and the warm full iteration produced the scores.
	Residual bool `json:"residual"`
	Fallback bool `json:"fallback,omitempty"`
	// Pushes and Rounds describe the residual push that ran: Rounds counts
	// its queue generations (the seeds, the nodes they queued, and so on).
	Pushes int `json:"pushes,omitempty"`
	Rounds int `json:"rounds,omitempty"`
	// Iterations counts full power-iteration sweeps (fallback or warm
	// path); Updates is the path-independent node-score update total.
	Iterations int `json:"iterations,omitempty"`
	Updates    int `json:"updates"`
}

// MaxBodyBytes caps every request body a node or the router decodes
// (mutation batches, tenant registrations, router admin bodies). The
// largest body any test or benchmark client sends is 250 bytes; 1 MiB
// holds a batch of some ten thousand tuples.
const MaxBodyBytes = 1 << 20

// DecodeBody decodes the request's JSON body into v: exactly one value, then
// only whitespace — a second batch, or with knownFields a misspelt key's
// tuples, would be acknowledged and never applied. A body over MaxBodyBytes
// fails with *http.MaxBytesError (a 413), any other malformed body with a 400.
func DecodeBody(w http.ResponseWriter, req *http.Request, v any, knownFields bool) error {
	err := decodeOne(http.MaxBytesReader(w, req.Body, MaxBodyBytes), v, knownFields)
	var tooLarge *http.MaxBytesError
	if err != nil && !errors.As(err, &tooLarge) {
		err = BadRequest("invalid JSON body: %v", err)
	}
	return err
}

// decodeOne decodes exactly one JSON value from rd into v and requires
// nothing but whitespace after it; with knownFields an unknown key fails.
// Request bodies and the config file share it.
func decodeOne(rd io.Reader, v any, knownFields bool) error {
	dec := json.NewDecoder(rd)
	dec.UseNumber() // keep 64-bit keys exact; float64 round-trips corrupt them
	if knownFields {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("data after the JSON value")
		}
		return err
	}
	return nil
}

// serveMutate decodes and applies one mutation batch against the tenant's
// engine. Malformed requests are 400s; batches the store rejects (duplicate
// or dangling keys, deletes of referenced tuples) are 409s and leave the
// tenant untouched. A post-commit internal failure (ErrMutationInternal: a
// rebuild, re-rank or WAL append failed) is a 500: that batch DID apply, so
// clients must not retry it, and after a failed append every later batch
// gets the same 500 unapplied until the node restarts.
func (r *Registry) serveMutate(w http.ResponseWriter, req *http.Request) {
	t, ok := r.resolveTenant(w, req.PathValue("tenant"))
	if !ok {
		return
	}
	var body MutateRequest
	if err := DecodeBody(w, req, &body, true); err != nil {
		WriteError(w, err)
		return
	}
	// A bare {"rerank": true} is a supported batch: recompute global
	// importance over the current data without touching any tuple.
	if len(body.Deletes) == 0 && len(body.Inserts) == 0 && !body.Rerank {
		WriteError(w, BadRequest("empty batch: provide inserts, deletes, and/or rerank"))
		return
	}
	batch := sizelos.MutationBatch{Rerank: body.Rerank}
	db := t.Engine.DB()
	for i, d := range body.Deletes {
		// Naming a relation that doesn't exist is a malformed request (400,
		// like the insert side), not a store conflict.
		if db.Relation(d.Rel) == nil {
			WriteError(w, BadRequest("delete %d: unknown relation %q", i, d.Rel))
			return
		}
		batch.Deletes = append(batch.Deletes, sizelos.TupleDelete{Rel: d.Rel, PK: d.PK})
	}
	for i, in := range body.Inserts {
		tuple, err := tupleFromJSON(db, in.Rel, in.Values)
		if err != nil {
			WriteError(w, BadRequest("insert %d: %v", i, err))
			return
		}
		batch.Inserts = append(batch.Inserts, sizelos.TupleInsert{Rel: in.Rel, Tuple: tuple})
	}
	res, err := t.Mutate(batch)
	if err != nil {
		// ErrMutationInternal → 500 via toAPIError; everything else the
		// store rejects is a conflict that left the tenant untouched.
		if !errors.Is(err, sizelos.ErrMutationInternal) {
			err = Conflict(err.Error())
		}
		WriteError(w, err)
		return
	}
	resp := MutateResponse{
		Tenant:   t.Name,
		Inserted: make([]int, 0, len(res.Inserted)),
		Versions: res.Versions,
		Epochs:   res.Epochs,
		Reranked: res.Reranked,
	}
	for _, id := range res.Inserted {
		resp.Inserted = append(resp.Inserted, int(id))
	}
	if len(res.RerankStats) > 0 {
		resp.RerankStats = make(map[string]RerankStatJSON, len(res.RerankStats))
		for name, st := range res.RerankStats {
			resp.RerankStats[name] = RerankStatJSON{
				Residual:   st.Residual,
				Fallback:   st.FallbackTaken,
				Pushes:     st.Pushes,
				Rounds:     st.Rounds,
				Iterations: st.Iterations,
				Updates:    st.Updates,
			}
		}
	}
	WriteJSON(w, http.StatusOK, resp)
}

// tupleFromJSON converts a JSON values array into a typed tuple under the
// relation's schema: json.Number -> INTEGER/FLOAT (integers checked
// exactly), string -> VARCHAR.
func tupleFromJSON(db *relational.DB, rel string, values []any) (relational.Tuple, error) {
	r := db.Relation(rel)
	if r == nil {
		return nil, fmt.Errorf("unknown relation %q", rel)
	}
	if len(values) != len(r.Columns) {
		return nil, fmt.Errorf("relation %s wants %d values, got %d", rel, len(r.Columns), len(values))
	}
	tuple := make(relational.Tuple, len(values))
	for i, v := range values {
		col := r.Columns[i]
		switch col.Kind {
		case relational.KindInt:
			num, ok := v.(json.Number)
			if !ok {
				return nil, fmt.Errorf("column %s wants an integer, got %T", col.Name, v)
			}
			n, err := num.Int64()
			if err != nil {
				return nil, fmt.Errorf("column %s wants an integer, got %v", col.Name, num)
			}
			tuple[i] = relational.IntVal(n)
		case relational.KindFloat:
			num, ok := v.(json.Number)
			if !ok {
				return nil, fmt.Errorf("column %s wants a number, got %T", col.Name, v)
			}
			f, err := num.Float64()
			if err != nil {
				return nil, fmt.Errorf("column %s wants a number, got %v", col.Name, num)
			}
			tuple[i] = relational.FloatVal(f)
		case relational.KindString:
			s, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("column %s wants a string, got %T", col.Name, v)
			}
			tuple[i] = relational.StrVal(s)
		default:
			return nil, fmt.Errorf("column %s has unsupported kind %v", col.Name, col.Kind)
		}
	}
	return tuple, nil
}
