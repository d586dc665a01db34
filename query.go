package sizelos

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"

	"sizelos/internal/keyword"
	"sizelos/internal/relational"
	"sizelos/internal/searchexec"
)

// This file is the engine's query surface: one request struct, one lazy
// entry point (Query) plus its one-page drain (QueryPage), and a Results
// stream that pipelines candidate matching -> summary computation
// (cache-first, pool-bounded) -> size-l rendering, paying only for the
// prefix the caller consumes.

// ErrStreamInvalidated reports that a mutation landed inside the query's
// dependency set between pages (or between batch fills of one open
// Results): the pre-mutation stream position is meaningless against the
// post-mutation state, so the engine refuses to serve a torn view. Re-issue
// the query without a cursor to start over. HTTP maps it to 410 Gone.
var ErrStreamInvalidated = errors.New("sizelos: stream invalidated by mutation")

// ErrCursorMalformed reports a cursor that never came from this engine
// (truncated, corrupted, or hand-built). HTTP maps it to 400 Bad Request.
var ErrCursorMalformed = errors.New("sizelos: malformed cursor")

// ErrInvalidRequest reports a QueryRequest no database state could serve:
// L < 1, an unknown Algorithm, a negative Limit or K. It is raised before
// any match is looked at, so the verdict never depends on whether the
// keywords hit. HTTP maps it to 400 Bad Request.
var ErrInvalidRequest = errors.New("sizelos: invalid query request")

// QueryRequest is the one request currency from the HTTP handler to the
// summary cache. The zero value of every optional field means "default":
// Setting DefaultSetting, Algorithm AlgoTopPath, Limit 0 = no page bound,
// K 0 = no rank cutoff.
type QueryRequest struct {
	// Rel is the Data Subject relation the keywords are matched against.
	Rel string
	// Query is the keyword string (logical AND over its tokens).
	Query string
	// L is the summary size budget l.
	L int

	// Setting selects the ranking configuration (default DefaultSetting).
	Setting string
	// Algorithm selects the size-l method (default AlgoTopPath, the
	// paper's quality recommendation).
	Algorithm Algorithm

	// RankBySummary re-ranks candidates by the importance Im(S) of their
	// size-l OS instead of serving them in DS global-importance order — the
	// combined size-l and top-k ranking the paper leaves as future work
	// (§7): a DS whose neighborhood is important outranks a well-connected
	// but shallow one. It must materialize every summary before the first
	// result, so it cannot terminate early.
	RankBySummary bool
	// K, with RankBySummary, caps the ranking to the best K summaries
	// (0 = rank everything). It bounds the result set, not the page: use
	// Limit/Cursor to page through the K.
	K int

	// Limit bounds how many summaries this request produces (0 = all).
	// Unconsumed matches stay uncomputed — the whole point of the
	// streaming surface — and Cursor() resumes after the served prefix.
	Limit int
	// Cursor resumes a previous request after its last served summary.
	// It must come from Results.Cursor (or the HTTP response) of a request
	// with identical parameters; a mutation in between invalidates it
	// (ErrStreamInvalidated).
	Cursor string

	// Complete computes from the complete OS instead of the prelim-l OS.
	// The paper recommends prelim-l ("constantly a better choice", §6.3),
	// so the default is prelim.
	Complete bool
	// FromDatabase extracts tuples with database joins instead of the
	// in-memory data graph (Fig. 10f compares the two).
	FromDatabase bool
	// ShowWeights annotates rendered summaries with local importance.
	ShowWeights bool

	// Parallel bounds the worker pool summarizing one batch of matches:
	// 0 sizes it by GOMAXPROCS, 1 forces serial. Output order and content
	// are identical at every setting.
	Parallel int
	// Pool, when non-nil, additionally bounds this request's summary work by
	// a concurrency budget shared with other callers — the multi-tenant
	// service hands every tenant the same pool so one machine-wide cap
	// governs total in-flight work. nil imposes no shared limit.
	Pool *searchexec.Pool
	// CacheScope namespaces this request's summary-cache entries.
	// Deployments that serve several tenants from one engine set it to the
	// tenant name so per-tenant invalidation or quotas never bleed across
	// tenants; the empty scope is the single-tenant default.
	CacheScope string
}

// resolve fills the defaulted fields and rejects what no database state
// could serve, so everything downstream — the summary-cache key, the
// cursor fingerprint, the size-l dispatch — reads one canonical request.
func (req QueryRequest) resolve() (QueryRequest, error) {
	if req.Setting == "" {
		req.Setting = DefaultSetting
	}
	switch req.Algorithm {
	case "":
		req.Algorithm = AlgoTopPath
	case AlgoDP, AlgoBottomUp, AlgoTopPath:
	default:
		return req, fmt.Errorf("%w: unknown algorithm %q", ErrInvalidRequest, req.Algorithm)
	}
	switch {
	case req.L < 1:
		return req, fmt.Errorf("%w: l must be >= 1, got %d", ErrInvalidRequest, req.L)
	case req.Limit < 0:
		return req, fmt.Errorf("%w: negative limit %d", ErrInvalidRequest, req.Limit)
	case req.K < 0:
		return req, fmt.Errorf("%w: negative k %d", ErrInvalidRequest, req.K)
	}
	return req, nil
}

// Fingerprint hashes every request parameter that shapes the result
// sequence (not the paging: Limit, Cursor, Parallel and Pool change how the
// sequence is consumed, never what it contains), with defaults resolved so
// an omitted and an explicit default agree. A cursor binds to this value so
// it can only resume the query that minted it, and request-coalescing
// layers key on it.
func (req QueryRequest) Fingerprint() uint64 {
	req, _ = req.resolve() // an invalid request still hashes; it never runs
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%s\x00%s\x00%t\x00%d\x00%t\x00%t\x00%t\x00%s",
		req.Rel, req.Query, req.L, req.Setting, req.Algorithm,
		req.RankBySummary, req.K,
		req.Complete, req.FromDatabase, req.ShowWeights, req.CacheScope)
	return h.Sum64()
}

// cursorWire is the decoded opaque cursor: which query it belongs to, the
// engine state it was minted against, and how many keyword matches the
// served prefix consumed (including tombstoned matches that were skipped,
// so a resume replays to exactly the same stream position).
type cursorWire struct {
	Fingerprint uint64
	Epoch       uint64
	Consumed    uint64
}

const cursorWireLen = 24

func encodeCursor(w cursorWire) string {
	var b [cursorWireLen]byte
	binary.BigEndian.PutUint64(b[0:8], w.Fingerprint)
	binary.BigEndian.PutUint64(b[8:16], w.Epoch)
	binary.BigEndian.PutUint64(b[16:24], w.Consumed)
	return base64.RawURLEncoding.EncodeToString(b[:])
}

func decodeCursor(s string) (cursorWire, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil || len(raw) != cursorWireLen {
		return cursorWire{}, fmt.Errorf("%w: %q", ErrCursorMalformed, s)
	}
	return cursorWire{
		Fingerprint: binary.BigEndian.Uint64(raw[0:8]),
		Epoch:       binary.BigEndian.Uint64(raw[8:16]),
		Consumed:    binary.BigEndian.Uint64(raw[16:24]),
	}, nil
}

// QueryStats counts what one Results actually did — the observable proof of
// early termination: a limit-10 query over thousands of matches reports
// Summaries == 10.
type QueryStats struct {
	// Matches is the total keyword-match count of the query (what a full
	// drain would have to summarize).
	Matches int
	// Summaries is how many size-l summaries this Results produced
	// (computed or served from cache).
	Summaries int
	// Skipped counts matches dropped because their DS tuple was tombstoned
	// between indexing and serving; the stream backfills from the next
	// rank instead of failing the query.
	Skipped int
}

// Results is a lazy stream of size-l summaries in serving order. Pull with
// Next (or Drain); only the consumed prefix is ever summarized. A Results
// is single-goroutine; it holds no background workers, so abandoning one
// leaks nothing. Between batch fills the engine may mutate — the next fill
// then fails with ErrStreamInvalidated rather than serving a torn view.
type Results struct {
	eng *Engine
	// req is the resolved request the stream serves.
	req QueryRequest
	// epoch is the dependency-set epoch the stream bound to at open.
	epoch uint64
	// stream yields keyword matches best-first; nil once Closed.
	stream keyword.MatchStream

	// holdLock marks a Results opened and drained entirely under the
	// engine read lock the caller already holds (QueryPage); fills must not
	// re-acquire it.
	holdLock bool

	// buf holds the current summarized batch — under RankBySummary the
	// whole sorted, K-truncated ranking past the resume point —
	// bufConsumed[i] the cursor position after serving buf[i] (the
	// cumulative match-pop count through it; ranked: its rank), bufPos the
	// serve offset.
	buf         []Summary
	bufConsumed []int
	bufPos      int
	// popped counts stream pops since the original query start (resume
	// included), served the cursor position of the last served summary —
	// at open, the resume cursor's.
	popped int
	served int

	emitted   int
	exhausted bool
	done      bool
	err       error
	stats     QueryStats
}

// Query opens a lazy summary stream for req: one size-l OS per Data Subject
// matching the keywords — the paper's end-to-end paradigm (Q1 "Faloutsos",
// l=15 → Example 5). The keyword frontier is built under the engine read
// lock (one consistent state); each subsequent batch fill re-acquires it
// and verifies no mutation has landed in the query's dependency set — if
// one has, the stream fails with ErrStreamInvalidated instead of mixing
// pre- and post-mutation state.
func (e *Engine) Query(req QueryRequest) (*Results, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.queryLocked(req, false)
}

// QueryPage opens req and drains it to its Limit under one engine read
// lock, returning the page, the resume cursor ("" when the query is fully
// served) and the stats. This is the HTTP serving shape: a page is always
// internally consistent, and only a cursor resume can observe
// ErrStreamInvalidated.
func (e *Engine) QueryPage(req QueryRequest) ([]Summary, string, QueryStats, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	r, err := e.queryLocked(req, true)
	if err != nil {
		return nil, "", QueryStats{}, err
	}
	page, err := r.Drain()
	if err != nil {
		return nil, "", QueryStats{}, err
	}
	cursor, _ := r.Cursor()
	return page, cursor, r.Stats(), nil
}

// queryLocked validates req and binds a Results to the current engine
// state. Callers hold at least the read lock.
func (e *Engine) queryLocked(req QueryRequest, holdLock bool) (*Results, error) {
	req, err := req.resolve()
	if err != nil {
		return nil, err
	}
	sc, err := e.scoresLocked(req.Setting)
	if err != nil {
		return nil, err
	}
	epoch := e.epochForLocked(req.Rel)
	var resume cursorWire
	if req.Cursor != "" {
		resume, err = decodeCursor(req.Cursor)
		if err != nil {
			return nil, err
		}
		if resume.Fingerprint != req.Fingerprint() {
			return nil, fmt.Errorf("%w: cursor belongs to a different query", ErrStreamInvalidated)
		}
		if resume.Epoch != epoch {
			return nil, fmt.Errorf("%w: engine state changed since the cursor was issued", ErrStreamInvalidated)
		}
	}
	r := &Results{
		eng:      e,
		req:      req,
		epoch:    epoch,
		stream:   e.index.SearchStream(req.Rel, req.Query, sc),
		holdLock: holdLock,
	}
	r.stats.Matches = r.stream.Remaining()
	if req.Cursor != "" {
		n := int(resume.Consumed)
		if !r.req.RankBySummary {
			// Replay to the cursor position: the epoch matched, so the
			// stream emits the identical sequence and skipping n pops
			// lands exactly after the last served summary.
			for i := 0; i < n; i++ {
				if _, ok := r.stream.Next(); !ok {
					break
				}
			}
			r.popped = n
		}
		r.served = n
	}
	return r, nil
}

// Next serves the next summary; ok is false once the stream is exhausted,
// the Limit is reached, or an error occurred (check Err). Summaries arrive
// in descending DS global importance (or descending Im(S) under
// RankBySummary) and are computed at most one batch ahead of consumption.
func (r *Results) Next() (Summary, bool) {
	if r.err != nil || r.done {
		return Summary{}, false
	}
	if r.req.Limit > 0 && r.emitted >= r.req.Limit {
		r.done = true
		return Summary{}, false
	}
	for r.bufPos >= len(r.buf) {
		if r.exhausted {
			r.done = true
			return Summary{}, false
		}
		if err := r.fill(); err != nil {
			r.err = err
			return Summary{}, false
		}
	}
	s := r.buf[r.bufPos]
	r.served = r.bufConsumed[r.bufPos]
	r.bufPos++
	r.emitted++
	return s, true
}

// fill summarizes the next batch under the engine read lock (unless the
// caller already holds it), first checking that no mutation invalidated
// the stream.
func (r *Results) fill() error {
	if !r.holdLock {
		r.eng.mu.RLock()
		defer r.eng.mu.RUnlock()
		if r.eng.epochForLocked(r.req.Rel) != r.epoch {
			return ErrStreamInvalidated
		}
	}
	return r.fillLocked()
}

// popLive pops matches off the frontier until max are live (max <= 0: the
// whole frontier). Tombstoned subjects are skipped and backfilled from the
// next rank; a match pointing outside the relation fails the query.
// consumedAt[i] is the cumulative pop count through matches[i].
func (r *Results) popLive(max int) (matches []keyword.Match, consumedAt []int, err error) {
	n := r.stream.Remaining()
	if max > 0 && max < n {
		n = max
	}
	matches, consumedAt = make([]keyword.Match, 0, n), make([]int, 0, n)
	for max <= 0 || len(matches) < max {
		m, ok := r.stream.Next()
		if !ok {
			r.exhausted = true
			break
		}
		r.popped++
		skip, err := r.eng.classifySubject(r.req.Rel, m.Tuple)
		if err != nil {
			return nil, nil, err
		}
		if skip {
			r.stats.Skipped++
			continue
		}
		matches = append(matches, m)
		consumedAt = append(consumedAt, r.popped)
	}
	return matches, consumedAt, nil
}

// fillLocked summarizes the next batch of live matches across the worker
// pool. Batches are sized to the parallel width and capped by the remaining
// Limit, so a limit-k query never summarizes meaningfully more than k
// candidates no matter how many match. Under RankBySummary the one batch is
// the whole frontier: ranking by summary importance requires every
// candidate's summary up front — early termination structurally cannot
// apply — but paging through the ranking stays cursor-resumable.
func (r *Results) fillLocked() error {
	batch := 0
	if !r.req.RankBySummary {
		batch = r.req.Parallel
		if batch <= 0 {
			batch = runtime.GOMAXPROCS(0)
		}
		if r.req.Limit > 0 {
			if rem := r.req.Limit - r.emitted; rem < batch {
				batch = rem
			}
		}
		if batch < 1 {
			batch = 1
		}
	}
	matches, consumedAt, err := r.popLive(batch)
	if err != nil {
		return err
	}
	sums, err := r.eng.summarizeSliceLocked(r.req, matches)
	if err != nil {
		return err
	}
	r.stats.Summaries += len(sums)
	if r.req.RankBySummary {
		sort.SliceStable(sums, func(a, b int) bool {
			if sums[a].Result.Importance != sums[b].Result.Importance {
				return sums[a].Result.Importance > sums[b].Result.Importance
			}
			return sums[a].Tuple < sums[b].Tuple
		})
		if r.req.K > 0 && len(sums) > r.req.K {
			sums = sums[:r.req.K]
		}
		// A ranked cursor counts served ranks, not frontier pops: rank i
		// sits at cursor position i+1, and a resume skips the served ones
		// (nothing is served before this one fill, so served is still the
		// resume position).
		for i := range sums {
			consumedAt[i] = i + 1
		}
		start := min(r.served, len(sums))
		sums, consumedAt = sums[start:], consumedAt[start:len(sums)]
	}
	r.buf, r.bufConsumed, r.bufPos = sums, consumedAt, 0
	return nil
}

// Drain consumes the stream to its Limit (or exhaustion) and returns every
// summary. The slice is non-nil even when empty.
func (r *Results) Drain() ([]Summary, error) {
	out := make([]Summary, 0, r.drainCap())
	for {
		s, ok := r.Next()
		if !ok {
			break
		}
		out = append(out, s)
	}
	if r.err != nil {
		return nil, r.err
	}
	return out, nil
}

// drainCap estimates how many summaries a full drain will produce.
func (r *Results) drainCap() int {
	n := r.stats.Matches
	if r.req.Limit > 0 && r.req.Limit < n {
		n = r.req.Limit
	}
	if r.req.RankBySummary && r.req.K > 0 && r.req.K < n {
		n = r.req.K
	}
	return n
}

// Err returns the error that stopped the stream, if any. Exhaustion and
// reaching the Limit are not errors.
func (r *Results) Err() error { return r.err }

// Stats reports what the stream has done so far. Summaries < Matches on a
// limited query is the early-termination guarantee made observable.
func (r *Results) Stats() QueryStats { return r.stats }

// Cursor returns the opaque resume token for the served prefix; ok is
// false when the query is fully served (nothing left to resume) or the
// stream failed. Pass the token as QueryRequest.Cursor — with otherwise
// identical parameters — to continue; if a mutation has landed in the
// meantime the resume fails with ErrStreamInvalidated.
func (r *Results) Cursor() (cursor string, ok bool) {
	if r.err != nil || r.stream == nil {
		return "", false
	}
	if r.bufPos >= len(r.buf) && r.stream.Remaining() == 0 {
		return "", false
	}
	return encodeCursor(cursorWire{
		Fingerprint: r.req.Fingerprint(),
		Epoch:       r.epoch,
		Consumed:    uint64(r.served),
	}), true
}

// Close releases the stream's buffered state. Optional — a Results holds
// no goroutines, locks or finalizable resources — but dropping the
// references early helps when a large page is abandoned mid-iteration.
func (r *Results) Close() {
	r.done = true
	r.stream = nil
	r.buf, r.bufConsumed = nil, nil
}

// classifySubject checks DS coordinates before any summary work: serve it
// (false, nil), a tombstone (true, nil) — which a stream skips and
// backfills and SizeL rejects — or coordinates that cannot have come from
// this engine's index (false, err).
func (e *Engine) classifySubject(dsRel string, tuple relational.TupleID) (skip bool, err error) {
	r := e.db.Relation(dsRel)
	if r == nil {
		return false, fmt.Errorf("sizelos: unknown relation %q", dsRel)
	}
	if tuple < 0 || int(tuple) >= r.Len() {
		return false, fmt.Errorf("sizelos: tuple %d out of range for %s (%d tuples)", tuple, dsRel, r.Len())
	}
	if r.Deleted(tuple) {
		return true, nil
	}
	return false, nil
}
