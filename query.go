package sizelos

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
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
// L < 1, an unknown Algorithm, a negative Limit or K, a Rel that is a
// relation without a registered G_DS. It is raised before any match is
// looked at, so the verdict never depends on whether the keywords hit. HTTP
// maps it to 400 Bad Request.
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
	// but shallow one. The answer is exactly the full scan's, but with K set
	// the scan stops early: the sum of a subject's l largest local
	// importances bounds its Im(S) from above, so once K summaries are
	// scored, every candidate whose bound is under the K-th best is sealed
	// without a selection, and only the served page is rendered.
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
	// (computed or served from cache) — under RankBySummary every candidate
	// it scored, whether or not it made the page.
	Summaries int
	// Sealed counts the RankBySummary candidates excluded by their Im(S)
	// upper bound with no selection computed: on a drained ranked query
	// Matches == Summaries + Sealed + Skipped.
	Sealed int
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
	// whole sorted, K-truncated ranking past the resume point, rendered only
	// as far as Limit lets Next serve it — bufConsumed[i] the cursor
	// position after serving buf[i] (the cumulative match-pop count through
	// it; ranked: its rank), bufPos the serve offset.
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
	// An unknown relation matches nothing and answers empty; a known one
	// without a G_DS could only fail at its first match.
	if _, ok := e.gds[req.Rel]; !ok && e.db.Relation(req.Rel) != nil {
		return nil, fmt.Errorf("%w: no G_DS registered for %s", ErrInvalidRequest, req.Rel)
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
		// A minted cursor never counts past the answer it pages through;
		// one that does was forged, and its position must not reach a pop
		// or a slice bound.
		end := r.stats.Matches
		if req.RankBySummary && req.K > 0 && req.K < end {
			end = req.K
		}
		if resume.Consumed > uint64(end) {
			return nil, fmt.Errorf("%w: position %d past the query's %d results", ErrCursorMalformed, resume.Consumed, end)
		}
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
// candidates no matter how many match. RankBySummary fills once, through
// rankLocked.
func (r *Results) fillLocked() error {
	if r.req.RankBySummary {
		return r.rankLocked()
	}
	batch := r.req.Parallel
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
	matches, consumedAt, err := r.popLive(batch)
	if err != nil {
		return err
	}
	// Each summary lands in its match's slot, so the output order does not
	// depend on scheduling.
	sums := make([]Summary, len(matches))
	err = searchexec.ForEach(len(matches), r.req.Parallel, func(i int) error {
		sc, err := r.eng.summaryLocked(r.req, matches[i].Tuple, math.Inf(-1), true)
		sums[i] = sc.sum
		return err
	})
	if err != nil {
		return err
	}
	r.stats.Summaries += len(sums)
	r.buf, r.bufConsumed, r.bufPos = sums, consumedAt, 0
	return nil
}

// rankRound is how many candidates the ranked loop evaluates between two
// looks at the threshold: enough to keep the workers busy, few enough that
// little is evaluated past the point where the rest seals; fixed, so that
// QueryStats and the bounds a query leaves behind do not depend on Parallel.
const rankRound = 16

// boundSlack covers how a bound and the Im(S) it bounds disagree in floating
// point: the bound sums weights in descending order, ImportanceOf by node.
const boundSlack = 1e-9

// sealedBy reports whether a subject whose Im(S) is at most bound cannot
// reach the threshold tau. Strict, so a candidate that could tie the K-th
// best is always evaluated (the lower tuple wins a tie).
func sealedBy(bound, tau float64) bool { return bound*(1+boundSlack) < tau }

// candidate is one live match of a ranked query with the upper bound on its
// Im(S) the engine remembers, +Inf when it remembers none.
type candidate struct {
	tuple relational.TupleID
	bound float64
}

// rankLocked is the ranked fill, a threshold loop over the whole frontier:
// candidates are ordered by remembered bound and evaluated in rounds; after
// each round tau is Im(S) of the K-th best so far (K == 0: -Inf, nothing
// seals), a candidate whose bound is under tau is never selected, and the
// loop stops at the first remembered bound under tau — every later one is
// smaller. A sealed candidate's Im(S) is strictly under K summaries already
// scored, so the ranking equals the full scan's at every K, in any order of
// evaluation. Only the page Next can serve is rendered, and none of it is
// cached (EnableSummaryCache says why).
func (r *Results) rankLocked() error {
	e, req := r.eng, r.req
	matches, _, err := r.popLive(0)
	if err != nil {
		return err
	}
	cands := e.candidatesLocked(req, matches)
	var best []Summary
	tau := math.Inf(-1)
	for {
		n := 0
		for n < len(cands) && n < rankRound && !sealedBy(cands[n].bound, tau) {
			n++
		}
		if n == 0 {
			break
		}
		round, out := cands[:n], make([]scored, n)
		cands = cands[n:]
		err := searchexec.ForEach(n, req.Parallel, func(i int) (err error) {
			out[i], err = e.summaryLocked(req, round[i].tuple, tau, false)
			return err
		})
		if err != nil {
			return err
		}
		e.rememberLocked(req, round, out)
		for _, s := range out {
			if s.sealed {
				r.stats.Sealed++
				continue
			}
			r.stats.Summaries++
			best = append(best, s.sum)
		}
		if req.K > 0 && len(best) >= req.K {
			sortRanking(best)
			best = best[:req.K]
			tau = best[req.K-1].Result.Importance
		}
	}
	r.stats.Sealed += len(cands)
	sortRanking(best)

	// A ranked cursor counts served ranks, not frontier pops: rank i sits at
	// cursor position i+1, and a resume skips the served ones (nothing is
	// served before this one fill, so served is still the resume position).
	start := min(r.served, len(best))
	best = best[start:]
	consumedAt := make([]int, len(best))
	for i := range consumedAt {
		consumedAt[i] = start + i + 1
	}
	r.buf, r.bufConsumed, r.bufPos = best, consumedAt, 0

	page := best
	if rem := req.Limit - r.emitted; req.Limit > 0 && rem < len(page) {
		page = page[:rem]
	}
	return searchexec.ForEach(len(page), req.Parallel, func(i int) error {
		if page[i].Text == "" { // scored this query, not served by the cache
			req.Pool.Do(func() { e.materialize(req, &page[i]) })
		}
		return nil
	})
}

// sortRanking orders summaries by Im(S) descending, ties by tuple ascending.
func sortRanking(sums []Summary) {
	sort.Slice(sums, func(a, b int) bool {
		if sums[a].Result.Importance != sums[b].Result.Importance {
			return sums[a].Result.Importance > sums[b].Result.Importance
		}
		return sums[a].Tuple < sums[b].Tuple
	})
}

// boundKey names one bound table.
type boundKey struct{ rel, setting string }

// boundTable remembers what ranked queries learned about the subjects of
// one (DS relation, setting): per subject, the prefix sums of its largest
// local importances at the largest l evaluated so far. sums[i-1] bounds
// Im(S) of every size-i OS of the subject from above for each i <= l: the OS
// generated for a smaller l is the same OS cut at a smaller depth
// (Definition 2), so its largest weights are no larger. It is filled as a
// by-product of evaluations a ranked query runs anyway, bound to the
// dependency-set epoch they ran under and replaced when that has moved
// (mutation, re-rank, compaction); RegisterGDS drops every table.
type boundTable struct {
	epoch    uint64
	profiles map[relational.TupleID]profile
}

type profile struct {
	l    int
	sums []float64
}

// boundTableLocked returns req's bound table for the current epoch. Callers
// hold boundsMu and at least the read lock.
func (e *Engine) boundTableLocked(req QueryRequest) *boundTable {
	key, epoch := boundKey{req.Rel, req.Setting}, e.epochForLocked(req.Rel)
	t := e.bounds[key]
	if t == nil || t.epoch != epoch {
		if e.bounds == nil {
			e.bounds = make(map[boundKey]*boundTable)
		}
		t = &boundTable{epoch: epoch, profiles: make(map[relational.TupleID]profile)}
		e.bounds[key] = t
	}
	return t
}

// candidatesLocked orders the live matches for the ranked loop: remembered
// bound at req.L descending, subjects with no profile reaching req.L first
// (unbounded) in stream order. Callers hold at least the read lock.
func (e *Engine) candidatesLocked(req QueryRequest, matches []keyword.Match) []candidate {
	cands := make([]candidate, len(matches))
	e.boundsMu.Lock()
	t := e.boundTableLocked(req)
	for i, m := range matches {
		cands[i] = candidate{m.Tuple, math.Inf(1)}
		if p, ok := t.profiles[m.Tuple]; ok && p.l >= req.L {
			cands[i].bound = p.sums[min(req.L, len(p.sums))-1]
		}
	}
	e.boundsMu.Unlock()
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].bound > cands[b].bound })
	return cands
}

// rememberLocked records the profiles a round learned; of two profiles of
// one subject the one for the larger l stays. Callers hold at least the
// read lock.
func (e *Engine) rememberLocked(req QueryRequest, round []candidate, out []scored) {
	e.boundsMu.Lock()
	defer e.boundsMu.Unlock()
	t := e.boundTableLocked(req)
	for i, c := range round {
		if top := out[i].top; top != nil && t.profiles[c.tuple].l < req.L {
			t.profiles[c.tuple] = profile{req.L, top}
		}
	}
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
