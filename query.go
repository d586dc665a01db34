package sizelos

import (
	"cmp"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"

	"sizelos/internal/keyword"
	"sizelos/internal/relational"
	"sizelos/internal/searchexec"
)

// This file is the engine's query surface: one request struct and one entry
// point, QueryPage, which serves a page on the caller's goroutine under one
// read lock: keyword matches best-first -> summary computation (cache-first,
// pool-bounded) -> size-l rendering, paying only for the page it serves.

// ErrStreamInvalidated reports that a mutation landed inside the query's
// dependency set between two pages: the cursor's position in the
// pre-mutation match sequence is meaningless against the post-mutation
// state, so the engine refuses to serve a torn view. Re-issue the query
// without a cursor to start over. HTTP maps it to 410 Gone.
var ErrStreamInvalidated = errors.New("sizelos: stream invalidated by mutation")

// ErrCursorMalformed reports a cursor that never came from this engine
// (truncated, corrupted, or hand-built). HTTP maps it to 400 Bad Request.
var ErrCursorMalformed = errors.New("sizelos: malformed cursor")

// ErrInvalidRequest reports a QueryRequest no database state could serve:
// L < 1, an unknown Algorithm or Setting (settings are fixed at
// construction), a negative Limit or K, a Rel that is a relation without a
// registered G_DS. It is raised before any match is looked at, so the
// verdict never depends on whether the keywords hit. HTTP maps it to 400
// Bad Request.
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
	// importances bounds its Im(S) from above (one a ranking already scored
	// on this state, by its exact Im(S)), so once K summaries are scored,
	// every candidate whose bound is under the K-th best is sealed without a
	// selection, and only the served page is rendered.
	RankBySummary bool
	// K, with RankBySummary, caps the ranking to the best K summaries
	// (0 = rank everything). It bounds the result set, not the page: use
	// Limit/Cursor to page through the K.
	K int

	// Limit bounds how many summaries this request produces (0 = all).
	// Matches past the page stay uncomputed, and the cursor QueryPage
	// returns resumes after it.
	Limit int
	// Cursor resumes a previous request after its last served summary.
	// It must come from QueryPage (or the HTTP response) for a request
	// with identical parameters; a mutation in between invalidates it
	// (ErrStreamInvalidated).
	Cursor string

	// Complete computes from the complete OS instead of the prelim-l OS.
	// The paper recommends prelim-l ("constantly a better choice", §6.3),
	// so the default is prelim.
	Complete bool
	// ShowWeights annotates rendered summaries with local importance.
	ShowWeights bool

	// Pool, when non-nil, bounds this request's summary work by
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

// cut bounds n, a count of summaries that could be served, by Limit.
func (req QueryRequest) cut(n int) int {
	if req.Limit > 0 && req.Limit < n {
		return req.Limit
	}
	return n
}

// fingerprint hashes every request parameter that shapes the result
// sequence (not the paging: Limit, Cursor and Pool change how the sequence
// is consumed, never what it contains). req must be resolved, so an omitted
// and an explicit default agree. A cursor binds to this value so it can
// only resume the query that minted it.
func (req QueryRequest) fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%s\x00%s\x00%t\x00%d\x00%t\x00%t\x00%s",
		req.Rel, req.Query, req.L, req.Setting, req.Algorithm,
		req.RankBySummary, req.K,
		req.Complete, req.ShowWeights, req.CacheScope)
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

// QueryStats counts what one QueryPage call actually did — the observable
// proof of early termination: a limit-10 query over thousands of matches
// reports Summaries == 10.
type QueryStats struct {
	// Matches is the total keyword-match count of the query (what a full
	// drain would have to summarize).
	Matches int
	// Summaries is how many size-l summaries the call produced
	// (computed or served from cache) — under RankBySummary every candidate
	// it scored, whether or not it made the page (a repeat on the same state:
	// its K, plus any candidate tying the K-th).
	Summaries int
	// Sealed counts the RankBySummary candidates excluded by their Im(S)
	// upper bound with no selection computed: on a ranked query
	// Matches == Summaries + Sealed + Skipped.
	Sealed int
	// Skipped counts matches dropped because their DS tuple was tombstoned
	// between indexing and serving; the page backfills from the next
	// rank instead of failing the query.
	Skipped int
}

// QueryPage serves one page of req: one size-l OS per Data Subject matching
// the keywords — the paper's end-to-end paradigm (Q1 "Faloutsos", l=15 →
// Example 5) — up to Limit of them, with the cursor that resumes after the
// page ("" when the query is fully served) and the stats. Summaries arrive in
// descending DS global importance, or descending Im(S) under RankBySummary.
// The whole call runs on the caller's goroutine under one engine read lock,
// so a page is always internally consistent and only a cursor can observe
// ErrStreamInvalidated. The page is non-nil even when empty.
func (e *Engine) QueryPage(req QueryRequest) ([]Summary, string, QueryStats, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	req, err := req.resolve()
	if err != nil {
		return nil, "", QueryStats{}, err
	}
	raw, f, err := e.scoresLocked(req.Setting)
	if err != nil {
		return nil, "", QueryStats{}, err
	}
	// An unknown relation matches nothing and answers empty; a known one
	// without a G_DS could only fail at its first match.
	if _, ok := e.gds[req.Rel]; !ok && e.db.Relation(req.Rel) != nil {
		return nil, "", QueryStats{}, fmt.Errorf("%w: no G_DS registered for %s", ErrInvalidRequest, req.Rel)
	}
	epoch := e.epochForLocked(req.Rel)
	var resume cursorWire
	if req.Cursor != "" {
		resume, err = decodeCursor(req.Cursor)
		if err != nil {
			return nil, "", QueryStats{}, err
		}
		if resume.Fingerprint != req.fingerprint() {
			return nil, "", QueryStats{}, fmt.Errorf("%w: cursor belongs to a different query", ErrStreamInvalidated)
		}
		if resume.Epoch != epoch {
			return nil, "", QueryStats{}, fmt.Errorf("%w: engine state changed since the cursor was issued", ErrStreamInvalidated)
		}
	}
	stream := e.index.SearchScaled(req.Rel, req.Query, relational.Scaled{Raw: raw[req.Rel], F: f})
	stats := QueryStats{Matches: stream.Remaining()}
	// A minted cursor never counts past the answer it pages through; one
	// that does was forged, and its position must not reach a pop or a slice
	// bound.
	end := stats.Matches
	if req.RankBySummary && req.K > 0 && req.K < end {
		end = req.K
	}
	if resume.Consumed > uint64(end) {
		return nil, "", QueryStats{}, fmt.Errorf("%w: position %d past the query's %d results", ErrCursorMalformed, resume.Consumed, end)
	}

	k := &kernel{}
	var page []Summary
	// position is the cursor position after the page — the cumulative pop
	// count through its last summary (skipped tombstones included), ranked:
	// its rank — and more whether anything is left to resume.
	position, more := int(resume.Consumed), false
	if req.RankBySummary {
		if page, more, err = e.rankLocked(req, stream, position, &stats, k); err != nil {
			return nil, "", QueryStats{}, err
		}
		position += len(page)
	} else {
		// Replay to the cursor position: the epoch matched, so the stream
		// emits the identical sequence and skipping that many pops lands
		// exactly after the last served summary.
		for i := 0; i < position; i++ {
			stream.Next()
		}
		// Every summary costs a pop, so n bounds the page; tombstones can
		// leave it shorter, and then the loop ends on a dry stream.
		n := req.cut(stream.Remaining())
		page = make([]Summary, 0, n)
		for len(page) < n {
			m, ok, err := e.nextLive(req.Rel, stream, &stats)
			if err != nil {
				return nil, "", QueryStats{}, err
			}
			if !ok {
				break
			}
			s, err := e.summaryLocked(req, m.Tuple, math.Inf(-1), true, k)
			if err != nil {
				return nil, "", QueryStats{}, err
			}
			stats.Summaries++
			page = append(page, s.sum)
		}
		position, more = stats.Matches-stream.Remaining(), stream.Remaining() > 0
	}
	cursor := ""
	if more {
		cursor = encodeCursor(cursorWire{Fingerprint: req.fingerprint(), Epoch: epoch, Consumed: uint64(position)})
	}
	return page, cursor, stats, nil
}

// nextLive pops the frontier down to its next live match; ok is false when
// it runs dry first. Tombstoned subjects are skipped, counted and backfilled
// from the next rank; a match pointing outside the relation fails the query.
func (e *Engine) nextLive(rel string, stream keyword.MatchStream, stats *QueryStats) (m keyword.Match, ok bool, err error) {
	for {
		if m, ok = stream.Next(); !ok {
			return m, false, nil
		}
		skip, err := e.classifySubject(rel, m.Tuple)
		if err != nil {
			return m, false, err
		}
		if !skip {
			return m, true, nil
		}
		stats.Skipped++
	}
}

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
	pos   int32 // in the match stream
	bound float64
}

// byBound orders candidates by bound descending, then stream position: a
// stable sort by bound's permutation, without its merge passes.
func byBound(a, b candidate) int {
	return cmp.Or(cmp.Compare(b.bound, a.bound), cmp.Compare(a.pos, b.pos))
}

// rankLocked serves a ranked page, a threshold loop over the whole frontier:
// candidates are ordered by remembered bound and evaluated one at a time;
// after each, tau is Im(S) of the K-th best so far (K == 0: -Inf, nothing
// seals), a candidate whose bound is under tau is never selected, and the
// loop stops at the first remembered bound under tau — every later one is
// smaller. A sealed candidate's Im(S) is strictly under K summaries already
// scored, so the ranking equals the full scan's at every K, in any order of
// evaluation. A ranked cursor counts served ranks, not frontier pops: the
// page is the Limit ranks after the first resume, returned with whether any
// rank follows it. Only the page is rendered, and none of it is cached
// (EnableSummaryCache says why). Callers hold at least the read lock.
func (e *Engine) rankLocked(req QueryRequest, stream keyword.MatchStream, resume int, stats *QueryStats, k *kernel) ([]Summary, bool, error) {
	matches := make([]keyword.Match, 0, stream.Remaining())
	for {
		m, ok, err := e.nextLive(req.Rel, stream, stats)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		matches = append(matches, m)
	}
	cands := e.candidatesLocked(req, matches)
	var best []Summary
	var seen []scored
	tau := math.Inf(-1)
	i := 0
	for ; i < len(cands) && !sealedBy(cands[i].bound, tau); i++ {
		s, err := e.summaryLocked(req, cands[i].tuple, tau, false, k)
		if err != nil {
			return nil, false, err
		}
		seen = append(seen, s)
		if s.sealed {
			stats.Sealed++
			continue
		}
		stats.Summaries++
		// best stays in rankOrder, cut to its K best (K == 0: all).
		at, _ := slices.BinarySearchFunc(best, s.sum, rankOrder)
		if best = slices.Insert(best, at, s.sum); req.K > 0 && len(best) >= req.K {
			best, tau = best[:req.K], best[req.K-1].Result.Importance
		}
	}
	stats.Sealed += len(cands) - i
	e.rememberLocked(req, seen)

	rest := best[min(resume, len(best)):]
	n := req.cut(len(rest))
	// Copied, so that a page does not pin the ranking it was cut from.
	page := append(make([]Summary, 0, n), rest[:n]...)
	for i := range page {
		if page[i].Text == "" { // scored this query, not served by the cache
			req.Pool.Do(func() { e.materialize(req, &page[i]) })
		}
	}
	return page, n < len(rest), nil
}

// rankOrder orders summaries by Im(S) descending, ties by tuple ascending.
func rankOrder(a, b Summary) int {
	if c := cmp.Compare(b.Result.Importance, a.Result.Importance); c != 0 {
		return c
	}
	return cmp.Compare(a.Tuple, b.Tuple)
}

// boundKey names one bound table.
type boundKey struct{ rel, setting string }

// boundTable remembers what ranked queries learned about the subjects of
// one (DS relation, setting): per subject, the prefix sums of its largest
// local importances at the largest l evaluated so far, and each scored
// Im(S), a bound that holds with equality at its exactKey. sums[i-1] bounds
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
	l     int
	sums  []float64
	exact []exactIm
}

// exactKey is what a subject's Im(S) depends on besides the table's subject,
// setting and epoch: l, the algorithm and the OS kind it selected from.
type exactKey struct {
	l        int32
	algo     uint8
	complete bool
}

// exactIm is one remembered Im(S), 16 bytes.
type exactIm struct {
	exactKey
	im float64
}

var algoCode = map[Algorithm]uint8{AlgoTopPath: 0, AlgoBottomUp: 1, AlgoDP: 2}

// exactKeyFor returns req's exactKey; ok is false for an l past int32, whose
// Im(S) is never remembered.
func exactKeyFor(req QueryRequest) (key exactKey, ok bool) {
	return exactKey{int32(req.L), algoCode[req.Algorithm], req.Complete}, req.L <= math.MaxInt32
}

// exactAt returns the remembered Im(S) at key, if any.
func (p profile) exactAt(key exactKey) (float64, bool) {
	for _, x := range p.exact {
		if x.exactKey == key {
			return x.im, true
		}
	}
	return 0, false
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
// bound descending (the exact Im(S) at req's exactKey, else the prefix sum at
// req.L), unbounded subjects first in stream order. Callers hold at least
// the read lock.
func (e *Engine) candidatesLocked(req QueryRequest, matches []keyword.Match) []candidate {
	cands := make([]candidate, len(matches))
	key, memo := exactKeyFor(req)
	e.boundsMu.Lock()
	t := e.boundTableLocked(req)
	for i, m := range matches {
		cands[i] = candidate{m.Tuple, int32(i), math.Inf(1)}
		p := t.profiles[m.Tuple]
		if im, ok := p.exactAt(key); ok && memo {
			cands[i].bound = im
		} else if p.l >= req.L {
			cands[i].bound = p.sums[min(req.L, len(p.sums))-1]
		}
	}
	e.boundsMu.Unlock()
	slices.SortFunc(cands, byBound)
	return cands
}

// rememberLocked records a request's evaluations under one boundsMu hold: of
// two profiles of one subject the one for the larger l stays, and each
// selection's Im(S) is kept at req's exactKey. Callers hold the read lock.
func (e *Engine) rememberLocked(req QueryRequest, seen []scored) {
	key, memo := exactKeyFor(req)
	e.boundsMu.Lock()
	defer e.boundsMu.Unlock()
	t := e.boundTableLocked(req)
	for _, s := range seen {
		p := t.profiles[s.sum.Tuple]
		if s.top != nil && p.l < req.L {
			p.l, p.sums = req.L, s.top
		}
		if _, ok := p.exactAt(key); memo && !s.sealed && !ok {
			p.exact = append(p.exact, exactIm{key, s.sum.Result.Importance})
		}
		t.profiles[s.sum.Tuple] = p
	}
}

// classifySubject checks DS coordinates before any summary work: serve it
// (false, nil), a tombstone (true, nil) — which a page skips and
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
