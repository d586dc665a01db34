package sizelos

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"sizelos/internal/keyword"
	"sizelos/internal/rank"
	"sizelos/internal/relational"
	"sizelos/internal/schemagraph"
	"sizelos/internal/searchexec"
)

// getTPCH opens a small TPC-H engine once per test binary (read-only use).
var tpchEngine *Engine

func getTPCH(t *testing.T) *Engine {
	t.Helper()
	if tpchEngine != nil {
		return tpchEngine
	}
	tpchEngine = openTPCH(t, 0.002)
	return tpchEngine
}

// acmeEngine builds a wide, shallow database where one token ("acme")
// matches every one of its 12000 Item subjects — the worst case for a
// materializing search and the best case for streaming early termination.
var acmeEng *Engine

func getAcme(t testing.TB) *Engine {
	t.Helper()
	if acmeEng != nil {
		return acmeEng
	}
	db := relational.NewDB("acme")
	item := relational.MustNewRelation("Item",
		[]relational.Column{
			{Name: "id", Kind: relational.KindInt, Affinity: 1},
			{Name: "tag", Kind: relational.KindString, Affinity: 1},
		}, "id", nil)
	rev := relational.MustNewRelation("Rev",
		[]relational.Column{
			{Name: "id", Kind: relational.KindInt, Affinity: 1},
			{Name: "item", Kind: relational.KindInt, Affinity: 1},
			{Name: "note", Kind: relational.KindString, Affinity: 1},
		}, "id", []relational.ForeignKey{{Column: "item", Ref: "Item"}})
	db.MustAddRelation(item)
	db.MustAddRelation(rev)

	const items = 12000
	revID := int64(1)
	for i := 0; i < items; i++ {
		item.MustInsert(relational.Tuple{
			relational.IntVal(int64(i + 1)),
			relational.StrVal(fmt.Sprintf("acme widget%05d", i)),
		})
		// Varying review counts spread the global importance so the
		// best-first stream has a real ordering to respect.
		for r := 0; r < i%3; r++ {
			rev.MustInsert(relational.Tuple{
				relational.IntVal(revID),
				relational.IntVal(int64(i + 1)),
				relational.StrVal(fmt.Sprintf("note%d", revID)),
			})
			revID++
		}
	}

	ga := rank.NewGA("GA").Direct("Rev", 0, true, 0.5).Direct("Rev", 0, false, 0.5)
	eng, err := NewEngine(db, []Setting{{Name: DefaultSetting, GA: ga, Damping: 0.85}})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	gds := schemagraph.New("Item")
	gds.Root.AddChildFK("Rev", "Rev", 0, 0.9)
	if err := eng.RegisterGDS(gds); err != nil {
		t.Fatalf("RegisterGDS: %v", err)
	}
	acmeEng = eng
	return eng
}

// TestQueryPageLimitIsPrefix: every Limit-n page is the length-n prefix of
// the unlimited page — on both evaluation databases.
func TestQueryPageLimitIsPrefix(t *testing.T) {
	cases := []struct {
		name, rel, q string
		eng          func(*testing.T) *Engine
	}{
		{"dblp-faloutsos", "Author", "Faloutsos", getDBLP},
		{"dblp-multiword", "Author", "Christos Faloutsos", getDBLP},
		{"dblp-miss", "Author", "Nonexistent Person", getDBLP},
		{"tpch-customer", "Customer", "Customer#000001", getTPCH},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := tc.eng(t)
			full, err := search(eng, tc.rel, tc.q, 8, QueryRequest{})
			if err != nil {
				t.Fatalf("QueryPage: %v", err)
			}
			for _, n := range []int{1, 2, 5} {
				prefix, err := search(eng, tc.rel, tc.q, 8, QueryRequest{Limit: n})
				if err != nil {
					t.Fatalf("QueryPage(limit %d): %v", n, err)
				}
				want := n
				if want > len(full) {
					want = len(full)
				}
				if len(prefix) != want {
					t.Fatalf("limit %d served %d summaries, want %d", n, len(prefix), want)
				}
				for i := range prefix {
					if !reflect.DeepEqual(prefix[i], full[i]) {
						t.Fatalf("limit %d: prefix[%d] differs from full answer", n, i)
					}
				}
			}
		})
	}
}

// eagerMatches is the materialized keyword answer the eager paradigm starts
// from: every tuple of rel matching all of query's keywords (Lookup), sorted
// best-first — score descending, tuple ascending — without the match
// stream's heap.
func eagerMatches(eng *Engine, rel, query string, sc relational.DBScores) []keyword.Match {
	ids := eng.Index().Lookup(rel, keyword.Tokenize(query))
	out := make([]keyword.Match, len(ids))
	for i, id := range ids {
		out[i] = keyword.Match{Relation: rel, Tuple: id}
		if int(id) < len(sc[rel]) {
			out[i].Score = sc[rel][id]
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Score > out[b].Score })
	return out
}

// refSummaries recomputes a query's answer through an independent eager
// path: raw index matches, cut to Limit, summarized one at a time via
// SizeL, then — under RankBySummary — sorted stably by Im(S) descending
// (ties: tuple ascending) and cut to K. Any drift between QueryPage and
// this reference is a real behavior change.
func refSummaries(t *testing.T, eng *Engine, req QueryRequest) []Summary {
	t.Helper()
	setting := req.Setting
	if setting == "" {
		setting = DefaultSetting
	}
	sc, err := eng.Scores(setting)
	if err != nil {
		t.Fatalf("Scores: %v", err)
	}
	matches := eagerMatches(eng, req.Rel, req.Query, sc)
	if !req.RankBySummary && req.Limit > 0 && len(matches) > req.Limit {
		matches = matches[:req.Limit]
	}
	out := make([]Summary, 0, len(matches))
	for _, m := range matches {
		s, err := eng.SizeL(req, m.Tuple)
		if err != nil {
			t.Fatalf("SizeL(%d): %v", m.Tuple, err)
		}
		out = append(out, s)
	}
	if req.RankBySummary {
		sort.SliceStable(out, func(a, b int) bool {
			if out[a].Result.Importance != out[b].Result.Importance {
				return out[a].Result.Importance > out[b].Result.Importance
			}
			return out[a].Tuple < out[b].Tuple
		})
		if req.K > 0 && len(out) > req.K {
			out = out[:req.K]
		}
	}
	return out
}

// TestQueryPageEqualsEagerReference pins the page pipeline to the paper's
// eager paradigm: QueryPage returns bit-identical results to raw matches +
// SizeL per match, which shares no code with the page's match stream, its
// ranked loop or its cursor logic.
func TestQueryPageEqualsEagerReference(t *testing.T) {
	t.Run("tpch-ranked", testRankedEagerReference)
	eng := getDBLP(t)
	reqs := []QueryRequest{
		{},
		{Limit: 2},
		{ShowWeights: true},
		{Complete: true},
		{Algorithm: AlgoDP},
		{RankBySummary: true},
		{RankBySummary: true, K: 1},
		{RankBySummary: true, K: 2},
		{RankBySummary: true, K: 10},
	}
	for _, req := range reqs {
		req.Rel, req.Query, req.L = "Author", "Faloutsos", 12
		got, _, _, err := eng.QueryPage(req)
		if err != nil {
			t.Fatalf("QueryPage(%+v): %v", req, err)
		}
		if len(got) == 0 {
			t.Fatalf("QueryPage(%+v) served nothing: the comparison would be vacuous", req)
		}
		if want := refSummaries(t, eng, req); !reflect.DeepEqual(got, want) {
			t.Fatalf("QueryPage(%+v) diverged from reference (%d vs %d results)",
				req, len(got), len(want))
		}
	}
}

// TestQueryEarlyTermination is the tentpole's payoff: a limit-10 query
// against 12000 matching subjects must summarize only the served prefix —
// under 5% of what a full drain computes — and report the full match count
// without doing the work.
func TestQueryEarlyTermination(t *testing.T) {
	eng := getAcme(t)
	sums, cursor, stats, err := eng.QueryPage(QueryRequest{Rel: "Item", Query: "acme", L: 3, Limit: 10})
	if err != nil {
		t.Fatalf("QueryPage: %v", err)
	}
	if stats.Matches < 10000 {
		t.Fatalf("fixture too small: %d matches, need >= 10000", stats.Matches)
	}
	if len(sums) != 10 {
		t.Fatalf("served %d summaries, want 10", len(sums))
	}
	if cursor == "" {
		t.Fatal("no cursor with 11990 matches unserved")
	}
	if stats.Summaries*20 >= stats.Matches {
		t.Fatalf("computed %d summaries for %d matches — not <5%%, no early termination",
			stats.Summaries, stats.Matches)
	}
	// The served prefix is exactly the global best-first order.
	full := eagerMatches(eng, "Item", "acme", mustScores(t, eng))
	for i, s := range sums {
		if s.Tuple != full[i].Tuple {
			t.Fatalf("prefix[%d] = tuple %d, best-first order says %d", i, s.Tuple, full[i].Tuple)
		}
	}
}

func mustScores(t *testing.T, eng *Engine) relational.DBScores {
	t.Helper()
	sc, err := eng.Scores(DefaultSetting)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestQueryCursorWalk pages through a large answer entirely at the engine
// level: following cursors with limit 7 must reproduce the full best-first
// prefix with no summary recomputed twice... and a cursor presented to a
// differently-shaped request must be refused, not misapplied.
func TestQueryCursorWalk(t *testing.T) {
	eng := getAcme(t)
	const limit, pages = 7, 5
	var (
		walked []Summary
		cursor string
	)
	for p := 0; p < pages; p++ {
		sums, next, stats, err := eng.QueryPage(QueryRequest{
			Rel: "Item", Query: "acme", L: 3, Limit: limit, Cursor: cursor,
		})
		if err != nil {
			t.Fatalf("page %d: %v", p, err)
		}
		if len(sums) != limit {
			t.Fatalf("page %d served %d, want %d", p, len(sums), limit)
		}
		if stats.Summaries != limit {
			t.Fatalf("page %d computed %d summaries, want exactly %d", p, stats.Summaries, limit)
		}
		walked = append(walked, sums...)
		if next == "" {
			t.Fatalf("page %d: cursor ended early", p)
		}
		cursor = next
	}
	full := eagerMatches(eng, "Item", "acme", mustScores(t, eng))
	for i, s := range walked {
		if s.Tuple != full[i].Tuple {
			t.Fatalf("walked[%d] = tuple %d, want %d", i, s.Tuple, full[i].Tuple)
		}
	}

	// Malformed and foreign cursors fail typed, loudly, and up front.
	if _, _, _, err := eng.QueryPage(QueryRequest{
		Rel: "Item", Query: "acme", L: 3, Limit: limit, Cursor: "@@not-base64@@",
	}); !errors.Is(err, ErrCursorMalformed) {
		t.Fatalf("malformed cursor error = %v, want ErrCursorMalformed", err)
	}
	if _, _, _, err := eng.QueryPage(QueryRequest{
		Rel: "Item", Query: "acme", L: 4, Limit: limit, Cursor: cursor, // different l
	}); !errors.Is(err, ErrStreamInvalidated) {
		t.Fatalf("foreign cursor error = %v, want ErrStreamInvalidated", err)
	}
	checkForgedPositions(t, eng, QueryRequest{Rel: "Item", Query: "acme", L: 3, Limit: limit}, cursor, len(full))
}

// TestRankedQueryPaging: RankBySummary pages must concatenate to exactly
// the unpaged top-k, served from one materialized ranking.
func TestRankedQueryPaging(t *testing.T) {
	eng := getDBLP(t)
	const k = 3
	want, err := ranked(eng, "Author", "Faloutsos", 10, k, QueryRequest{})
	if err != nil {
		t.Fatalf("unpaged ranked query: %v", err)
	}
	var (
		got    []Summary
		cursor string
	)
	for hops := 0; ; hops++ {
		if hops > k+1 {
			t.Fatal("ranked paging did not terminate")
		}
		sums, next, _, err := eng.QueryPage(QueryRequest{
			Rel: "Author", Query: "Faloutsos", L: 10,
			RankBySummary: true, K: k, Limit: 1, Cursor: cursor,
		})
		if err != nil {
			t.Fatalf("ranked page: %v", err)
		}
		got = append(got, sums...)
		if next == "" {
			break
		}
		cursor = next
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ranked pages (%d) diverge from the unpaged top-%d (%d)", len(got), k, len(want))
	}
	// A ranked position counts ranks: past K — with no K, past the matches —
	// it is forged.
	for _, c := range []struct{ k, end int }{{k - 1, k - 1}, {0, len(want)}} {
		req := QueryRequest{Rel: "Author", Query: "Faloutsos", L: 10, RankBySummary: true, K: c.k, Limit: 1}
		_, first, _, err := eng.QueryPage(req)
		if err != nil || first == "" {
			t.Fatalf("K=%d first page: cursor %q, err %v", c.k, first, err)
		}
		checkForgedPositions(t, eng, req, first, c.end)
	}
}

// TestQueryDeletedTupleBackfill: a tuple that is tombstoned while still
// listed in the posting window is skipped and the window backfilled from
// the remaining matches, instead of failing the whole query.
func TestQueryDeletedTupleBackfill(t *testing.T) {
	eng := mutableDBLP(t)
	sc := mustScores(t, eng)
	matches := eagerMatches(eng, "Author", "Faloutsos", sc)
	if len(matches) < 3 {
		t.Fatalf("fixture has %d Faloutsos matches, need 3", len(matches))
	}
	// Tombstone the best match behind the engine's back: the posting list
	// still carries it (no Mutate, no epoch bump) — a stale window.
	if err := eng.DB().Relation("Author").Delete(matches[0].Tuple); err != nil {
		t.Fatalf("Delete: %v", err)
	}

	req := QueryRequest{Rel: "Author", Query: "Faloutsos", L: 5, Limit: 2}
	sums, _, stats, err := eng.QueryPage(req)
	if err != nil {
		t.Fatalf("QueryPage after stale delete: %v", err)
	}
	if stats.Skipped != 1 {
		t.Fatalf("Skipped = %d, want 1", stats.Skipped)
	}
	if len(sums) != 2 {
		t.Fatalf("served %d summaries, want 2 (skip + backfill)", len(sums))
	}
	if sums[0].Tuple != matches[1].Tuple || sums[1].Tuple != matches[2].Tuple {
		t.Fatalf("window = tuples %d,%d; want backfilled %d,%d",
			sums[0].Tuple, sums[1].Tuple, matches[1].Tuple, matches[2].Tuple)
	}
	// A cursor walk heals it the same way: the position counts the skipped
	// pop, so the second page starts after the first's summary, not on it.
	req.Limit = 1
	first, cursor, _, err := eng.QueryPage(req)
	if err != nil || len(first) != 1 || cursor == "" {
		t.Fatalf("first page: %d summaries, cursor %q, err %v", len(first), cursor, err)
	}
	if w, _ := decodeCursor(cursor); w.Consumed != 2 {
		t.Fatalf("cursor position %d after one skipped and one served match, want 2", w.Consumed)
	}
	req.Cursor = cursor
	second, _, _, err := eng.QueryPage(req)
	if err != nil {
		t.Fatalf("second page: %v", err)
	}
	if walked := append(first, second...); !reflect.DeepEqual(walked, sums) {
		t.Fatal("two limit-1 pages disagree with the limit-2 page on the healed window")
	}
}

// TestQueryMutationInvalidatesStream: a cursor must refuse to resume across
// a mutation — the next page fails with ErrStreamInvalidated rather than
// continuing a pre-mutation match sequence over post-mutation state.
func TestQueryMutationInvalidatesStream(t *testing.T) {
	eng := mutableDBLP(t)
	req := QueryRequest{Rel: "Author", Query: "Faloutsos", L: 5, Limit: 1}
	page, cursor, _, err := eng.QueryPage(req)
	if err != nil || len(page) != 1 || cursor == "" {
		t.Fatalf("first page: %d summaries, cursor %q, err %v", len(page), cursor, err)
	}
	if _, err := eng.Mutate(insertAuthorBatch(t, eng, 910001, "Streambreaker Faloutsos", "Tearing Pages")); err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	req.Cursor = cursor
	if page, next, _, err := eng.QueryPage(req); !errors.Is(err, ErrStreamInvalidated) || page != nil || next != "" {
		t.Fatalf("post-mutation page 2 = %d summaries, cursor %q, err %v; want ErrStreamInvalidated alone", len(page), next, err)
	}
	// A fresh query sees the post-mutation state, including the new match.
	fresh, err := search(eng, "Author", "Faloutsos", 5, QueryRequest{})
	if err != nil {
		t.Fatalf("fresh query: %v", err)
	}
	found := false
	for _, s := range fresh {
		if s.Headline == "Streambreaker Faloutsos" {
			found = true
		}
	}
	if !found {
		t.Fatalf("fresh query (%d results) misses the inserted author", len(fresh))
	}
}

// TestQueryRaceMutationVsStreams walks cursors from several goroutines
// while mutations land: every page must be a valid page or a clean
// ErrStreamInvalidated, after which the walk starts over. Run under -race
// this proves pages and the writer order themselves on the engine lock.
func TestQueryRaceMutationVsStreams(t *testing.T) {
	eng := mutableDBLP(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if _, err := eng.Mutate(insertAuthorBatch(t, eng,
				920001+int64(i)*10, "Racewalker Faloutsos", "Concurrent Paging")); err != nil {
				t.Errorf("Mutate: %v", err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := QueryRequest{Rel: "Author", Query: "Faloutsos", L: 5, Limit: 1}
			for i := 0; i < 90; i++ {
				page, next, _, err := eng.QueryPage(req)
				switch {
				case errors.Is(err, ErrStreamInvalidated) && req.Cursor != "":
					// Only a cursor can observe it; next is "", the walk starts over.
				case err != nil:
					t.Errorf("QueryPage: %v", err)
					return
				case len(page) != 1 || !strings.Contains(page[0].Headline, "Faloutsos"):
					t.Errorf("page of %d summaries at cursor %q", len(page), req.Cursor)
					return
				}
				req.Cursor = next
			}
		}()
	}
	wg.Wait()
	<-done
}

// TestQueryNoGoroutineLeak: a page starts no goroutine. The census — read
// before, after, and by one background sampler while cold plain and ranked
// pages run on the test's own goroutine, with and without a Pool — never
// exceeds the starting count plus the sampler.
func TestQueryNoGoroutineLeak(t *testing.T) {
	eng := getDBLP(t)
	before := runtime.NumGoroutine()
	stop, sampled := make(chan struct{}), make(chan int)
	go func() {
		peak := 0
		for {
			select {
			case <-stop:
				sampled <- peak
				return
			default:
				peak = max(peak, runtime.NumGoroutine())
				runtime.Gosched()
			}
		}
	}()
	for _, pool := range []*searchexec.Pool{nil, searchexec.NewPool(2)} {
		for i := 0; i < 64; i++ {
			for _, ranked := range []bool{false, true} {
				req := QueryRequest{Rel: "Paper", Query: "efficient", L: 8, Limit: 10, RankBySummary: ranked, K: 10, Pool: pool}
				page, _, stats, err := eng.QueryPage(req)
				if err != nil {
					t.Fatalf("QueryPage(%+v): %v", req, err)
				}
				if len(page) != 10 || stats.Summaries < 10 {
					t.Fatalf("QueryPage(%+v): %d summaries served, %d computed: not the page this test means to watch", req, len(page), stats.Summaries)
				}
			}
		}
	}
	after := runtime.NumGoroutine() // the sampler is still running
	close(stop)
	if peak := <-sampled; peak > before+1 || after > before+1 {
		t.Fatalf("goroutines, sampler included: %d before it started, peak %d while 256 pages ran, %d after", before, peak, after)
	}
}

// TestQueryRequestValidation pins the API's error surface. A request no
// database state could serve fails with ErrInvalidRequest before any match
// is looked at — the verdict must not depend on whether the keywords hit.
func TestQueryRequestValidation(t *testing.T) {
	// A private engine: TestRegisterAutoGDS gives the shared one a
	// Conference G_DS.
	eng := mutableDBLP(t)
	hits := map[string]string{"Author": "Faloutsos", "Conference": "vldb"}
	for rel, kw := range hits {
		if len(eng.Index().Lookup(rel, []string{kw})) == 0 {
			t.Fatalf("%q matches no %s: the hit leg would not be one", kw, rel)
		}
	}
	for _, bad := range []QueryRequest{
		{Rel: "Author", L: 0},
		{Rel: "Author", L: -1},
		{Rel: "Author", L: 3, Algorithm: "bogus"},
		{Rel: "Author", L: 5, Limit: -1},
		{Rel: "Author", L: 5, K: -1},
		{Rel: "Author", L: 5, RankBySummary: true, K: -1},
		// A relation of the database that no G_DS is registered for.
		{Rel: "Conference", L: 5},
		{Rel: "Conference", L: 5, RankBySummary: true, K: 3},
	} {
		for _, kw := range []string{hits[bad.Rel], "zzzzqqq"} { // hit, miss
			bad.Query = kw
			if _, _, _, err := eng.QueryPage(bad); !errors.Is(err, ErrInvalidRequest) {
				t.Errorf("QueryPage(%+v) error = %v, want ErrInvalidRequest", bad, err)
			}
		}
	}
	if _, _, _, err := eng.QueryPage(QueryRequest{Rel: "Author", Query: "x", L: 5, Setting: "nope"}); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("unknown setting: error = %v, want ErrInvalidRequest", err)
	}
	// Unknown relation: empty answer, no error — the seed's contract.
	sums, cursor, _, err := eng.QueryPage(QueryRequest{Rel: "Nope", Query: "x", L: 5})
	if err != nil || sums == nil || len(sums) != 0 || cursor != "" {
		t.Fatalf("unknown relation = %v, cursor %q, %v (want a non-nil empty page)", sums, cursor, err)
	}
}

// TestQueryRequestFieldClassification guards the two places a request
// field can silently go missing from: the summary-cache key and the cursor
// fingerprint. Every QueryRequest field must be classified exactly once —
// summary-shaping (changes the produced Summary, so it must change
// summaryKey, and with it the sequence fingerprint), sequence-shaping
// (changes which summaries are served or in what order: fingerprint only),
// or consumption-only (changes neither) — and flipping it must move exactly
// what its class says. A field added later fails here until it is placed.
func TestQueryRequestFieldClassification(t *testing.T) {
	const (
		summaryShaping = iota
		sequenceShaping
		consumptionOnly
	)
	classes := map[string]int{
		"Rel": summaryShaping, "L": summaryShaping, "Setting": summaryShaping,
		"Algorithm": summaryShaping, "Complete": summaryShaping,
		"ShowWeights": summaryShaping, "CacheScope": summaryShaping,
		"Query": sequenceShaping, "RankBySummary": sequenceShaping, "K": sequenceShaping,
		"Limit": consumptionOnly, "Cursor": consumptionOnly, "Pool": consumptionOnly,
	}
	eng := getDBLP(t)
	base := QueryRequest{Rel: "Author", Query: "Faloutsos", L: 5}
	observe := func(req QueryRequest) (summaryKey, uint64) {
		resolved, err := req.resolve()
		if err != nil {
			t.Fatalf("resolve(%+v): %v", req, err)
		}
		return eng.summaryKeyFor(resolved, 0), resolved.fingerprint()
	}
	baseKey, baseFP := observe(base)

	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		class, ok := classes[f.Name]
		if !ok {
			t.Errorf("QueryRequest.%s is unclassified: decide whether it shapes the summary, the sequence, or only consumption", f.Name)
			continue
		}
		delete(classes, f.Name)

		flipped := base
		v := reflect.ValueOf(&flipped).Elem().Field(i)
		switch {
		case f.Name == "Setting":
			v.SetString("GA2-d1") // non-default and valid
		case f.Name == "Algorithm":
			v.SetString(string(AlgoDP))
		case f.Name == "Pool":
			v.Set(reflect.ValueOf(searchexec.NewPool(1)))
		case v.Kind() == reflect.String:
			v.SetString(v.String() + "x")
		case v.Kind() == reflect.Int:
			v.SetInt(v.Int() + 1)
		case v.Kind() == reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			t.Fatalf("QueryRequest.%s: no flip for kind %s", f.Name, v.Kind())
		}
		key, fp := observe(flipped)
		wantKey, wantFP := class == summaryShaping, class != consumptionOnly
		if (key != baseKey) != wantKey {
			t.Errorf("QueryRequest.%s: summaryKey changed = %t, want %t", f.Name, key != baseKey, wantKey)
		}
		if (fp != baseFP) != wantFP {
			t.Errorf("QueryRequest.%s: fingerprint changed = %t, want %t", f.Name, fp != baseFP, wantFP)
		}
	}
	for name := range classes {
		t.Errorf("classified field %s no longer exists on QueryRequest", name)
	}

	// Defaults resolve before hashing: omitted and explicit agree.
	explicit := base
	explicit.Setting, explicit.Algorithm = DefaultSetting, AlgoTopPath
	if key, fp := observe(explicit); key != baseKey || fp != baseFP {
		t.Error("explicit defaults hash differently from omitted ones")
	}
}
