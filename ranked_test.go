package sizelos

import (
	"encoding/base64"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sizelos/internal/datagen"
)

// The proofs of the ranked threshold loop (Engine.rankLocked): whatever it
// seals, skips or remembers, the page it serves is the eager full scan's.

// openTPCH builds a private TPC-H engine; ranked tests that mutate, enable a
// cache or count what a cold bound table does cannot share getTPCH's.
func openTPCH(t testing.TB, scale float64) *Engine {
	t.Helper()
	cfg := datagen.DefaultTPCHConfig()
	cfg.ScaleFactor = scale
	eng, err := OpenTPCH(cfg)
	if err != nil {
		t.Fatalf("OpenTPCH: %v", err)
	}
	return eng
}

// rankedCase is one point of the ranked exactness grid.
type rankedCase struct {
	rel, setting string
	l, k         int
	algo         Algorithm
	complete     bool
}

func (c rankedCase) request() QueryRequest {
	return QueryRequest{
		Rel: c.rel, Query: strings.ToLower(c.rel), L: c.l, Setting: c.setting,
		Algorithm: c.algo, Complete: c.complete,
		RankBySummary: true, K: c.k,
	}
}

var (
	rankedRels     = []string{"Customer", "Supplier"}
	rankedSettings = []string{"GA1-d1", "GA1-d2", "GA1-d3", "GA2-d1"}
	rankedLs       = []int{1, 2, 5, 15, 30, 54}
	rankedKs       = []int{0, 1, 2, 10, 40, 1000}
	rankedAlgos    = []Algorithm{AlgoTopPath, AlgoBottomUp, AlgoDP}
)

// rankedGrid lists the cases to run: the whole cross product, or — sample
// > 0 — that many seeded draws in which every axis deals its values in
// shuffled rounds, so each value of each axis appears once sample reaches
// the longest axis.
func rankedGrid(sample int) []rankedCase {
	axes := []int{len(rankedRels), len(rankedSettings), len(rankedLs), len(rankedKs), len(rankedAlgos), 2}
	at := func(ix []int) rankedCase {
		return rankedCase{
			rel: rankedRels[ix[0]], setting: rankedSettings[ix[1]], l: rankedLs[ix[2]], k: rankedKs[ix[3]],
			algo: rankedAlgos[ix[4]], complete: ix[5] == 1,
		}
	}
	var out []rankedCase
	if sample == 0 {
		ix := make([]int, len(axes))
		for {
			out = append(out, at(ix))
			a := len(axes) - 1
			for ; a >= 0; a-- {
				if ix[a]++; ix[a] < axes[a] {
					break
				}
				ix[a] = 0
			}
			if a < 0 {
				return out
			}
		}
	}
	r := rand.New(rand.NewSource(1711))
	deals := make([][]int, len(axes))
	for a, n := range axes {
		for len(deals[a]) < sample {
			deals[a] = append(deals[a], r.Perm(n)...)
		}
	}
	ix := make([]int, len(axes))
	for i := 0; i < sample; i++ {
		for a := range axes {
			ix[a] = deals[a][i]
		}
		out = append(out, at(ix))
	}
	return out
}

// checkRankedGrid runs every case against the eager reference (refSummaries:
// raw matches, one SizeL each, sort, cut — no code shared with the loop's
// ordering, rounds, sealing or bound table) four times: on a cold bound
// table, on the table that run left, and after a query at the next smaller
// and then the next larger l of the grid re-warmed an emptied table — so a
// bound read from a profile recorded at another l is exercised both ways.
func checkRankedGrid(t *testing.T, eng *Engine, cases []rankedCase) {
	type refKey struct {
		rel, setting string
		l            int
		algo         Algorithm
		complete     bool
	}
	refs := make(map[refKey][]Summary)
	sealed := 0
	for _, c := range cases {
		req := c.request()
		key := refKey{c.rel, c.setting, c.l, c.algo, c.complete}
		full, ok := refs[key]
		if !ok {
			all := req
			all.K = 0
			full = refSummaries(t, eng, all)
			refs[key] = full
		}
		want := full
		if c.k > 0 && c.k < len(want) {
			want = want[:c.k]
		}
		ask := func(stage string) {
			t.Helper()
			got, cursor, stats, err := eng.QueryPage(req)
			if err != nil {
				t.Fatalf("%+v (%s): %v", c, stage, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v (%s): ranked page of %d diverged from the eager reference's %d", c, stage, len(got), len(want))
			}
			if cursor != "" {
				t.Fatalf("%+v (%s): fully served ranking left a cursor", c, stage)
			}
			if stats.Matches != stats.Summaries+stats.Sealed+stats.Skipped {
				t.Fatalf("%+v (%s): stats %+v do not add up", c, stage, stats)
			}
			if c.k == 0 && stats.Sealed != 0 {
				t.Fatalf("%+v (%s): K=0 sealed %d candidates", c, stage, stats.Sealed)
			}
			sealed += stats.Sealed
		}
		warmAt := func(l int) {
			t.Helper()
			warm := req
			warm.L = l
			if _, _, _, err := eng.QueryPage(warm); err != nil {
				t.Fatalf("%+v warming at l=%d: %v", c, l, err)
			}
		}
		eng.bounds = nil
		ask("cold table")
		ask("warm table")
		eng.bounds = nil
		for i, l := range rankedLs {
			if l != c.l {
				continue
			}
			if i > 0 {
				warmAt(rankedLs[i-1])
			}
			ask("table warmed at a smaller l")
			if i+1 < len(rankedLs) {
				warmAt(rankedLs[i+1])
			}
			ask("table warmed at a larger l")
		}
	}
	if sealed == 0 {
		t.Fatal("no case sealed a single candidate: the grid never exercised the bound")
	}
}

// testRankedEagerReference is the TPC-H leg of
// TestQueryPageEqualsEagerReference. Tier-1 runs a seeded sample on the
// small fixture; SIZELOS_INTEGRATION=1 runs the whole grid at the
// benchmark's scale (SF 0.004: 600 customers, 40 suppliers).
func testRankedEagerReference(t *testing.T) {
	if os.Getenv("SIZELOS_INTEGRATION") == "1" {
		cases := rankedGrid(0)
		t.Logf("full grid: %d cases", len(cases))
		checkRankedGrid(t, openTPCH(t, 0.004), cases)
		return
	}
	checkRankedGrid(t, openTPCH(t, 0.002), rankedGrid(60))
}

// TestRankedSealsCandidates is the loop's payoff made observable: with the
// bound table warm, a top-10 over the 600 Customers scores under a quarter
// of them and accounts for every other one as sealed; without a K nothing
// can seal. The answers are the eager reference's throughout — with a
// summary cache on that the ranking reads (a /search page left it 5
// entries) and never adds to — and so are the pages of a paged top-10.
func TestRankedSealsCandidates(t *testing.T) {
	eng := openTPCH(t, 0.004)
	req := QueryRequest{Rel: "Customer", Query: "customer", L: 25, RankBySummary: true, K: 10}
	want := refSummaries(t, eng, req)
	eng.EnableSummaryCache(64)
	if _, err := search(eng, req.Rel, req.Query, req.L, QueryRequest{Limit: 5}); err != nil {
		t.Fatalf("QueryPage: %v", err)
	}

	var cold, warm QueryStats
	for _, stats := range []*QueryStats{&cold, &warm} {
		got, _, st, err := eng.QueryPage(req)
		if err != nil {
			t.Fatalf("QueryPage: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("ranked top-10 diverged from the eager reference")
		}
		*stats = st
	}
	for name, st := range map[string]QueryStats{"cold": cold, "warm": warm} {
		if st.Matches != 600 || st.Matches != st.Summaries+st.Sealed+st.Skipped {
			t.Fatalf("%s stats %+v: want 600 matches, all accounted for", name, st)
		}
	}
	if cold.Sealed == 0 {
		t.Fatalf("cold pass sealed nothing in-round: %+v", cold)
	}
	if warm.Summaries > warm.Matches/4 {
		t.Fatalf("warm top-10 scored %d of %d candidates, want at most a quarter", warm.Summaries, warm.Matches)
	}
	if cs, _ := eng.SummaryCacheStats(); cs.Len != 5 || cs.Hits != 10 {
		t.Fatalf("cache %+v: two rankings must hit the 5 cached candidates and cache nothing themselves", cs)
	}

	all := req
	all.K = 0
	_, _, st, err := eng.QueryPage(all)
	if err != nil {
		t.Fatalf("QueryPage(K=0): %v", err)
	}
	if st.Sealed != 0 || st.Summaries != st.Matches {
		t.Fatalf("K=0 stats %+v: a full ranking must score every candidate", st)
	}

	// Paged: 4+4+2 over the same top-10, every page bit-identical.
	paged := req
	paged.Limit = 4
	var walked []Summary
	for {
		got, cursor, _, err := eng.QueryPage(paged)
		if err != nil {
			t.Fatalf("ranked page: %v", err)
		}
		walked = append(walked, got...)
		if paged.Cursor = cursor; cursor == "" {
			break
		}
	}
	if !reflect.DeepEqual(walked, want) {
		t.Fatalf("paged top-10 (%d summaries) diverged from the eager reference", len(walked))
	}
}

// TestRankedRaceMutation ranks one relation from 8 goroutines at different
// l — all filling and reading the same bound tables under the read lock —
// while a writer mutates underneath. Every answer must be a correct top-k
// of some engine state: k summaries in rank order whose Im(S) a fresh SizeL
// of the final state reproduces once the writer is done. Under -race this is
// the proof the table's publication is ordered.
func TestRankedRaceMutation(t *testing.T) {
	eng := mutableDBLP(t)
	eng.EnableSummaryCache(32)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 12; i++ {
			batch := insertAuthorBatch(t, eng, 930001+int64(i)*10, "Rankracer Faloutsos", "Efficient Sealed Bounds")
			batch.Rerank = i%4 == 3
			if _, err := eng.Mutate(batch); err != nil {
				t.Errorf("Mutate: %v", err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				req := QueryRequest{Rel: "Paper", Query: "efficient", L: 3 + 2*g + i%2, RankBySummary: true, K: 2}
				got, _, stats, err := eng.QueryPage(req)
				if err != nil {
					t.Errorf("QueryPage: %v", err)
					return
				}
				if len(got) != 2 || stats.Matches != stats.Summaries+stats.Sealed+stats.Skipped {
					t.Errorf("l=%d: %d summaries, stats %+v", req.L, len(got), stats)
					return
				}
				if a, b := got[0], got[1]; a.Result.Importance < b.Result.Importance ||
					(a.Result.Importance == b.Result.Importance && a.Tuple > b.Tuple) {
					t.Errorf("l=%d: page out of rank order", req.L)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	<-done
	// Quiescent again: whatever the tables remember now must still be exact.
	for _, l := range []int{3, 9, 18} {
		req := QueryRequest{Rel: "Paper", Query: "efficient", L: l, RankBySummary: true, K: 2}
		got, _, stats, err := eng.QueryPage(req)
		if err != nil {
			t.Fatalf("QueryPage: %v", err)
		}
		if stats.Sealed == 0 {
			t.Fatalf("l=%d: %+v: the race never exercised a remembered bound", l, stats)
		}
		if want := refSummaries(t, eng, req); !reflect.DeepEqual(got, want) {
			t.Fatalf("l=%d: post-race ranked page diverged from the eager reference", l)
		}
	}
}

// forgeCursor rewrites the position of a legitimate cursor, keeping its
// fingerprint and epoch.
func forgeCursor(t testing.TB, cursor string, consumed uint64) string {
	t.Helper()
	w, err := decodeCursor(cursor)
	if err != nil {
		t.Fatalf("decodeCursor(%q): %v", cursor, err)
	}
	w.Consumed = consumed
	return encodeCursor(w)
}

// checkForgedPositions: a cursor whose fingerprint and epoch are genuine but
// whose position lies past the answer's end is malformed — not a negative
// slice bound (ranked, once a panic) or a page from a wrapped position
// (search) — while the end itself still resumes, to an empty last page.
func checkForgedPositions(t *testing.T, eng *Engine, req QueryRequest, cursor string, end int) {
	t.Helper()
	for _, pos := range []uint64{0x8000000000000000, 0xffffffffffffffff, 1 << 40, uint64(end) + 1} {
		req.Cursor = forgeCursor(t, cursor, pos)
		if _, _, _, err := eng.QueryPage(req); !errors.Is(err, ErrCursorMalformed) {
			t.Errorf("QueryPage(%+v) at forged position %d: error = %v, want ErrCursorMalformed", req, pos, err)
		}
	}
	req.Cursor = forgeCursor(t, cursor, uint64(end))
	if page, next, _, err := eng.QueryPage(req); err != nil || len(page) != 0 || next != "" {
		t.Errorf("QueryPage(%+v) at the end position: %d summaries, cursor %q, err %v", req, len(page), next, err)
	}
}

// FuzzQueryCursor splices 24 arbitrary bytes into the cursor of a valid
// query — as they come, and behind the query's genuine fingerprint and
// epoch so the position bytes reach the engine — and requires QueryPage to
// answer with a typed refusal or the exact page at that position, and never
// to mint a follow-up cursor that does not advance.
func FuzzQueryCursor(f *testing.F) {
	f.Add(make([]byte, cursorWireLen), false)
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x80\x00\x00\x00\x00\x00\x00\x00"), true)
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"), true)
	f.Add([]byte("short"), false)

	eng := mutableDBLP(f)
	full := map[bool][]Summary{}
	first := map[bool]cursorWire{}
	request := func(ranked bool) QueryRequest {
		return QueryRequest{Rel: "Author", Query: "Faloutsos", L: 4, Limit: 1, RankBySummary: ranked, K: 2}
	}
	for _, ranked := range []bool{false, true} {
		req := request(ranked)
		_, cursor, _, err := eng.QueryPage(req)
		if err != nil || cursor == "" {
			f.Fatalf("QueryPage(%+v) = cursor %q, err %v", req, cursor, err)
		}
		first[ranked], _ = decodeCursor(cursor)
		req.Limit = 0
		if full[ranked], _, _, err = eng.QueryPage(req); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, ranked bool) {
		req := request(ranked)
		spliced := make([]byte, cursorWireLen)
		copy(spliced, raw)
		genuine, _ := decodeCursor(base64.RawURLEncoding.EncodeToString(spliced))
		genuine.Fingerprint, genuine.Epoch = first[ranked].Fingerprint, first[ranked].Epoch
		for _, cursor := range []string{base64.RawURLEncoding.EncodeToString(raw), encodeCursor(genuine)} {
			req.Cursor = cursor
			page, next, _, err := eng.QueryPage(req)
			if err != nil {
				if !errors.Is(err, ErrCursorMalformed) && !errors.Is(err, ErrStreamInvalidated) {
					t.Fatalf("cursor %q: untyped error %v", cursor, err)
				}
				continue
			}
			at, _ := decodeCursor(cursor)
			want := full[ranked][min(at.Consumed, uint64(len(full[ranked]))):]
			if len(want) > req.Limit {
				want = want[:req.Limit]
			}
			if !reflect.DeepEqual(page, want) {
				t.Fatalf("cursor %q (position %d): served %d summaries, want the %d at that position", cursor, at.Consumed, len(page), len(want))
			}
			if next != "" {
				if n, _ := decodeCursor(next); n.Consumed <= at.Consumed || n.Consumed > uint64(len(full[ranked])) {
					t.Fatalf("cursor %q (position %d): follow-up position %d does not advance inside the answer", cursor, at.Consumed, n.Consumed)
				}
			}
		}
	})
}

// rankedAfterBatch is TestMutationEquivalence's ranked leg: one top-k on the
// live engine — whose bound tables earlier rounds warmed, so a table that
// outlived its epoch would order and seal by stale weights — against the
// same query on rebuilt, an engine restored from the live one's exported
// state.
func rankedAfterBatch(t *testing.T, eng, rebuilt *Engine, round int, req QueryRequest) {
	t.Helper()
	got, _, stats, err := eng.QueryPage(req)
	if err != nil {
		t.Fatalf("round %d: live ranked query: %v", round, err)
	}
	if stats.Matches != stats.Summaries+stats.Sealed+stats.Skipped {
		t.Fatalf("round %d: ranked stats %+v do not add up", round, stats)
	}
	want, _, _, err := rebuilt.QueryPage(req)
	if err != nil {
		t.Fatalf("round %d: rebuilt ranked query: %v", round, err)
	}
	if err := sameRanking(got, want); err != nil {
		t.Fatalf("round %d: live ranked page diverged from the rebuilt engine's: %v", round, err)
	}
}

// sameRanking compares two engines' pages summary by summary.
func sameRanking(got, want []Summary) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d summaries, want %d", len(got), len(want))
	}
	for i := range got {
		if g, w := got[i], want[i]; !sameSummary(g, w) {
			return fmt.Errorf("rank %d: tuple %d (Im %v), want tuple %d (Im %v)", i, g.Tuple, g.Result.Importance, w.Tuple, w.Result.Importance)
		}
	}
	return nil
}

// sameSummary compares two engines' summaries field by field (their Trees
// point into different databases, so DeepEqual would walk both stores).
func sameSummary(g, w Summary) bool {
	return g.Tuple == w.Tuple && g.Headline == w.Headline && g.Text == w.Text &&
		g.Result.Importance == w.Result.Importance && reflect.DeepEqual(g.Result.Nodes, w.Result.Nodes)
}

// TestRankedAllocCeiling pins what a warm-table top-10 over the Customers
// allocates: trees drawn from the request's free list, one extraction
// source, child lists cut from ostree.Iota. The ceiling is the count
// measured when it was set (CHANGES.md has the count before the kernel
// stopped allocating per node); a change that needs more says why.
func TestRankedAllocCeiling(t *testing.T) {
	const ceiling = 2276
	eng := openTPCH(t, 0.002)
	req := QueryRequest{Rel: "Customer", Query: "customer", L: 30, RankBySummary: true, K: 10}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, _, err := eng.QueryPage(req); err != nil {
			t.Fatal(err)
		}
	})
	_, _, stats, _ := eng.QueryPage(req)
	t.Logf("warm top-10 over %d Customers at l=%d, %d scored: %v allocs", stats.Matches, req.L, stats.Summaries, allocs)
	if allocs > ceiling {
		t.Fatalf("a warm ranked top-10 allocates %v times, ceiling %d", allocs, ceiling)
	}
}
