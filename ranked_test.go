package sizelos

import (
	"cmp"
	"encoding/base64"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"sizelos/internal/datagen"
	"sizelos/internal/ostree"
	"sizelos/internal/relational"
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
// ordering, sealing or bound table) five times: on a cold bound table, on
// the table that run left (its exact Im(S) memo included), after a query at
// the next smaller and then the next larger l of the grid re-warmed an
// emptied table — so a bound read from a profile recorded at another l is
// exercised both ways — and after another algorithm at the same l warmed an
// emptied table, whose exact values must not be read at this case's key.
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
		warmWith := func(l int, algo Algorithm) {
			t.Helper()
			warm := req
			warm.L, warm.Algorithm = l, algo
			if _, _, _, err := eng.QueryPage(warm); err != nil {
				t.Fatalf("%+v warming at l=%d with %s: %v", c, l, algo, err)
			}
		}
		warmAt := func(l int) { t.Helper(); warmWith(l, c.algo) }
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
		eng.bounds = nil
		warmWith(c.l, rankedAlgos[(slices.Index(rankedAlgos, c.algo)+1)%len(rankedAlgos)])
		ask("table warmed by another algorithm at the same l")
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
// bound table warm, a repeated top-10 over the 600 Customers scores no more
// than the 10 it serves and accounts for every other one as sealed; without
// a K nothing can seal. The answers are the eager reference's throughout —
// with a summary cache on that the ranking reads (a /search page left it 5
// entries) and never adds to — and so are the pages of a paged top-10.
func TestRankedSealsCandidates(t *testing.T) {
	eng := openTPCH(t, 0.004)
	req := QueryRequest{Rel: "Customer", Query: "customer", L: 25, RankBySummary: true, K: 10}
	want := refSummaries(t, eng, req)
	eng.EnableSummaryCache(64)
	cached, err := search(eng, req.Rel, req.Query, req.L, QueryRequest{Limit: 5})
	if err != nil {
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
		t.Fatalf("cold pass sealed nothing: %+v", cold)
	}
	if warm.Summaries > req.K {
		t.Fatalf("warm top-10 scored %d of %d candidates, want at most %d", warm.Summaries, warm.Matches, req.K)
	}
	// The cold ranking reads the 5 cached candidates first, since it knows no
	// bound for them, and remembers their exact Im(S). The warm one reads
	// again only the cached candidates that memo cannot seal: those in the
	// top 10 (all 5 of them on this fixture, so 10 hits in all).
	hits := uint64(5)
	for _, s := range want {
		if slices.ContainsFunc(cached, func(c Summary) bool { return c.Tuple == s.Tuple }) {
			hits++
		}
	}
	if cs, _ := eng.SummaryCacheStats(); cs.Len != 5 || cs.Hits != hits {
		t.Fatalf("cache %+v: two rankings must hit the cached candidates %d times and cache nothing themselves", cs, hits)
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

// TestRankedExactMemo proves the bound table's exact Im(S) is read only at
// the key and the epoch it was scored at. A repeated top-10 scores at most
// the K it serves, plus any candidate whose Im(S) ties the K-th within the
// bound's slack. The same warm table asked at l ± 1, with another algorithm
// or from the complete OS scores more, and exactly what the table's prefix
// sums alone would leave it, because it may not borrow another key's value.
// A batch outside Customer's dependency set leaves the memo in
// force; one inside it leaves the next query scoring exactly like a cold
// table. Every page is the eager reference's.
func TestRankedExactMemo(t *testing.T) {
	if n := unsafe.Sizeof(exactIm{}); n > 16 {
		t.Fatalf("a remembered Im(S) takes %d bytes, want at most 16", n)
	}
	eng := openTPCH(t, 0.004)
	base := QueryRequest{Rel: "Customer", Query: "customer", L: 25, RankBySummary: true, K: 10}
	ask := func(stage string, req QueryRequest) QueryStats {
		t.Helper()
		got, _, stats, err := eng.QueryPage(req)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if want := refSummaries(t, eng, req); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ranked page diverged from the eager reference", stage)
		}
		return stats
	}
	// revisit is what a repeat of req may score: the K best, and every later
	// candidate that ties the K-th within the slack (sealedBy is strict).
	revisit := func(req QueryRequest) int {
		t.Helper()
		all := req
		all.K = 0
		full := refSummaries(t, eng, all)
		n := req.K
		for n < len(full) && !sealedBy(full[n].Result.Importance, full[req.K-1].Result.Importance) {
			n++
		}
		return n
	}

	cold := ask("cold", base)
	if cold.Summaries <= base.K {
		t.Fatalf("cold top-10 scored %d: nothing left for the memo to save", cold.Summaries)
	}
	if st, most := ask("repeat", base), revisit(base); st.Summaries > most {
		t.Fatalf("repeated top-10 scored %d, want at most %d", st.Summaries, most)
	}

	// Another key must read the warm table exactly as if it held prefix sums
	// alone: forget drops every remembered Im(S) and keeps the rest.
	forget := func() {
		for _, tb := range eng.bounds {
			for id, p := range tb.profiles {
				p.exact = nil
				tb.profiles[id] = p
			}
		}
	}
	type variant struct {
		name string
		req  QueryRequest
	}
	var others []variant
	for _, dl := range []int{-1, 1} {
		req := base
		req.L += dl
		others = append(others, variant{fmt.Sprintf("l=%d", req.L), req})
	}
	for _, algo := range []Algorithm{AlgoBottomUp, AlgoDP} {
		req := base
		req.Algorithm = algo
		others = append(others, variant{string(algo), req})
	}
	complete := base
	complete.Complete = true
	others = append(others, variant{"complete", complete})
	for _, o := range others {
		eng.bounds = nil
		ask("warming for "+o.name, base)
		forget()
		want := ask(o.name+" on prefix sums alone", o.req)
		eng.bounds = nil
		ask("warming for "+o.name, base)
		if got := ask(o.name+" on a table warmed at the base key", o.req); got != want || got.Summaries <= o.req.K {
			t.Fatalf("%s on a table warmed at l=%d with %s scored %+v, on its prefix sums alone %+v: it read another key's Im(S)",
				o.name, base.L, AlgoTopPath, got, want)
		}
	}

	// Parts is outside Customer's dependency set, Orders inside it.
	customers := eng.DB().Relation("Customer")
	top := refSummaries(t, eng, base)[0].Tuple
	batches := []struct {
		name   string
		insert TupleInsert
	}{
		{"outside", TupleInsert{Rel: "Parts", Tuple: relational.Tuple{relational.IntVal(9_000_001), relational.StrVal("memo part"), relational.FloatVal(1)}}},
		{"inside", TupleInsert{Rel: "Orders", Tuple: relational.Tuple{relational.IntVal(9_000_002), relational.IntVal(customers.PK(top)), relational.FloatVal(1e6), relational.StrVal("1998-08-02")}}},
	}
	for _, b := range batches {
		eng.bounds = nil
		ask("warming before the "+b.name+" batch", base)
		if _, err := eng.Mutate(MutationBatch{Inserts: []TupleInsert{b.insert}}); err != nil {
			t.Fatalf("%s batch: %v", b.name, err)
		}
		after := ask("after the "+b.name+" batch", base)
		if b.name == "outside" {
			if most := revisit(base); after.Summaries > most {
				t.Fatalf("after a batch outside the dependency set the top-10 scored %d, want at most %d", after.Summaries, most)
			}
			continue
		}
		eng.bounds = nil
		if fresh := ask("cold after the inside batch", base); after != fresh {
			t.Fatalf("after a batch inside the dependency set the top-10 scored %+v, a cold table %+v", after, fresh)
		}
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

// rankedAfterBatch is TestMutationEquivalence's ranked leg: a top-k on the
// live engine — whose bound tables earlier rounds warmed, so a table that
// outlived its epoch would order and seal by stale weights — asked twice, so
// the second reads the exact Im(S) the first wrote this round, each against
// the same query on rebuilt, an engine restored from the live one's exported
// state.
func rankedAfterBatch(t *testing.T, eng, rebuilt *Engine, round int, req QueryRequest) {
	t.Helper()
	want, _, _, err := rebuilt.QueryPage(req)
	if err != nil {
		t.Fatalf("round %d: rebuilt ranked query: %v", round, err)
	}
	for _, pass := range []string{"first", "repeated"} {
		got, _, stats, err := eng.QueryPage(req)
		if err != nil {
			t.Fatalf("round %d: %s live ranked query: %v", round, pass, err)
		}
		if stats.Matches != stats.Summaries+stats.Sealed+stats.Skipped {
			t.Fatalf("round %d: %s ranked stats %+v do not add up", round, pass, stats)
		}
		if err := sameRanking(got, want); err != nil {
			t.Fatalf("round %d: %s live ranked page diverged from the rebuilt engine's: %v", round, pass, err)
		}
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

// TestRankedAllocCeiling pins what a warm-table top-10 allocates: the exact
// Im(S) memo leaves only the 10 it serves to build, one extraction source,
// every prelim-l OS built into an arena the engine reuses across requests,
// child lists cut from ostree.Iota, and only the size-l OSs kept. It pins
// the allocation count over the Customers, and the mean bytes per page over
// 50 pages for them and for the Suppliers, whose larger prelim-l OSs no
// summary pins any more. Each ceiling is what was measured when it was set
// (CHANGES.md has the figures before the kernel stopped allocating per
// node, before the memo and before the reused arena); a change that needs
// more says why.
func TestRankedAllocCeiling(t *testing.T) {
	const ceiling = 991
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
	for _, c := range []struct {
		rel     string
		ceiling uint64
	}{{"Customer", 200 << 10}, {"Supplier", 280 << 10}} {
		req := QueryRequest{Rel: c.rel, Query: strings.ToLower(c.rel), L: 30, RankBySummary: true, K: 10}
		if _, _, _, err := eng.QueryPage(req); err != nil {
			t.Fatal(err)
		}
		const pages = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range pages {
			if _, _, _, err := eng.QueryPage(req); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perPage := (after.TotalAlloc - before.TotalAlloc) / pages
		t.Logf("warm top-10 over the %ss at l=%d: %d bytes per page", c.rel, req.L, perPage)
		if perPage > c.ceiling {
			t.Fatalf("a warm ranked top-10 over the %ss allocates %d bytes, ceiling %d", c.rel, perPage, c.ceiling)
		}
	}
}

// TestSummaryTreeOutlivesArena: a served summary's Tree is its own size-l
// OS, not the reused prelim-l arena it was selected from, so a plain and a
// ranked page kept while 200 plain and ranked queries from four goroutines
// build into the engine's arenas still render as they were served, with Result.Nodes
// numbering the tree's nodes.
func TestSummaryTreeOutlivesArena(t *testing.T) {
	eng := openTPCH(t, 0.002)
	var kept []Summary
	for _, req := range []QueryRequest{
		{Rel: "Supplier", Query: "supplier", L: 30, Limit: 10, ShowWeights: true},
		{Rel: "Supplier", Query: "supplier", L: 30, RankBySummary: true, K: 10, ShowWeights: true},
	} {
		page, _, _, err := eng.QueryPage(req)
		if err != nil {
			t.Fatalf("QueryPage: %v", err)
		}
		if len(page) != 10 {
			t.Fatalf("%+v: %d summaries, want 10", req, len(page))
		}
		kept = append(kept, page...)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				c := rankedCase{
					rel: rankedRels[(g+i)%2], setting: rankedSettings[i%len(rankedSettings)],
					l: rankedLs[(g+i)%len(rankedLs)], k: 10, algo: rankedAlgos[i%len(rankedAlgos)], complete: i%5 == 4,
				}
				req := c.request()
				req.RankBySummary, req.Limit = i%2 == 0, 10
				if _, _, _, err := eng.QueryPage(req); err != nil {
					t.Errorf("QueryPage %+v: %v", req, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, s := range kept {
		if got := s.Tree.Render(ostree.RenderOptions{ShowWeights: true}); got != s.Text {
			t.Fatalf("Supplier %d re-renders\n%s\nbut was served\n%s", s.Tuple, got, s.Text)
		}
		if s.Tree.Len() != len(s.Result.Nodes) {
			t.Fatalf("Supplier %d: tree of %d nodes for a %d-node summary", s.Tuple, s.Tree.Len(), len(s.Result.Nodes))
		}
		for i, id := range s.Result.Nodes {
			if id != ostree.NodeID(i) {
				t.Fatalf("Supplier %d: Result.Nodes %v do not number its tree", s.Tuple, s.Result.Nodes)
			}
		}
	}
}

// TestCandidateOrderIsStableSort: byBound orders a ranked request's
// candidates exactly as a stable sort by bound descending would, over
// seeded bound vectors full of ties and unbounded (+Inf) subjects.
func TestCandidateOrderIsStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	values := []float64{math.Inf(1), 0, 0.5, 1.25, 3}
	for trial := 0; trial < 500; trial++ {
		cands := make([]candidate, r.Intn(700))
		for i := range cands {
			cands[i] = candidate{tuple: relational.TupleID(r.Intn(1000)), pos: int32(i), bound: values[r.Intn(len(values))]}
			if r.Intn(4) == 0 {
				cands[i].bound = r.Float64()
			}
		}
		want := slices.Clone(cands)
		slices.SortStableFunc(want, func(a, b candidate) int { return cmp.Compare(b.bound, a.bound) })
		slices.SortFunc(cands, byBound)
		if !slices.Equal(cands, want) {
			t.Fatalf("trial %d: byBound order differs from the stable sort by bound", trial)
		}
	}
}
