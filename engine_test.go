package sizelos

import (
	"context"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"sizelos/internal/datagen"
	"sizelos/internal/datagraph"
	"sizelos/internal/ostree"
	"sizelos/internal/rank"
	"sizelos/internal/relational"
	"sizelos/internal/searchexec"
	"sizelos/internal/sizel"
)

// testDBLP opens a small DBLP engine once per test binary.
var dblpEngine *Engine

func getDBLP(t *testing.T) *Engine {
	t.Helper()
	if dblpEngine != nil {
		return dblpEngine
	}
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 100
	cfg.Papers = 500
	cfg.Conferences = 8
	cfg.YearSpan = 5
	eng, err := OpenDBLP(cfg)
	if err != nil {
		t.Fatalf("OpenDBLP: %v", err)
	}
	dblpEngine = eng
	return eng
}

// search and ranked are the tests' spelling of "every summary of this
// query": one QueryPage drained to req's Limit, in serving order.
func search(eng *Engine, rel, q string, l int, req QueryRequest) ([]Summary, error) {
	req.Rel, req.Query, req.L = rel, q, l
	sums, _, _, err := eng.QueryPage(req)
	return sums, err
}

func ranked(eng *Engine, rel, q string, l, k int, req QueryRequest) ([]Summary, error) {
	req.RankBySummary, req.K = true, k
	return search(eng, rel, q, l, req)
}

// computeRank is rank.Compile + Run in one shot: the cold reference ranking
// of g under ga.
func computeRank(g *datagraph.Graph, ga *rank.GA, opts rank.Options) (relational.DBScores, rank.Stats, error) {
	ps, err := rank.Compile(g, ga, nil)
	if err != nil {
		return nil, rank.Stats{}, err
	}
	return ps.Run(opts)
}

func TestSearchFaloutsos(t *testing.T) {
	eng := getDBLP(t)
	results, err := search(eng, "Author", "Faloutsos", 15, QueryRequest{})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("Q1 'Faloutsos' returned %d results, want the 3 brothers", len(results))
	}
	for _, r := range results {
		if !strings.Contains(r.Headline, "Faloutsos") {
			t.Errorf("headline %q does not mention Faloutsos", r.Headline)
		}
		if len(r.Result.Nodes) != 15 {
			t.Errorf("%s: size-l OS has %d tuples, want 15", r.Headline, len(r.Result.Nodes))
		}
		if !r.Tree.IsConnectedSubtree(r.Result.Nodes) {
			t.Errorf("%s: summary disconnected", r.Headline)
		}
		if !strings.Contains(r.Text, "Author: ") {
			t.Errorf("%s: rendered text missing root line:\n%s", r.Headline, r.Text)
		}
	}
}

func TestSearchMultiKeyword(t *testing.T) {
	eng := getDBLP(t)
	results, err := search(eng, "Author", "Christos Faloutsos", 10, QueryRequest{})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results, want exactly Christos", len(results))
	}
	if results[0].Headline != "Christos Faloutsos" {
		t.Errorf("headline = %q", results[0].Headline)
	}
}

func TestSearchNoMatch(t *testing.T) {
	eng := getDBLP(t)
	results, err := search(eng, "Author", "Nonexistent Person", 10, QueryRequest{})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(results) != 0 {
		t.Errorf("got %d results for nonsense query", len(results))
	}
}

func TestAlgorithmsAgreeOnImportanceOrdering(t *testing.T) {
	eng := getDBLP(t)
	var imp = map[Algorithm]float64{}
	for _, algo := range []Algorithm{AlgoDP, AlgoBottomUp, AlgoTopPath} {
		res, err := search(eng, "Author", "Christos Faloutsos", 12, QueryRequest{Algorithm: algo})
		if err != nil {
			t.Fatalf("Search(%s): %v", algo, err)
		}
		if len(res) != 1 {
			t.Fatalf("Search(%s): %d results", algo, len(res))
		}
		imp[algo] = res[0].Result.Importance
	}
	if imp[AlgoBottomUp] > imp[AlgoDP]+1e-9 || imp[AlgoTopPath] > imp[AlgoDP]+1e-9 {
		t.Errorf("greedy beat DP: %v", imp)
	}
}

func TestCompleteVsPrelimAgree(t *testing.T) {
	eng := getDBLP(t)
	a, err := search(eng, "Author", "Christos Faloutsos", 15, QueryRequest{Complete: true})
	if err != nil {
		t.Fatalf("Search(complete): %v", err)
	}
	b, err := search(eng, "Author", "Christos Faloutsos", 15, QueryRequest{})
	if err != nil {
		t.Fatalf("Search(prelim): %v", err)
	}
	da := a[0].Result.Importance - b[0].Result.Importance
	if da < 0 {
		da = -da
	}
	// The paper reports prelim-l quality loss up to ~4%; on this workload
	// the two should essentially coincide.
	if da > 0.05*a[0].Result.Importance {
		t.Errorf("prelim importance %v deviates >5%% from complete %v",
			b[0].Result.Importance, a[0].Result.Importance)
	}
}

func TestSettings(t *testing.T) {
	eng := getDBLP(t)
	want := []string{"GA1-d1", "GA1-d2", "GA1-d3", "GA2-d1"}
	got := eng.SettingNames()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("SettingNames = %v, want %v", got, want)
	}
	for _, s := range want {
		res, err := search(eng, "Author", "Faloutsos", 5, QueryRequest{Setting: s})
		if err != nil {
			t.Fatalf("Search(%s): %v", s, err)
		}
		if len(res) != 3 {
			t.Errorf("Search(%s): %d results", s, len(res))
		}
	}
	if _, err := search(eng, "Author", "x", 5, QueryRequest{Setting: "nope"}); err == nil {
		t.Error("unknown setting accepted")
	}
}

func TestErrors(t *testing.T) {
	eng := getDBLP(t)
	if _, err := eng.SizeL(QueryRequest{Rel: "Ghost", L: 5}, 0); err == nil {
		t.Error("unknown DS relation accepted")
	}
	if _, err := eng.SizeL(QueryRequest{Rel: "Author", L: 5, Algorithm: "magic"}, 0); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := NewEngine(eng.DB(), nil); err == nil {
		t.Error("engine with no settings accepted")
	}
}

func TestLimit(t *testing.T) {
	eng := getDBLP(t)
	res, err := search(eng, "Author", "Faloutsos", 5, QueryRequest{Limit: 1})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(res) != 1 {
		t.Errorf("Limit=1 returned %d results", len(res))
	}
}

func testTPCHConfig() datagen.TPCHConfig {
	return datagen.TPCHConfig{Seed: 7, ScaleFactor: 0.0005}
}

func TestOpenTPCH(t *testing.T) {
	eng, err := OpenTPCH(testTPCHConfig())
	if err != nil {
		t.Fatalf("OpenTPCH: %v", err)
	}
	// Every customer name is unique: search one and summarize.
	res, err := search(eng, "Customer", "Customer#000001", 10, QueryRequest{})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d results", len(res))
	}
	if got := len(res[0].Result.Nodes); got > 10 || got < 1 {
		t.Errorf("size-l OS has %d tuples", got)
	}
	if !strings.Contains(res[0].Text, "Customer: ") {
		t.Errorf("render missing customer root:\n%s", res[0].Text)
	}
}

// TestEngineExportedSurface pins *Engine's exported method set, so a new
// method — the next Set* knob in particular — shows up as a diff of this
// list, the way TestQueryRequestFieldClassification does for request
// fields. The one settable value below has a caller outside this package's
// tests: SetMutationLog is the durable store's hook.
func TestEngineExportedSurface(t *testing.T) {
	want := []string{
		"CompactNow",
		"DB",
		"EnableSummaryCache",
		"EpochFor",
		"ExportState",
		"GDS",
		"Graph",
		"Index",
		"Mutate",
		"QueryPage",
		"RegisterAutoGDS",
		"RegisterGDS",
		"Scores",
		"SetMutationLog",
		"SettingNames",
		"SizeL",
		"SummaryCacheStats",
	}
	var got []string
	typ := reflect.TypeOf(&Engine{})
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("*Engine exports\n  %v\nwant\n  %v", got, want)
	}
}

// TestSummaryCache verifies the LRU short-circuits repeated queries and
// counts hits/misses, and that cached results are identical to fresh ones.
func TestSummaryCache(t *testing.T) {
	eng := getDBLP(t)
	defer eng.EnableSummaryCache(0)

	if _, ok := eng.SummaryCacheStats(); ok {
		t.Fatal("stats reported before cache enabled")
	}
	eng.EnableSummaryCache(128)

	fresh, err := search(eng, "Author", "Faloutsos", 15, QueryRequest{})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	st, ok := eng.SummaryCacheStats()
	if !ok {
		t.Fatal("cache enabled but no stats")
	}
	if st.Hits != 0 || st.Misses != uint64(len(fresh)) {
		t.Errorf("cold stats = %+v, want 0 hits / %d misses", st, len(fresh))
	}

	cached, err := search(eng, "Author", "Faloutsos", 15, QueryRequest{})
	if err != nil {
		t.Fatalf("repeat Search: %v", err)
	}
	if err := sameRanking(cached, fresh); err != nil {
		t.Fatalf("cached answer differs from the fresh one: %v", err)
	}
	st, _ = eng.SummaryCacheStats()
	if st.Hits != uint64(len(fresh)) {
		t.Errorf("warm stats = %+v, want %d hits", st, len(fresh))
	}

	// A different l is a different key: no false sharing.
	if _, err := search(eng, "Author", "Faloutsos", 5, QueryRequest{}); err != nil {
		t.Fatalf("Search(l=5): %v", err)
	}
	st2, _ := eng.SummaryCacheStats()
	if st2.Hits != st.Hits {
		t.Errorf("l=5 produced cache hits: %+v vs %+v", st2, st)
	}

	// Re-registering a G_DS invalidates the cache: entries computed under
	// the old schema graph must not survive.
	if err := eng.RegisterGDS(datagen.AuthorGDS().Threshold(Theta)); err != nil {
		t.Fatalf("RegisterGDS: %v", err)
	}
	st3, ok := eng.SummaryCacheStats()
	if !ok {
		t.Fatal("cache disabled by RegisterGDS")
	}
	if st3.Hits != 0 || st3.Misses != 0 || st3.Len != 0 {
		t.Errorf("cache not invalidated by RegisterGDS: %+v", st3)
	}
	if st3.Cap != st2.Cap {
		t.Errorf("cache capacity changed on invalidation: %d vs %d", st3.Cap, st2.Cap)
	}
}

// TestPoolWaitReprobeSharesSummary pins the engine's one guard against
// duplicate summary work: two identical cold requests parked on a saturated
// pool compute the subject's size-l OS once, because whichever runs second
// re-probes the cache after its wait and serves the first one's summary.
func TestPoolWaitReprobeSharesSummary(t *testing.T) {
	eng := mutableDBLP(t)
	eng.EnableSummaryCache(64)
	pool := searchexec.NewPool(1)
	hold, held := make(chan struct{}), make(chan struct{})
	go pool.Do(func() { close(held); <-hold })
	<-held

	req := QueryRequest{Rel: "Author", Query: "Faloutsos", L: 5, Limit: 1, Pool: pool}
	pages := make(chan []Summary, 2)
	for range 2 {
		go func() {
			sums, _, _, err := eng.QueryPage(req)
			if err != nil {
				t.Error(err)
			}
			pages <- sums
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); pool.Stats().Waited < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("pool stats %+v: both requests never queued", pool.Stats())
		}
	}
	close(hold)
	a, b := <-pages, <-pages
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("pages of %d and %d summaries, want 1 each", len(a), len(b))
	}
	if a[0].Tree != b[0].Tree {
		t.Fatalf("tuple %d was summarized twice: the second request did not re-probe the cache after its pool wait", a[0].Tuple)
	}
}

// TestSizeLBounds is the regression for the headline panic: out-of-range
// tuples and unknown relations must error, not panic.
func TestSizeLBounds(t *testing.T) {
	eng := getDBLP(t)
	if _, err := eng.SizeL(QueryRequest{Rel: "Author", L: 10}, 1<<30); err == nil {
		t.Error("SizeL with out-of-range tuple should error")
	}
	if _, err := eng.SizeL(QueryRequest{Rel: "Author", L: 10}, -1); err == nil {
		t.Error("SizeL with negative tuple should error")
	}
	if _, err := eng.SizeL(QueryRequest{Rel: "NoSuchRel", L: 10}, 0); err == nil {
		t.Error("SizeL with unknown relation should error")
	}
	// Search on an unknown relation reports cleanly too (no matches or error,
	// never a panic).
	if _, err := search(eng, "NoSuchRel", "x", 10, QueryRequest{}); err != nil {
		t.Logf("Search(unknown rel) errored cleanly: %v", err)
	}
}

// TestSizeOneIsRoot: a size-1 request builds its root alone — one node in
// the prelim arena, Complete on or off, under each algorithm — and serves
// what DP selects on the complete, unbounded OS (the root: footnote 1),
// selection, importance and text, for every DBLP Author and TPC-H Customer.
// The /ranked pages at l = 1 stay the eager reference's: the bound is now
// the root's weight alone, so candidates may seal sooner, never wrongly.
func TestSizeOneIsRoot(t *testing.T) {
	for _, tc := range []struct {
		eng *Engine
		rel string
	}{{getDBLP(t), "Author"}, {getTPCH(t), "Customer"}} {
		eng := tc.eng
		gds, err := eng.GDS(tc.rel, DefaultSetting)
		if err != nil {
			t.Fatal(err)
		}
		larger := 0
		for tuple := relational.TupleID(0); int(tuple) < eng.db.Relation(tc.rel).Len(); tuple++ {
			eng.mu.RLock()
			raw, f, err := eng.scoresLocked(DefaultSetting)
			if err != nil {
				t.Fatal(err)
			}
			complete, err := ostree.Generate(ostree.NewScaledGraphSource(eng.graph, raw, f), gds, tuple, ostree.GenOptions{})
			eng.mu.RUnlock()
			if err != nil {
				t.Fatal(err)
			}
			want, err := sizel.DP(context.Background(), complete, 1)
			if err != nil {
				t.Fatal(err)
			}
			wantText := complete.Compact(want.Nodes).Render(ostree.RenderOptions{})
			if complete.Len() > 1 {
				larger++
			}
			for _, algo := range []Algorithm{AlgoDP, AlgoBottomUp, AlgoTopPath} {
				for _, full := range []bool{false, true} {
					for len(eng.arenas) > 0 {
						<-eng.arenas
					}
					got, err := eng.SizeL(QueryRequest{Rel: tc.rel, L: 1, Algorithm: algo, Complete: full}, tuple)
					if err != nil {
						t.Fatal(err)
					}
					var built int
					select {
					case arena := <-eng.arenas:
						built = arena.Len()
					default:
					}
					if built != 1 {
						t.Fatalf("%s %d %s complete=%v: the size-1 request built %d nodes, want 1", tc.rel, tuple, algo, full, built)
					}
					if math.Float64bits(got.Result.Importance) != math.Float64bits(want.Importance) ||
						got.Tree.Len() != 1 || got.Tree.Nodes[0].Tuple != tuple || got.Text != wantText {
						t.Fatalf("%s %d %s complete=%v: %v %q, DP on the complete OS %v %q",
							tc.rel, tuple, algo, full, got.Result.Importance, got.Text, want.Importance, wantText)
					}
				}
			}
		}
		if larger == 0 {
			t.Fatalf("no %s has a complete OS of more than its root", tc.rel)
		}
	}
	var cases []rankedCase
	for _, k := range rankedKs {
		for _, algo := range rankedAlgos {
			for _, full := range []bool{false, true} {
				cases = append(cases, rankedCase{rel: "Customer", setting: DefaultSetting, l: 1, k: k, algo: algo, complete: full})
			}
		}
	}
	checkRankedGrid(t, openTPCH(t, 0.002), cases)
}
