package sizelos

// Serial-vs-parallel equivalence of the multicore hot paths: the rank
// engine's worker pool must reproduce the serial scores bit for bit on the
// real DBLP and TPC-H fixtures under all four evaluation settings, and the
// Search worker pool must return byte-identical summaries in the same
// order at every pool size. CI runs this file under -race.

import (
	"reflect"
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/datagraph"
	"sizelos/internal/rank"
	"sizelos/internal/relational"
)

func rankFixtures(t *testing.T) map[string]struct {
	g        *datagraph.Graph
	settings []Setting
} {
	t.Helper()
	dcfg := datagen.DefaultDBLPConfig()
	dcfg.Authors = 60
	dcfg.Papers = 250
	dcfg.Conferences = 5
	dcfg.YearSpan = 4
	ddb, err := datagen.GenerateDBLP(dcfg)
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	dg, err := datagraph.Build(ddb)
	if err != nil {
		t.Fatalf("Build(dblp): %v", err)
	}
	tdb, err := datagen.GenerateTPCH(testTPCHConfig())
	if err != nil {
		t.Fatalf("GenerateTPCH: %v", err)
	}
	tg, err := datagraph.Build(tdb)
	if err != nil {
		t.Fatalf("Build(tpch): %v", err)
	}
	return map[string]struct {
		g        *datagraph.Graph
		settings []Setting
	}{
		"dblp": {dg, DefaultSettings(datagen.DBLPGA1(), datagen.DBLPGA2())},
		"tpch": {tg, DefaultSettings(datagen.TPCHGA1(), datagen.TPCHGA2())},
	}
}

// TestRankSerialParallelEquivalence checks, per dataset and per setting,
// that a forced-parallel run reproduces the forced-serial scores exactly,
// and that compiling once and running per damping matches the one-shot
// Compute path.
func TestRankSerialParallelEquivalence(t *testing.T) {
	for name, fx := range rankFixtures(t) {
		t.Run(name, func(t *testing.T) {
			plansByGA := make(map[*rank.GA]*rank.Plans)
			for _, s := range fx.settings {
				t.Run(s.Name, func(t *testing.T) {
					opts := rank.DefaultOptions()
					opts.Damping = s.Damping
					opts.Parallel = 1
					want, wantStats, err := computeRank(fx.g, s.GA, opts)
					if err != nil {
						t.Fatalf("serial Compute: %v", err)
					}
					if !wantStats.Converged {
						t.Fatalf("serial run did not converge: %+v", wantStats)
					}
					plans, ok := plansByGA[s.GA]
					if !ok {
						plans, err = rank.Compile(fx.g, s.GA, nil)
						if err != nil {
							t.Fatalf("Compile: %v", err)
						}
						plansByGA[s.GA] = plans
					}
					for _, workers := range []int{2, 4, 8} {
						opts.Parallel = workers
						got, gotStats, err := plans.Run(opts)
						if err != nil {
							t.Fatalf("Run(workers=%d): %v", workers, err)
						}
						if gotStats != wantStats {
							t.Errorf("workers=%d: stats %+v vs %+v", workers, gotStats, wantStats)
						}
						assertScoresIdentical(t, s.Name, got, want)
					}
				})
			}
		})
	}
}

func assertScoresIdentical(t *testing.T, setting string, got, want relational.DBScores) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: relation count %d vs %d", setting, len(got), len(want))
	}
	for rel, w := range want {
		g := got[rel]
		if len(g) != len(w) {
			t.Fatalf("%s/%s: length %d vs %d", setting, rel, len(g), len(w))
		}
		for i := range w {
			// Bitwise equality; the ISSUE's ≤1e-12 bound is the fallback.
			if g[i] != w[i] {
				t.Errorf("%s/%s[%d]: %v vs %v", setting, rel, i, g[i], w[i])
			}
		}
	}
}

// TestSearchDeterministicUnderPool runs the same query at several pool
// sizes and repetitions: results must be deep-equal to the serial run,
// in the same order, every time.
func TestSearchDeterministicUnderPool(t *testing.T) {
	eng := getDBLP(t)
	serial, err := search(eng, "Author", "Faloutsos", 10, QueryRequest{Parallel: 1})
	if err != nil {
		t.Fatalf("serial Search: %v", err)
	}
	if len(serial) < 2 {
		t.Fatalf("want a multi-match query to exercise the pool, got %d matches", len(serial))
	}
	for _, workers := range []int{0, 2, 8} {
		for rep := 0; rep < 3; rep++ {
			got, err := search(eng, "Author", "Faloutsos", 10, QueryRequest{Parallel: workers})
			if err != nil {
				t.Fatalf("Search(workers=%d): %v", workers, err)
			}
			assertSummariesEqual(t, workers, got, serial)
		}
	}

	// The database-join source shares the DB's access counter across
	// workers; exercise it under the pool (race coverage for db.accesses).
	dbSerial, err := search(eng, "Author", "Faloutsos", 10, QueryRequest{Parallel: 1, FromDatabase: true})
	if err != nil {
		t.Fatalf("serial FromDatabase Search: %v", err)
	}
	for _, workers := range []int{0, 8} {
		got, err := search(eng, "Author", "Faloutsos", 10, QueryRequest{Parallel: workers, FromDatabase: true})
		if err != nil {
			t.Fatalf("FromDatabase Search(workers=%d): %v", workers, err)
		}
		assertSummariesEqual(t, workers, got, dbSerial)
	}
}

func TestRankedSearchDeterministicUnderPool(t *testing.T) {
	eng := getDBLP(t)
	serial, err := ranked(eng, "Author", "Faloutsos", 10, 5, QueryRequest{Parallel: 1})
	if err != nil {
		t.Fatalf("serial RankedSearch: %v", err)
	}
	for _, workers := range []int{0, 4} {
		got, err := ranked(eng, "Author", "Faloutsos", 10, 5, QueryRequest{Parallel: workers})
		if err != nil {
			t.Fatalf("RankedSearch(workers=%d): %v", workers, err)
		}
		assertSummariesEqual(t, workers, got, serial)
	}
}

func assertSummariesEqual(t *testing.T, workers int, got, want []Summary) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("workers=%d: %d results vs %d", workers, len(got), len(want))
	}
	for i := range want {
		if got[i].DSRel != want[i].DSRel || got[i].Tuple != want[i].Tuple ||
			got[i].Headline != want[i].Headline || got[i].Text != want[i].Text {
			t.Errorf("workers=%d: result %d differs: %s#%d vs %s#%d",
				workers, i, got[i].DSRel, got[i].Tuple, want[i].DSRel, want[i].Tuple)
		}
		if got[i].Result.Importance != want[i].Result.Importance {
			t.Errorf("workers=%d: result %d Im(S) %v vs %v",
				workers, i, got[i].Result.Importance, want[i].Result.Importance)
		}
		if !reflect.DeepEqual(got[i].Result.Nodes, want[i].Result.Nodes) {
			t.Errorf("workers=%d: result %d selected nodes differ", workers, i)
		}
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
	assertSummariesEqual(t, -1, cached, fresh)
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
