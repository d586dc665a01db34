package sizelos

// The rank layer as the engine drives it: each G_A compiled once, one run
// per setting, bit for bit the one-shot ranking of that setting on the real
// DBLP and TPC-H fixtures under all four evaluation settings.

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

// TestRankCompileOnceEqualsOneShot checks, per dataset and per setting,
// that compiling a G_A once and running it per damping — what the engine
// does — reproduces the one-shot Compile + Run of that setting exactly,
// stats included.
func TestRankCompileOnceEqualsOneShot(t *testing.T) {
	for name, fx := range rankFixtures(t) {
		t.Run(name, func(t *testing.T) {
			plansByGA := make(map[*rank.GA]*rank.Plans)
			for _, s := range fx.settings {
				t.Run(s.Name, func(t *testing.T) {
					opts := rank.DefaultOptions()
					opts.Damping = s.Damping
					want, wantStats, err := computeRank(fx.g, s.GA, opts)
					if err != nil {
						t.Fatalf("one-shot Compile + Run: %v", err)
					}
					if !wantStats.Converged {
						t.Fatalf("one-shot run did not converge: %+v", wantStats)
					}
					plans, ok := plansByGA[s.GA]
					if !ok {
						plans, err = rank.Compile(fx.g, s.GA, nil)
						if err != nil {
							t.Fatalf("Compile: %v", err)
						}
						plansByGA[s.GA] = plans
					}
					got, gotStats, err := plans.Run(opts)
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
					if !reflect.DeepEqual(gotStats, wantStats) {
						t.Errorf("stats %+v vs %+v", gotStats, wantStats)
					}
					assertScoresIdentical(t, s.Name, got, want)
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
			// Bitwise: both sides run the one canonical float program.
			if g[i] != w[i] {
				t.Errorf("%s/%s[%d]: %v vs %v", setting, rel, i, g[i], w[i])
			}
		}
	}
}
