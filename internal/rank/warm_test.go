package rank_test

import (
	"math"
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/datagraph"
	"sizelos/internal/rank"
	"sizelos/internal/relational"
)

// warmGraph builds a DBLP graph big enough that cold convergence takes a
// meaningful number of iterations.
func warmGraph(t *testing.T) *datagraph.Graph {
	t.Helper()
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 120
	cfg.Papers = 500
	db, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	g, err := datagraph.Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func maxAbsDiff(a, b relational.DBScores) float64 {
	worst := 0.0
	for rel, s := range a {
		o := b[rel]
		for i := range s {
			if d := math.Abs(s[i] - o[i]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// TestWarmStartConvergesToSameFixedPoint seeds a run with the previous
// converged raw vector and checks it (a) reports the warm start, (b) needs
// far fewer iterations, and (c) lands on the same scores within the
// epsilon-scale tolerance the unique fixed point guarantees.
func TestWarmStartConvergesToSameFixedPoint(t *testing.T) {
	g := warmGraph(t)
	plans, err := rank.Compile(g, datagen.DBLPGA1(), nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	opts := rank.DefaultOptions()
	opts.NormalizeMax = 0 // raw scores: what Warm must be fed with
	cold, coldStats, err := plans.Run(opts)
	if err != nil {
		t.Fatalf("cold Run: %v", err)
	}
	if coldStats.WarmStart {
		t.Fatal("cold run reported WarmStart")
	}

	opts.Warm = cold
	warm, warmStats, err := plans.Run(opts)
	if err != nil {
		t.Fatalf("warm Run: %v", err)
	}
	if !warmStats.WarmStart {
		t.Fatal("warm run did not report WarmStart")
	}
	if !warmStats.Converged {
		t.Fatal("warm run did not converge")
	}
	if warmStats.Iterations >= coldStats.Iterations {
		t.Fatalf("warm start saved nothing: %d iterations vs cold %d", warmStats.Iterations, coldStats.Iterations)
	}
	if warmStats.Iterations > 3 {
		t.Fatalf("warm restart from the converged vector took %d iterations, want <= 3", warmStats.Iterations)
	}
	if d := maxAbsDiff(cold, warm); d > 1e-8 {
		t.Fatalf("warm scores diverged from cold by %g", d)
	}
}

// TestWarmStartPartialCoverage feeds a warm vector missing one relation and
// shorter than another: uncovered slots must seed uniform and the run must
// still converge to the cold fixed point.
func TestWarmStartPartialCoverage(t *testing.T) {
	g := warmGraph(t)
	plans, err := rank.Compile(g, datagen.DBLPGA1(), nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	opts := rank.DefaultOptions()
	opts.NormalizeMax = 0
	cold, _, err := plans.Run(opts)
	if err != nil {
		t.Fatalf("cold Run: %v", err)
	}
	partial := relational.DBScores{}
	for rel, s := range cold {
		if rel == "Author" {
			continue // whole relation missing
		}
		keep := len(s) / 2 // half the slots missing
		partial[rel] = append(relational.Scores(nil), s[:keep]...)
	}
	opts.Warm = partial
	warm, stats, err := plans.Run(opts)
	if err != nil {
		t.Fatalf("partial warm Run: %v", err)
	}
	if !stats.Converged {
		t.Fatal("partial warm run did not converge")
	}
	if d := maxAbsDiff(cold, warm); d > 1e-7 {
		t.Fatalf("partial warm scores diverged from cold by %g", d)
	}
}

// TestNormalize pins the helper's contract: global max hits the target,
// rankings survive, zero vectors and non-positive targets are no-ops.
func TestNormalize(t *testing.T) {
	s := relational.DBScores{"A": {1, 4}, "B": {2}}
	rank.Normalize(s, 100)
	if s["A"][1] != 100 || s["A"][0] != 25 || s["B"][0] != 50 {
		t.Fatalf("Normalize: %v", s)
	}
	z := relational.DBScores{"A": {0, 0}}
	rank.Normalize(z, 100)
	if z["A"][0] != 0 {
		t.Fatalf("zero vector rescaled: %v", z)
	}
	rank.Normalize(s, 0)
	if s["A"][1] != 100 {
		t.Fatalf("NormalizeMax 0 rescaled: %v", s)
	}
}
