package rank

import (
	"sync"
	"testing"

	"sizelos/internal/relational"
)

// scoresEqualBitwise fails unless the two score sets match exactly: every
// Run sums a destination's contributions in the one canonical order, so two
// runs over equal plans and options must agree bit for bit.
func scoresEqualBitwise(t *testing.T, name string, a, b relational.DBScores) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: relation count %d vs %d", name, len(a), len(b))
	}
	for rel, sa := range a {
		sb, ok := b[rel]
		if !ok {
			t.Fatalf("%s: relation %s missing", name, rel)
		}
		if len(sa) != len(sb) {
			t.Fatalf("%s: %s length %d vs %d", name, rel, len(sa), len(sb))
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Errorf("%s: %s[%d] = %v vs %v (diff %g)", name, rel, i, sa[i], sb[i], sa[i]-sb[i])
			}
		}
	}
}

func TestPlansReusedAcrossDampings(t *testing.T) {
	_, g := citeChain(t)
	plans, err := Compile(g, citationGA(), nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	for _, d := range []float64{0.85, 0.10, 0.99} {
		opts := DefaultOptions()
		opts.Damping = d
		want, _, err := compute(g, citationGA(), opts)
		if err != nil {
			t.Fatalf("compute(d=%v): %v", d, err)
		}
		got, _, err := plans.Run(opts)
		if err != nil {
			t.Fatalf("Run(d=%v): %v", d, err)
		}
		scoresEqualBitwise(t, "damping", got, want)
	}
}

// TestRunConcurrentOnSharedPlans is the engine's actual usage: three
// dampings racing over one compiled *Plans, freshly compiled (a cold start)
// and carrying an Apply overlay, each run warm from its own prior (a
// refresh round). Run under -race in CI.
func TestRunConcurrentOnSharedPlans(t *testing.T) {
	dampings := []float64{0.85, 0.10, 0.99}
	t.Run("fresh", func(t *testing.T) {
		_, g := citeChain(t)
		plans, err := Compile(g, citationGA(), nil)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		results := raceRuns(t, plans, dampings, make([]relational.DBScores, len(dampings)))
		for i, d := range dampings {
			opts := DefaultOptions()
			opts.Damping = d
			want, _, err := compute(g, citationGA(), opts)
			if err != nil {
				t.Fatalf("compute(d=%v): %v", d, err)
			}
			scoresEqualBitwise(t, "concurrent", results[i], want)
		}
	})
	t.Run("overlay", func(t *testing.T) {
		db, g, ps := ringFixture(t, 400, 2, 0.7)
		priors := make([]relational.DBScores, len(dampings))
		for i, d := range dampings {
			priors[i] = runAt(t, ps, d, nil)
		}
		res, err := db.Apply(ringBatch(db, 40))
		if err != nil {
			t.Fatalf("db.Apply: %v", err)
		}
		if err := g.Apply(res); err != nil {
			t.Fatalf("graph.Apply: %v", err)
		}
		ps.Apply(res, nil)
		if ps.Patched() == 0 {
			t.Fatal("Apply left no overlay rows")
		}
		results := raceRuns(t, ps, dampings, priors)
		for i, d := range dampings {
			scoresEqualBitwise(t, "concurrent over an overlay", results[i], runAt(t, ps, d, priors[i]))
		}
	})
}

// runAt is one unnormalized Run of ps at damping d, warm from warm when it
// is non-nil.
func runAt(t *testing.T, ps *Plans, d float64, warm relational.DBScores) relational.DBScores {
	t.Helper()
	opts := DefaultOptions()
	opts.Damping, opts.NormalizeMax, opts.Warm = d, 0, warm
	sc, st, err := ps.Run(opts)
	if err != nil || !st.Converged {
		t.Fatalf("Run(d=%v): err=%v stats=%+v", d, err, st)
	}
	return sc
}

// raceRuns runs ps at every damping at once, the i-th warm from warm[i]
// (nil: cold) and normalized when cold, as compute is.
func raceRuns(t *testing.T, ps *Plans, dampings []float64, warm []relational.DBScores) []relational.DBScores {
	t.Helper()
	results := make([]relational.DBScores, len(dampings))
	var wg sync.WaitGroup
	for i, d := range dampings {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := DefaultOptions()
			opts.Damping, opts.Warm = d, warm[i]
			if warm[i] != nil {
				opts.NormalizeMax = 0
			}
			sc, _, err := ps.Run(opts)
			if err != nil {
				t.Errorf("Run(d=%v): %v", d, err)
				return
			}
			results[i] = sc
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return results
}

func TestCompileErrors(t *testing.T) {
	_, g := citeChain(t)
	if _, err := Compile(g, NewGA("bad").Hop("Nope", 0, 1, 0.5), nil); err == nil {
		t.Error("Compile with unknown junction should fail")
	}
	if _, err := Compile(g, NewGA("bad").Direct("Nope", 0, true, 0.5), nil); err == nil {
		t.Error("Compile with unknown relation should fail")
	}
}

func TestPlansIntrospection(t *testing.T) {
	_, g := citeChain(t)
	plans, err := Compile(g, citationGA(), nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(plans.plans) != 1 {
		t.Errorf("%d compiled plans, want 1", len(plans.plans))
	}
	if plans.NumNodes() != 7 { // 4 papers + 3 cites rows
		t.Errorf("NumNodes = %d, want 7", plans.NumNodes())
	}
}

func TestRunInvalidDamping(t *testing.T) {
	_, g := citeChain(t)
	plans, err := Compile(g, citationGA(), nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	opts := DefaultOptions()
	opts.Damping = 1.5
	if _, _, err := plans.Run(opts); err == nil {
		t.Error("Run with damping 1.5 should fail")
	}
}
