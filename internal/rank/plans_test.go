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
// dampings racing over one compiled *Plans. Run under -race in CI.
func TestRunConcurrentOnSharedPlans(t *testing.T) {
	_, g := citeChain(t)
	plans, err := Compile(g, citationGA(), nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	dampings := []float64{0.85, 0.10, 0.99}
	results := make([]relational.DBScores, len(dampings))
	var wg sync.WaitGroup
	for i, d := range dampings {
		wg.Add(1)
		go func(i int, d float64) {
			defer wg.Done()
			opts := DefaultOptions()
			opts.Damping = d
			sc, _, err := plans.Run(opts)
			if err != nil {
				t.Errorf("Run(d=%v): %v", d, err)
				return
			}
			results[i] = sc
		}(i, d)
	}
	wg.Wait()
	for i, d := range dampings {
		if results[i] == nil {
			continue
		}
		opts := DefaultOptions()
		opts.Damping = d
		want, _, err := compute(g, citationGA(), opts)
		if err != nil {
			t.Fatalf("compute(d=%v): %v", d, err)
		}
		scoresEqualBitwise(t, "concurrent", results[i], want)
	}
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
