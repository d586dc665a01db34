package rank

import (
	"sync"
	"testing"

	"sizelos/internal/relational"
)

// scoresEqualBitwise fails unless the two score sets match exactly. The
// parallel engine partitions destinations, never a single destination's
// contribution list, so serial and parallel runs must agree bit for bit —
// stronger than the PR's ≤1e-12 acceptance bound.
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

func TestRunParallelBitwiseEqualSerial(t *testing.T) {
	_, gCite := citeChain(t)
	_, gVal := valueDB(t)
	cases := []struct {
		name  string
		plans func() (*Plans, error)
	}{
		{"objectrank", func() (*Plans, error) { return Compile(gCite, citationGA(), nil) }},
		{"valuerank", func() (*Plans, error) {
			return Compile(gVal, NewGA("VR").DirectValue("Orders", 0, false, 0.5, "total"), nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plans, err := tc.plans()
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			serial := DefaultOptions()
			serial.Parallel = 1
			want, wantStats, err := plans.Run(serial)
			if err != nil {
				t.Fatalf("serial Run: %v", err)
			}
			for _, workers := range []int{2, 3, 4, 8} {
				opts := DefaultOptions()
				opts.Parallel = workers
				got, gotStats, err := plans.Run(opts)
				if err != nil {
					t.Fatalf("Run(workers=%d): %v", workers, err)
				}
				if gotStats != wantStats {
					t.Errorf("workers=%d: stats %+v vs %+v", workers, gotStats, wantStats)
				}
				scoresEqualBitwise(t, tc.name, got, want)
			}
		})
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
			opts.Parallel = 2
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
