package eval

import (
	"math"
	"strings"
	"testing"

	"sizelos"
	"sizelos/internal/datagen"
	"sizelos/internal/ostree"
	"sizelos/internal/relational"
)

var (
	engCache   *sizelos.Engine
	rootsCache []relational.TupleID
)

func testEngine(t *testing.T) (*sizelos.Engine, []relational.TupleID) {
	t.Helper()
	if engCache != nil {
		return engCache, rootsCache
	}
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 80
	cfg.Papers = 400
	cfg.Conferences = 6
	cfg.YearSpan = 5
	eng, err := sizelos.OpenDBLP(cfg)
	if err != nil {
		t.Fatalf("OpenDBLP: %v", err)
	}
	roots, err := PickRoots(eng, "Author", 4, 30, 42)
	if err != nil {
		t.Fatalf("PickRoots: %v", err)
	}
	engCache, rootsCache = eng, roots
	return eng, roots
}

func TestPickRoots(t *testing.T) {
	eng, roots := testEngine(t)
	if len(roots) != 4 {
		t.Fatalf("got %d roots", len(roots))
	}
	avg, err := AvgOSSize(eng, "Author", roots)
	if err != nil {
		t.Fatalf("AvgOSSize: %v", err)
	}
	if avg < 30 {
		t.Errorf("AvgOSSize = %v, want >= 30 (minOS)", avg)
	}
	// Deterministic.
	again, err := PickRoots(eng, "Author", 4, 30, 42)
	if err != nil {
		t.Fatalf("PickRoots: %v", err)
	}
	for i := range roots {
		if roots[i] != again[i] {
			t.Fatalf("PickRoots not deterministic: %v vs %v", roots, again)
		}
	}
}

func TestPickRootsErrors(t *testing.T) {
	eng, _ := testEngine(t)
	if _, err := PickRoots(eng, "Ghost", 2, 10, 1); err == nil {
		t.Error("unknown relation accepted")
	}
	if _, err := PickRoots(eng, "Author", 2, 1_000_000, 1); err == nil {
		t.Error("unreachable minOS accepted")
	}
}

func TestJudgePanelProperties(t *testing.T) {
	eng, roots := testEngine(t)
	cfg := DefaultJudgeConfig()
	cfg.Judges = 3
	panels, err := JudgePanel(eng, "Author", roots[0], 10, cfg)
	if err != nil {
		t.Fatalf("JudgePanel: %v", err)
	}
	if len(panels) != 3 {
		t.Fatalf("panel size %d", len(panels))
	}
	for _, p := range panels {
		if len(p) == 0 || len(p) > 10 {
			t.Errorf("judge summary size %d outside (0,10]", len(p))
		}
	}
	// Same seed → same panel; different seed → (almost surely) different.
	again, err := JudgePanel(eng, "Author", roots[0], 10, cfg)
	if err != nil {
		t.Fatalf("JudgePanel: %v", err)
	}
	for i := range panels {
		if len(panels[i]) != len(again[i]) {
			t.Fatalf("panel not deterministic")
		}
		for ref := range panels[i] {
			if !again[i][ref] {
				t.Fatalf("panel not deterministic: %v missing", ref)
			}
		}
	}
}

func TestEffectivenessShape(t *testing.T) {
	eng, roots := testEngine(t)
	cfg := DefaultJudgeConfig()
	cfg.Judges = 4
	ls := []int{5, 15, 30}
	fig, err := Effectiveness(eng, "Author", roots[:2], ls, []string{"GA1-d1", "GA2-d1"}, cfg)
	if err != nil {
		t.Fatalf("Effectiveness: %v", err)
	}
	if len(fig.Series) != 2 || len(fig.Series[0].Y) != len(ls) {
		t.Fatalf("malformed figure: %+v", fig)
	}
	for _, s := range fig.Series {
		for i, y := range s.Y {
			if y < 0 || y > 100 {
				t.Errorf("%s: effectiveness %v at l=%d outside [0,100]", s.Name, y, ls[i])
			}
		}
	}
	// The judges' perception anchors to GA1-d1, so that setting must win on
	// average.
	var d1, d2 float64
	for i := range ls {
		d1 += fig.Series[0].Y[i]
		d2 += fig.Series[1].Y[i]
	}
	if d1 < d2 {
		t.Errorf("GA1-d1 (%v) should dominate GA2-d1 (%v) against GA1-anchored judges", d1/3, d2/3)
	}
}

func TestSnippetComparisonShape(t *testing.T) {
	eng, roots := testEngine(t)
	cfg := DefaultJudgeConfig()
	cfg.Judges = 4
	fig, err := SnippetComparison(eng, "Author", roots[:2], cfg)
	if err != nil {
		t.Fatalf("SnippetComparison: %v", err)
	}
	// The size-5 OS must recover at least as many judge tuples as a static
	// 3-tuple snippet on every DS.
	for i := range fig.X {
		snip, os := fig.Series[0].Y[i], fig.Series[1].Y[i]
		if snip > os {
			t.Errorf("DS %d: snippet %v beat size-5 OS %v", i, snip, os)
		}
		if snip < 0 || snip > 3 {
			t.Errorf("snippet recovered %v tuples, outside [0,3]", snip)
		}
	}
}

func TestApproximationShape(t *testing.T) {
	eng, roots := testEngine(t)
	ls := []int{5, 10, 20}
	fig, err := Approximation(eng, "Author", roots[:2], ls, "GA1-d1")
	if err != nil {
		t.Fatalf("Approximation: %v", err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("want 4 method series, got %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		for i, y := range s.Y {
			if y < 50 || y > 100+1e-9 {
				t.Errorf("%s at l=%d: approximation %v outside (50,100]", s.Name, ls[i], y)
			}
		}
	}
}

func TestApproximationAcrossSettings(t *testing.T) {
	eng, roots := testEngine(t)
	fig, err := ApproximationAcrossSettings(eng, "Author", roots[:2], 10, []string{"GA1-d1", "GA1-d2"})
	if err != nil {
		t.Fatalf("ApproximationAcrossSettings: %v", err)
	}
	if len(fig.X) != 2 || len(fig.Series[0].Y) != 2 {
		t.Fatalf("malformed: %+v", fig)
	}
}

func TestEfficiencyShape(t *testing.T) {
	eng, roots := testEngine(t)
	ls := []int{5, 15}
	fig, err := Efficiency(eng, "Author", roots[:2], ls, "GA1-d1")
	if err != nil {
		t.Fatalf("Efficiency: %v", err)
	}
	if len(fig.Series) != 6 {
		t.Fatalf("want 6 series (4 greedy + 2 DP), got %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		for _, y := range s.Y {
			if !math.IsNaN(y) && y < 0 {
				t.Errorf("%s: negative time %v", s.Name, y)
			}
		}
	}
}

func TestScalabilitySorted(t *testing.T) {
	eng, roots := testEngine(t)
	fig, err := Scalability(eng, "Author", roots, 10, "GA1-d1")
	if err != nil {
		t.Fatalf("Scalability: %v", err)
	}
	for i := 1; i < len(fig.X); i++ {
		if fig.X[i] < fig.X[i-1] {
			t.Errorf("OS sizes not ascending: %v", fig.X)
		}
	}
}

func TestGenerationBreakdown(t *testing.T) {
	eng, roots := testEngine(t)
	fig, err := GenerationBreakdown(eng, "Author", roots[:2], []int{10}, "GA1-d1")
	if err != nil {
		t.Fatalf("GenerationBreakdown: %v", err)
	}
	byName := map[string][]float64{}
	for _, s := range fig.Series {
		byName[s.Name] = s.Y
	}
	if byName["|prelim|"][0] > byName["|complete|"][0] {
		t.Errorf("prelim size %v exceeds complete %v", byName["|prelim|"][0], byName["|complete|"][0])
	}
}

func TestLStability(t *testing.T) {
	eng, roots := testEngine(t)
	fig, err := LStability(eng, "Author", roots[:2], []int{5, 10}, "GA1-d1")
	if err != nil {
		t.Fatalf("LStability: %v", err)
	}
	for _, y := range fig.Series[0].Y {
		if y < 0 || y > 100+1e-9 {
			t.Errorf("stability %v outside [0,100]", y)
		}
	}
}

func TestFigureFormat(t *testing.T) {
	fig := Figure{
		Title:  "demo",
		XLabel: "l",
		X:      []float64{5, 10},
		Series: []Series{{Name: "a", Y: []float64{1.5, math.NaN()}}, {Name: "b", Y: []float64{0.001}}},
		Notes:  []string{"hello"},
	}
	out := fig.Format()
	for _, want := range []string{"== demo ==", "l", "a", "b", "1.500", ">cap", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

// TestSizeOneIsRootOnBothSources: at l = 1 the size-l OS that Figures 10
// and 10f generate and time is the root alone, through the data graph and
// through database joins, complete or prelim-l.
func TestSizeOneIsRootOnBothSources(t *testing.T) {
	eng, roots := testEngine(t)
	src, err := sourceOf(eng, "Author", sizelos.DefaultSetting)
	if err != nil {
		t.Fatal(err)
	}
	for name, from := range map[string]ostree.Source{"graph": src.graph, "db": ostree.NewDBSource(eng.DB(), src.scores)} {
		complete, err := src.sizeL(from, roots[0], 1)
		if err != nil {
			t.Fatal(err)
		}
		prelim, err := src.prelim(from, roots[0], 1)
		if err != nil {
			t.Fatal(err)
		}
		if complete.Len() != 1 || prelim.Len() != 1 {
			t.Fatalf("%s: the size-1 OSs hold %d (complete) and %d (prelim-l) nodes, want the root alone", name, complete.Len(), prelim.Len())
		}
	}
}
