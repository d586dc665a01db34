package rank

import (
	"math"
	"testing"

	"sizelos/internal/datagraph"
	"sizelos/internal/relational"
)

// citeChain builds Papers p1..p4 with citations 2->1, 3->1, 4->3:
// p1 is cited twice, p3 once, p2/p4 never.
func citeChain(t *testing.T) (*relational.DB, *datagraph.Graph) {
	t.Helper()
	db := relational.NewDB("cites")
	paper := relational.MustNewRelation("Paper",
		[]relational.Column{{Name: "id", Kind: relational.KindInt}}, "id", nil)
	cites := relational.MustNewRelation("Cites",
		[]relational.Column{
			{Name: "id", Kind: relational.KindInt},
			{Name: "citing", Kind: relational.KindInt},
			{Name: "cited", Kind: relational.KindInt},
		}, "id", []relational.ForeignKey{
			{Column: "citing", Ref: "Paper"},
			{Column: "cited", Ref: "Paper"},
		})
	db.MustAddRelation(paper)
	db.MustAddRelation(cites)
	for i := int64(1); i <= 4; i++ {
		paper.MustInsert(relational.Tuple{relational.IntVal(i)})
	}
	links := [][2]int64{{2, 1}, {3, 1}, {4, 3}}
	for i, l := range links {
		cites.MustInsert(relational.Tuple{relational.IntVal(int64(i)), relational.IntVal(l[0]), relational.IntVal(l[1])})
	}
	g, err := datagraph.Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return db, g
}

// citationGA routes authority citing -> cited through the Cites junction in
// one hop: α(cites)=0.7, α(cited)=0, exactly the DBLP G_A of Figure 13a.
func citationGA() *GA {
	return NewGA("cite").Hop("Cites", 0, 1, 0.7)
}

// compute is Compile + Run in one shot, what most tests here want.
func compute(g *datagraph.Graph, ga *GA, opts Options) (relational.DBScores, Stats, error) {
	ps, err := Compile(g, ga, nil)
	if err != nil {
		return nil, Stats{}, err
	}
	return ps.Run(opts)
}

func TestObjectRankCitationOrder(t *testing.T) {
	_, g := citeChain(t)
	scores, stats, err := compute(g, citationGA(), DefaultOptions())
	if err != nil {
		t.Fatalf("compute: %v", err)
	}
	if !stats.Converged {
		t.Fatalf("did not converge: %+v", stats)
	}
	p := scores["Paper"]
	// p1 (cited twice, once by the well-cited p3) must rank highest; p3
	// (cited once) above the never-cited p2 and p4.
	if !(p[0] > p[2]) {
		t.Errorf("p1=%v should outrank p3=%v", p[0], p[2])
	}
	if !(p[2] > p[1]) || !(p[2] > p[3]) {
		t.Errorf("p3=%v should outrank p2=%v and p4=%v", p[2], p[1], p[3])
	}
	// Never-cited papers receive only the base score: equal.
	if math.Abs(p[1]-p[3]) > 1e-12 {
		t.Errorf("p2=%v and p4=%v should tie", p[1], p[3])
	}
}

func TestScoresNonNegativeAndNormalized(t *testing.T) {
	_, g := citeChain(t)
	opts := DefaultOptions()
	opts.NormalizeMax = 100
	scores, _, err := compute(g, citationGA(), opts)
	if err != nil {
		t.Fatalf("compute: %v", err)
	}
	max := 0.0
	for _, s := range scores {
		for _, v := range s {
			if v < 0 {
				t.Fatalf("negative score %v", v)
			}
			if v > max {
				max = v
			}
		}
	}
	if math.Abs(max-100) > 1e-9 {
		t.Errorf("max score = %v, want 100", max)
	}
}

func TestDampingExtremes(t *testing.T) {
	_, g := citeChain(t)
	// d=0: authority flow disabled; every tuple gets exactly 1/N (then
	// normalization scales all to NormalizeMax).
	opts := DefaultOptions()
	opts.Damping = 0
	scores, stats, err := compute(g, citationGA(), opts)
	if err != nil {
		t.Fatalf("compute: %v", err)
	}
	if stats.Iterations != 1 {
		t.Errorf("d=0 should converge in 1 iteration, took %d", stats.Iterations)
	}
	p := scores["Paper"]
	for i := 1; i < len(p); i++ {
		if math.Abs(p[i]-p[0]) > 1e-9 {
			t.Errorf("d=0: scores differ: %v", p)
		}
	}
}

func TestInvalidDamping(t *testing.T) {
	_, g := citeChain(t)
	opts := DefaultOptions()
	opts.Damping = 1.5
	if _, _, err := compute(g, citationGA(), opts); err == nil {
		t.Fatal("damping 1.5 accepted")
	}
}

func TestUniformLike(t *testing.T) {
	_, g := citeChain(t)
	base := NewGA("GA1").Hop("Cites", 0, 1, 0.7).Hop("Cites", 1, 0, 0.1)
	ga := base.UniformLike("GA2", 0.3)
	if len(ga.Flows) != 2 {
		t.Fatalf("UniformLike flows = %d, want 2", len(ga.Flows))
	}
	for _, f := range ga.Flows {
		if f.Rate != 0.3 || f.ValueCol != "" {
			t.Errorf("UniformLike flow = %+v, want rate 0.3 no value", f)
		}
	}
	if ga.Name != "GA2" {
		t.Errorf("Name = %q", ga.Name)
	}
	if _, _, err := compute(g, ga, DefaultOptions()); err != nil {
		t.Fatalf("compute with uniform GA: %v", err)
	}
}

// valueDB builds Customer c1 with orders of value 100 and 10.
func valueDB(t *testing.T) (*relational.DB, *datagraph.Graph) {
	t.Helper()
	db := relational.NewDB("orders")
	cust := relational.MustNewRelation("Customer",
		[]relational.Column{{Name: "id", Kind: relational.KindInt}}, "id", nil)
	order := relational.MustNewRelation("Orders",
		[]relational.Column{
			{Name: "id", Kind: relational.KindInt},
			{Name: "cust", Kind: relational.KindInt},
			{Name: "total", Kind: relational.KindFloat},
		}, "id", []relational.ForeignKey{{Column: "cust", Ref: "Customer"}})
	db.MustAddRelation(cust)
	db.MustAddRelation(order)
	cust.MustInsert(relational.Tuple{relational.IntVal(1)})
	order.MustInsert(relational.Tuple{relational.IntVal(1), relational.IntVal(1), relational.FloatVal(100)})
	order.MustInsert(relational.Tuple{relational.IntVal(2), relational.IntVal(1), relational.FloatVal(10)})
	g, err := datagraph.Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return db, g
}

func TestValueRankSplit(t *testing.T) {
	_, g := valueDB(t)
	ga := NewGA("VR").DirectValue("Orders", 0, false, 0.5, "total")
	opts := DefaultOptions()
	opts.NormalizeMax = 0 // keep raw scores for ratio checks
	scores, _, err := compute(g, ga, opts)
	if err != nil {
		t.Fatalf("compute: %v", err)
	}
	o := scores["Orders"]
	base := (1 - opts.Damping) / 3
	// Order deltas above base must be in ratio 100:10.
	d0, d1 := o[0]-base, o[1]-base
	if d0 <= 0 || d1 <= 0 {
		t.Fatalf("orders received no authority: %v", o)
	}
	if got := d0 / d1; math.Abs(got-10) > 1e-6 {
		t.Errorf("value split ratio = %v, want 10", got)
	}
}

func TestValueRankZeroValuesFallBackToUniform(t *testing.T) {
	db, g := valueDB(t)
	orders := db.Relation("Orders")
	orders.Tuples[0][2] = relational.FloatVal(0)
	orders.Tuples[1][2] = relational.FloatVal(0)
	ga := NewGA("VR").DirectValue("Orders", 0, false, 0.5, "total")
	opts := DefaultOptions()
	opts.NormalizeMax = 0
	scores, _, err := compute(g, ga, opts)
	if err != nil {
		t.Fatalf("compute: %v", err)
	}
	o := scores["Orders"]
	if math.Abs(o[0]-o[1]) > 1e-12 {
		t.Errorf("zero-value split should be uniform: %v", o)
	}
}

func TestValueRankUnknownColumn(t *testing.T) {
	_, g := valueDB(t)
	ga := NewGA("VR").DirectValue("Orders", 0, false, 0.5, "nope")
	if _, _, err := compute(g, ga, DefaultOptions()); err == nil {
		t.Fatal("unknown value column accepted")
	}
}

func TestStripValues(t *testing.T) {
	ga := NewGA("VR").DirectValue("Orders", 0, false, 0.5, "total")
	or := ga.StripValues("OR")
	if len(or.Flows) != 1 {
		t.Fatalf("flows = %d", len(or.Flows))
	}
	if f := or.Flows[0]; f.ValueCol != "" || f.Rate != 0.5 {
		t.Errorf("StripValues flow = %+v", f)
	}
	if or.Name != "OR" {
		t.Errorf("Name = %q", or.Name)
	}
}

func TestFlowErrors(t *testing.T) {
	_, g := valueDB(t)
	tests := []struct {
		name string
		ga   *GA
	}{
		{"unknown relation", NewGA("x").Direct("Nope", 0, true, 0.5)},
		{"fk out of range", NewGA("x").Direct("Orders", 5, true, 0.5)},
		{"unknown junction", NewGA("x").Hop("Nope", 0, 1, 0.5)},
		{"junction fk range", NewGA("x").Hop("Orders", 0, 7, 0.5)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := compute(g, tc.ga, DefaultOptions()); err == nil {
				t.Fatal("invalid flow accepted")
			}
		})
	}
}

func TestZeroRateFlowsSkipped(t *testing.T) {
	_, g := citeChain(t)
	ga := NewGA("zero").Hop("Cites", 0, 1, 0)
	scores, stats, err := compute(g, ga, DefaultOptions())
	if err != nil {
		t.Fatalf("compute: %v", err)
	}
	// First iteration settles every score to the base; second confirms.
	if stats.Iterations > 2 {
		t.Errorf("no-flow GA should converge in 2 iterations, took %d", stats.Iterations)
	}
	p := scores["Paper"]
	for i := 1; i < len(p); i++ {
		if math.Abs(p[i]-p[0]) > 1e-9 {
			t.Errorf("zero-rate: scores differ: %v", p)
		}
	}
}

func TestJunctionHopNoEcho(t *testing.T) {
	// With only the cites hop configured, Cites junction rows must keep
	// exactly the base score: authority hops over them.
	_, g := citeChain(t)
	opts := DefaultOptions()
	opts.NormalizeMax = 0
	scores, _, err := compute(g, citationGA(), opts)
	if err != nil {
		t.Fatalf("compute: %v", err)
	}
	c := scores["Cites"]
	base := (1 - opts.Damping) / 7 // 4 papers + 3 cites rows
	for i, v := range c {
		if math.Abs(v-base) > 1e-12 {
			t.Errorf("Cites row %d score = %v, want base %v", i, v, base)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	db := relational.NewDB("empty")
	g, err := datagraph.Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	scores, stats, err := compute(g, NewGA("ga"), DefaultOptions())
	if err != nil || !stats.Converged || len(scores) != 0 {
		t.Errorf("empty graph: scores=%v stats=%+v err=%v", scores, stats, err)
	}
}

func TestHighDampingStillConverges(t *testing.T) {
	_, g := citeChain(t)
	opts := DefaultOptions()
	opts.Damping = 0.99 // the paper's d3
	opts.MaxIter = 5000
	_, stats, err := compute(g, citationGA(), opts)
	if err != nil {
		t.Fatalf("compute: %v", err)
	}
	if !stats.Converged {
		t.Errorf("d=0.99 did not converge in %d iters (delta %v)", stats.Iterations, stats.MaxDelta)
	}
}
