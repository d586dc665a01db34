package schemagraph

import (
	"strings"
	"testing"

	"sizelos/internal/relational"
)

// miniDBLP builds the DBLP schema of the paper's Figure 1 with junctions
// Writes (Paper-Author) and Cites (Paper-Paper), plus Year and Conference.
func miniDBLP(t *testing.T) *relational.DB {
	t.Helper()
	db := relational.NewDB("dblp")
	conf := relational.MustNewRelation("Conference",
		[]relational.Column{
			{Name: "id", Kind: relational.KindInt},
			{Name: "name", Kind: relational.KindString},
		}, "id", nil)
	year := relational.MustNewRelation("Year",
		[]relational.Column{
			{Name: "id", Kind: relational.KindInt},
			{Name: "conf", Kind: relational.KindInt},
			{Name: "year", Kind: relational.KindInt},
		}, "id", []relational.ForeignKey{{Column: "conf", Ref: "Conference"}})
	paper := relational.MustNewRelation("Paper",
		[]relational.Column{
			{Name: "id", Kind: relational.KindInt},
			{Name: "year", Kind: relational.KindInt},
			{Name: "title", Kind: relational.KindString},
		}, "id", []relational.ForeignKey{{Column: "year", Ref: "Year"}})
	author := relational.MustNewRelation("Author",
		[]relational.Column{
			{Name: "id", Kind: relational.KindInt},
			{Name: "name", Kind: relational.KindString},
		}, "id", nil)
	writes := relational.MustNewRelation("Writes",
		[]relational.Column{
			{Name: "id", Kind: relational.KindInt},
			{Name: "paper", Kind: relational.KindInt},
			{Name: "author", Kind: relational.KindInt},
		}, "id", []relational.ForeignKey{
			{Column: "paper", Ref: "Paper"},
			{Column: "author", Ref: "Author"},
		})
	cites := relational.MustNewRelation("Cites",
		[]relational.Column{
			{Name: "id", Kind: relational.KindInt},
			{Name: "citing", Kind: relational.KindInt},
			{Name: "cited", Kind: relational.KindInt},
		}, "id", []relational.ForeignKey{
			{Column: "citing", Ref: "Paper"},
			{Column: "cited", Ref: "Paper"},
		})
	for _, r := range []*relational.Relation{conf, year, paper, author, writes, cites} {
		db.MustAddRelation(r)
	}
	conf.MustInsert(relational.Tuple{relational.IntVal(1), relational.StrVal("SIGCOMM")})
	year.MustInsert(relational.Tuple{relational.IntVal(1), relational.IntVal(1), relational.IntVal(1999)})
	paper.MustInsert(relational.Tuple{relational.IntVal(1), relational.IntVal(1), relational.StrVal("Power-laws")})
	paper.MustInsert(relational.Tuple{relational.IntVal(2), relational.IntVal(1), relational.StrVal("QoSMIC")})
	author.MustInsert(relational.Tuple{relational.IntVal(1), relational.StrVal("Christos")})
	author.MustInsert(relational.Tuple{relational.IntVal(2), relational.StrVal("Michalis")})
	writes.MustInsert(relational.Tuple{relational.IntVal(1), relational.IntVal(1), relational.IntVal(1)})
	writes.MustInsert(relational.Tuple{relational.IntVal(2), relational.IntVal(1), relational.IntVal(2)})
	writes.MustInsert(relational.Tuple{relational.IntVal(3), relational.IntVal(2), relational.IntVal(2)})
	cites.MustInsert(relational.Tuple{relational.IntVal(1), relational.IntVal(2), relational.IntVal(1)})
	return db
}

// authorGDS assembles the expert Author G_DS of Figure 2.
func authorGDS() *GDS {
	g := New("Author")
	paper := g.Root.AddJunction("Paper", "Paper", "Writes", 1, 0, 0.92)
	paper.AddJunction("Co-Author", "Author", "Writes", 0, 1, 0.82)
	year := paper.AddParentFK("Year", "Year", 0, 0.83)
	year.AddParentFK("Conference", "Conference", 0, 0.78)
	paper.AddJunction("PaperCites", "Paper", "Cites", 0, 1, 0.77)
	paper.AddJunction("PaperCitedBy", "Paper", "Cites", 1, 0, 0.77)
	return g
}

func TestGDSStructure(t *testing.T) {
	g := authorGDS()
	nodes := g.Nodes()
	wantLabels := []string{"Author", "Paper", "Co-Author", "Year", "Conference", "PaperCites", "PaperCitedBy"}
	if len(nodes) != len(wantLabels) {
		t.Fatalf("nodes = %d, want %d", len(nodes), len(wantLabels))
	}
	for i, n := range nodes {
		if n.Label != wantLabels[i] {
			t.Errorf("node %d = %s, want %s", i, n.Label, wantLabels[i])
		}
	}
	if g.Root.Depth != 0 || g.Find("Conference").Depth != 3 {
		t.Errorf("depths wrong: root=%d conf=%d", g.Root.Depth, g.Find("Conference").Depth)
	}
	if g.Find("Co-Author").Parent.Label != "Paper" {
		t.Error("Co-Author parent should be Paper")
	}
	if g.Find("missing") != nil {
		t.Error("Find(missing) should be nil")
	}
}

// TestBindGDS binds the Figure 2 G_DS, checking each node's recorded
// relation ordinal and hop endpoints, and rejects every malformed G_DS:
// each leaves the G_DS unbound.
func TestBindGDS(t *testing.T) {
	db := miniDBLP(t)
	g := authorGDS()
	if g.Bound() {
		t.Fatal("fresh G_DS reports bound")
	}
	if err := g.Bind(db); err != nil || !g.Bound() {
		t.Fatalf("valid GDS rejected: %v", err)
	}
	for _, n := range g.Nodes() {
		if n.RelOrd != db.RelIndex(n.Rel) {
			t.Errorf("%s: RelOrd %d, want %d", n.Label, n.RelOrd, db.RelIndex(n.Rel))
		}
		if n.Parent != nil && (n.Hop.From() != n.Parent.RelOrd || n.Hop.To() != n.RelOrd) {
			t.Errorf("%s: hop %d -> %d, want %d -> %d", n.Label, n.Hop.From(), n.Hop.To(), n.Parent.RelOrd, n.RelOrd)
		}
	}
	for _, c := range []*GDS{g.Clone(), g.Threshold(0.8)} {
		if !c.Bound() || c.Find("Year").Hop != g.Find("Year").Hop {
			t.Error("Clone/Threshold dropped the binding")
		}
	}

	cases := []struct {
		name, want string
		build      func(root *Node)
	}{
		// Paper.fk0 references Year, not Author.
		{"mismatched child FK", "references", func(r *Node) { r.AddChildFK("Paper", "Paper", 0, 0.9) }},
		{"child FK ordinal", "out of range", func(r *Node) { r.AddChildFK("Paper", "Paper", 3, 0.9) }},
		// Author owns no FK.
		{"parent FK ordinal", "out of range", func(r *Node) { r.AddParentFK("Year", "Year", 0, 0.9) }},
		{"mismatched parent FK", "references", func(r *Node) {
			r.AddJunction("Paper", "Paper", "Writes", 1, 0, 0.9).AddParentFK("Conference", "Conference", 0, 0.8)
		}},
		{"unknown relation", "unknown relation", func(r *Node) { r.AddChildFK("Ghost", "Ghost", 0, 0.9) }},
		{"unknown junction", "unknown junction", func(r *Node) { r.AddJunction("Paper", "Paper", "Ghost", 0, 1, 0.9) }},
		{"junction ordinal", "out of range", func(r *Node) { r.AddJunction("Paper", "Paper", "Writes", 5, 0, 0.9) }},
		// Writes.fk0 references Paper, not the Author parent.
		{"mismatched junction parent", "references", func(r *Node) { r.AddJunction("Paper", "Paper", "Writes", 0, 0, 0.9) }},
		{"mismatched junction child", "references", func(r *Node) { r.AddJunction("Year", "Year", "Writes", 1, 0, 0.9) }},
		{"root step below root", "root step", func(r *Node) { r.addChild("Paper", "Paper", Step{Kind: StepRoot}, 0.9) }},
		{"unknown step kind", "unknown step kind", func(r *Node) { r.addChild("Paper", "Paper", Step{Kind: 9}, 0.9) }},
	}
	for _, c := range cases {
		bad := New("Author")
		c.build(bad.Root)
		if err := bad.Bind(db); err == nil || !strings.Contains(err.Error(), c.want) || bad.Bound() {
			t.Errorf("%s: Bind = %v (bound %v), want an error containing %q", c.name, err, bad.Bound(), c.want)
		}
	}
	if err := New("Ghost").Bind(db); err == nil {
		t.Error("unknown root relation accepted")
	}
	// A failed Bind unbinds a G_DS bound before.
	g.Find("Year").Step.FKOrd = 7
	if err := g.Bind(db); err == nil || g.Bound() {
		t.Errorf("rebind of a broken G_DS: %v, bound %v", err, g.Bound())
	}
}

func TestThreshold(t *testing.T) {
	g := authorGDS()
	pruned := g.Threshold(0.8)
	labels := []string{}
	pruned.Walk(func(n *Node) bool { labels = append(labels, n.Label); return true })
	want := []string{"Author", "Paper", "Co-Author", "Year"}
	if len(labels) != len(want) {
		t.Fatalf("Threshold(0.8) kept %v, want %v", labels, want)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Errorf("kept[%d] = %s, want %s", i, labels[i], want[i])
		}
	}
	// Conference (0.78) dropped because its own affinity is below theta,
	// even though its parent Year (0.83) stays.
	if pruned.Find("Conference") != nil {
		t.Error("Conference should be pruned at theta=0.8")
	}
	// Original untouched.
	if g.Find("Conference") == nil {
		t.Error("Threshold must not mutate the source GDS")
	}
}

func TestAnnotate(t *testing.T) {
	g := authorGDS()
	maxes := map[string]float64{"Author": 1.0, "Paper": 9.0, "Year": 1.0, "Conference": 0.3}
	if err := g.AnnotateMax(maxes); err != nil {
		t.Fatalf("AnnotateMax: %v", err)
	}
	paper := g.Find("Paper")
	if want := 9.0 * 0.92; !close(paper.Max, want) {
		t.Errorf("Paper.Max = %v, want %v", paper.Max, want)
	}
	// Paper's descendants: Co-Author max 0.82, Year 0.83, Conference 0.234,
	// PaperCites/CitedBy 6.93. mmax = 6.93.
	if want := 9.0 * 0.77; !close(paper.MMax, want) {
		t.Errorf("Paper.MMax = %v, want %v", paper.MMax, want)
	}
	conf := g.Find("Conference")
	if conf.MMax != 0 {
		t.Errorf("leaf Conference.MMax = %v, want 0", conf.MMax)
	}
	year := g.Find("Year")
	if want := 0.3 * 0.78; !close(year.MMax, want) {
		t.Errorf("Year.MMax = %v, want %v", year.MMax, want)
	}
	// Root mmax covers the whole tree.
	if want := 9.0 * 0.92; !close(g.Root.MMax, want) {
		t.Errorf("Root.MMax = %v, want %v", g.Root.MMax, want)
	}
}

func TestAnnotateMissingScores(t *testing.T) {
	if err := authorGDS().AnnotateMax(map[string]float64{"Author": 1}); err == nil {
		t.Fatal("missing scores accepted")
	}
}

func TestGDSString(t *testing.T) {
	g := authorGDS()
	s := g.String()
	for _, want := range []string{"Author (1.00)", "  Paper (0.92)", "    Co-Author (0.82)", "      Conference (0.78)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
