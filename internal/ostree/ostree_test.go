package ostree

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/datagraph"
	"sizelos/internal/rank"
	"sizelos/internal/relational"
	"sizelos/internal/schemagraph"
)

// computeRank is rank.Compile + Run in one shot: the cold ranking of g
// under ga.
func computeRank(g *datagraph.Graph, ga *rank.GA, opts rank.Options) (relational.DBScores, rank.Stats, error) {
	plans, err := rank.Compile(g, ga, nil)
	if err != nil {
		return nil, rank.Stats{}, err
	}
	return plans.Run(opts)
}

// fixture bundles a generated DBLP database with scores and both sources.
type fixture struct {
	db     *relational.DB
	graph  *datagraph.Graph
	scores relational.DBScores
}

var shared *fixture

func getFixture(t *testing.T) *fixture {
	t.Helper()
	if shared != nil {
		return shared
	}
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 80
	cfg.Papers = 400
	cfg.Conferences = 8
	cfg.YearSpan = 6
	db, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	g, err := datagraph.Build(db)
	if err != nil {
		t.Fatalf("datagraph.Build: %v", err)
	}
	scores, _, err := computeRank(g, datagen.DBLPGA1(), rank.DefaultOptions())
	if err != nil {
		t.Fatalf("computeRank: %v", err)
	}
	shared = &fixture{db: db, graph: g, scores: scores}
	return shared
}

func (f *fixture) dbSource() *DBSource       { return NewDBSource(f.db, f.scores) }
func (f *fixture) graphSource() *GraphSource { return NewGraphSource(f.graph, f.scores) }

// bound binds gds to db, failing the test if it does not bind.
func bound(t testing.TB, db *relational.DB, gds *schemagraph.GDS) *schemagraph.GDS {
	t.Helper()
	if err := gds.Bind(db); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	return gds
}

func authorRoot(t *testing.T, f *fixture, pk int64) relational.TupleID {
	t.Helper()
	id, ok := f.db.Relation("Author").LookupPK(pk)
	if !ok {
		t.Fatalf("author %d not found", pk)
	}
	return id
}

func TestGenerateCompleteOS(t *testing.T) {
	f := getFixture(t)
	gds := bound(t, f.db, datagen.AuthorGDS())
	tree, err := Generate(f.dbSource(), gds, authorRoot(t, f, 1), GenOptions{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("tree invalid: %v", err)
	}
	if tree.Len() < 10 {
		t.Fatalf("OS too small: %d tuples (famous author should be prolific)", tree.Len())
	}
	root := tree.Nodes[0]
	if root.GDS.Label != "Author" || root.Depth != 0 {
		t.Errorf("bad root: %+v", root)
	}
	// Every depth-1 node is a Paper reached via Writes.
	for _, c := range root.Children {
		if tree.Nodes[c].GDS.Label != "Paper" {
			t.Errorf("depth-1 node label %s, want Paper", tree.Nodes[c].GDS.Label)
		}
	}
	// Local importance equals global score times node affinity.
	paperScores := f.scores["Paper"]
	for _, c := range root.Children {
		n := tree.Nodes[c]
		want := paperScores[n.Tuple] * 0.92
		if diff := n.Weight - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("paper weight %v, want %v", n.Weight, want)
		}
	}
}

func TestGenerateSourcesAgree(t *testing.T) {
	f := getFixture(t)
	gds := bound(t, f.db, datagen.AuthorGDS())
	root := authorRoot(t, f, 2)
	a, err := Generate(f.dbSource(), gds, root, GenOptions{})
	if err != nil {
		t.Fatalf("Generate(db): %v", err)
	}
	b, err := Generate(f.graphSource(), gds, root, GenOptions{})
	if err != nil {
		t.Fatalf("Generate(graph): %v", err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("sizes differ: db=%d graph=%d", a.Len(), b.Len())
	}
	for i := range a.Nodes {
		an, bn := a.Nodes[i], b.Nodes[i]
		if an.Rel != bn.Rel || an.Tuple != bn.Tuple || an.Parent != bn.Parent {
			t.Fatalf("node %d differs: db=%+v graph=%+v", i, an, bn)
		}
	}
}

func TestGrandparentExclusion(t *testing.T) {
	f := getFixture(t)
	gds := bound(t, f.db, datagen.AuthorGDS())
	root := authorRoot(t, f, 1)
	tree, err := Generate(f.graphSource(), gds, root, GenOptions{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	authorRel := int32(f.db.RelIndex("Author"))
	for i := 1; i < tree.Len(); i++ {
		n := tree.Nodes[i]
		if n.GDS.Label == "Co-Author" && n.Rel == authorRel && n.Tuple == root {
			t.Fatal("root author listed as own co-author")
		}
	}
}

func TestGenerateMaxDepth(t *testing.T) {
	f := getFixture(t)
	gds := bound(t, f.db, datagen.AuthorGDS())
	tree, err := Generate(f.graphSource(), gds, authorRoot(t, f, 1), GenOptions{MaxDepth: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for i := range tree.Nodes {
		if tree.Nodes[i].Depth > 1 {
			t.Fatalf("node at depth %d despite MaxDepth 1", tree.Nodes[i].Depth)
		}
	}
	full, err := Generate(f.graphSource(), gds, authorRoot(t, f, 1), GenOptions{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if tree.Len() >= full.Len() {
		t.Errorf("depth-limited OS (%d) not smaller than full (%d)", tree.Len(), full.Len())
	}
}

func TestGenerateErrors(t *testing.T) {
	f := getFixture(t)
	gds := bound(t, f.db, datagen.AuthorGDS())
	if _, err := Generate(f.graphSource(), gds, relational.TupleID(1<<30), GenOptions{}); err == nil {
		t.Error("out-of-range root accepted")
	}
}

// TestBuildRefusesUnboundGDS: Build reads only bound hops and relation
// ordinals, so a G_DS never passed through GDS.Bind is an error on both
// sources, before anything is extracted.
func TestBuildRefusesUnboundGDS(t *testing.T) {
	f := getFixture(t)
	for _, src := range []Source{f.graphSource(), f.dbSource()} {
		if _, err := Generate(src, datagen.AuthorGDS(), authorRoot(t, f, 1), GenOptions{}); err == nil || !strings.Contains(err.Error(), "not bound") {
			t.Errorf("%T: unbound G_DS: %v", src, err)
		}
	}
}

func TestIsConnectedSubtree(t *testing.T) {
	f := getFixture(t)
	gds := bound(t, f.db, datagen.AuthorGDS())
	tree, err := Generate(f.graphSource(), gds, authorRoot(t, f, 1), GenOptions{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	root := tree.Root()
	child := tree.Nodes[root].Children[0]
	grand := NodeID(-1)
	if cs := tree.Nodes[child].Children; len(cs) > 0 {
		grand = cs[0]
	}
	tests := []struct {
		name string
		ids  []NodeID
		want bool
	}{
		{"empty", nil, false},
		{"root only", []NodeID{root}, true},
		{"root+child", []NodeID{root, child}, true},
		{"child without root", []NodeID{child}, false},
		{"gap to grandchild", []NodeID{root, grand}, false},
		{"full chain", []NodeID{root, child, grand}, true},
		{"out of range", []NodeID{root, NodeID(1 << 20)}, false},
	}
	for _, tc := range tests {
		if grand == -1 && strings.Contains(tc.name, "grand") {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			if got := tree.IsConnectedSubtree(tc.ids); got != tc.want {
				t.Errorf("IsConnectedSubtree(%v) = %v, want %v", tc.ids, got, tc.want)
			}
		})
	}
}

func TestImportanceSums(t *testing.T) {
	f := getFixture(t)
	gds := bound(t, f.db, datagen.AuthorGDS())
	tree, err := Generate(f.graphSource(), gds, authorRoot(t, f, 3), GenOptions{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	sum := 0.0
	all := make([]NodeID, tree.Len())
	for i := range tree.Nodes {
		sum += tree.Nodes[i].Weight
		all[i] = NodeID(i)
	}
	if got := tree.TotalImportance(); !approx(got, sum) {
		t.Errorf("TotalImportance = %v, want %v", got, sum)
	}
	if got := tree.ImportanceOf(all); !approx(got, sum) {
		t.Errorf("ImportanceOf(all) = %v, want %v", got, sum)
	}
}

func approx(a, b float64) bool {
	d := a - b
	return d < 1e-6 && d > -1e-6
}

func TestChildrenTopLAgree(t *testing.T) {
	f := getFixture(t)
	gds := bound(t, f.db, datagen.AuthorGDS())
	paperNode := gds.Find("Paper")
	coauthorNode := gds.Find("Co-Author")
	yearNode := gds.Find("Year")
	dbs := f.dbSource()
	gs := f.graphSource()
	root := authorRoot(t, f, 1)

	// Junction step from the root author.
	for _, min := range []float64{0, 0.5, 5, 1e9} {
		for _, limit := range []int{1, 3, 100} {
			a := dbs.ChildrenTopL(paperNode, root, min, limit)
			b := gs.ChildrenTopL(paperNode, root, min, limit)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("paper TopL(min=%v,limit=%d): db=%v graph=%v", min, limit, a, b)
			}
			// Verify against naive: full children filtered.
			want := naiveTopL(gs.Children(paperNode, root), f.scores["Paper"], min, limit)
			if !reflect.DeepEqual(a, want) {
				t.Fatalf("paper TopL(min=%v,limit=%d) = %v, want %v", min, limit, a, want)
			}
		}
	}

	// ChildFK-style step does not exist on Author GDS; exercise ParentFK
	// (Year under Paper) and junction (Co-Author) instead.
	papers := gs.Children(paperNode, root)
	if len(papers) == 0 {
		t.Fatal("famous author has no papers")
	}
	p := papers[0]
	for _, gn := range []*schemagraph.Node{coauthorNode, yearNode} {
		a := dbs.ChildrenTopL(gn, p, 0, 10)
		b := gs.ChildrenTopL(gn, p, 0, 10)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s TopL: db=%v graph=%v", gn.Label, a, b)
		}
	}
}

func naiveTopL(ids []relational.TupleID, scores relational.Scores, min float64, limit int) []relational.TupleID {
	sorted := make([]relational.TupleID, len(ids))
	copy(sorted, ids)
	sort.Slice(sorted, func(a, b int) bool {
		sa, sb := scores[sorted[a]], scores[sorted[b]]
		if sa != sb {
			return sa > sb
		}
		return sorted[a] < sorted[b]
	})
	var out []relational.TupleID
	for _, id := range sorted {
		if len(out) >= limit {
			break
		}
		if scores[id] <= min {
			break
		}
		out = append(out, id)
	}
	return out
}

func TestRenderCompleteAndSubset(t *testing.T) {
	f := getFixture(t)
	gds := bound(t, f.db, datagen.AuthorGDS())
	tree, err := Generate(f.graphSource(), gds, authorRoot(t, f, 1), GenOptions{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	out := tree.Render(RenderOptions{})
	if !strings.HasPrefix(out, "Author: Christos Faloutsos") {
		t.Errorf("render should start with the DS tuple, got %q", firstLine(out))
	}
	if !strings.Contains(out, ".. Paper: ") {
		t.Errorf("render missing indented papers:\n%s", clip(out))
	}
	// Subset rendering: root plus its first child only.
	keep := []NodeID{tree.Root(), tree.Nodes[tree.Root()].Children[0]}
	sub := tree.Render(RenderOptions{Keep: keep})
	if lines := strings.Count(sub, "\n"); lines != 2 {
		t.Errorf("subset render has %d lines, want 2:\n%s", lines, sub)
	}
	// Subset without root renders nothing.
	if got := tree.Render(RenderOptions{Keep: []NodeID{keep[1]}}); got != "" {
		t.Errorf("rootless subset rendered %q", got)
	}
	// Weights shown on demand.
	w := tree.Render(RenderOptions{Keep: keep, ShowWeights: true})
	if !strings.Contains(w, "[") {
		t.Errorf("ShowWeights missing weight annotations:\n%s", w)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func clip(s string) string {
	if len(s) > 400 {
		return s[:400] + "..."
	}
	return s
}

// TestChildrenTopLMatchesNaive: both sources' TOP-l extraction is naiveTopL
// over the full child list — on every step kind of the four engine G_DSs
// (junction, parent FK, child FK), for thresholds below every child score,
// exactly at one and above every one, limits 0, 1, l and unbounded, with
// distinct and with tied scores — and nil whenever nothing passes.
func TestChildrenTopLMatchesNaive(t *testing.T) {
	const l = 10
	r := rand.New(rand.NewSource(25))
	for _, wf := range walkFixtures(t) {
		for _, tied := range []bool{false, true} {
			scores := make(relational.DBScores, len(wf.db.Relations))
			for _, rel := range wf.db.Relations {
				s := make(relational.Scores, rel.Len())
				for i := range s {
					if s[i] = r.Float64(); tied {
						s[i] = float64(r.Intn(3))
					}
				}
				scores[rel.Name] = s
			}
			dbs, gs := NewDBSource(wf.db, scores), NewGraphSource(wf.g, scores)
			for _, gds := range wf.gdss {
				for _, gn := range gds.Nodes()[1:] {
					childScores := scores[gn.Rel]
					for trial := 0; trial < 12; trial++ {
						p := relational.TupleID(r.Intn(wf.db.Relation(gn.Parent.Rel).Len()))
						children := slices.Clone(gs.Children(gn, p))
						thresholds := []float64{-1, 4}
						if len(children) > 0 {
							thresholds = append(thresholds, childScores[children[r.Intn(len(children))]])
						}
						for _, min := range thresholds {
							for _, limit := range []int{0, 1, l, math.MaxInt} {
								want := naiveTopL(children, childScores, min, limit)
								for name, src := range map[string]Source{"db": dbs, "graph": gs} {
									if got := src.ChildrenTopL(gn, p, min, limit); !reflect.DeepEqual(got, want) {
										t.Fatalf("%s %s/%s tied=%v parent %d min=%v limit=%d: %s source %#v, want %#v",
											wf.name, gds.DSName, gn.Label, tied, p, min, limit, name, got, want)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestIotaConcurrentGrowth: requests build trees concurrently, so Iota is
// read and grown from several goroutines at once; every slice any of them
// gets holds 0, 1, 2, … and at least what it asked for.
func TestIotaConcurrentGrowth(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1; n < 1<<16; n = n*3 + g {
				ids := Iota(n)
				if len(ids) < n || ids[n-1] != NodeID(n-1) || ids[len(ids)-1] != NodeID(len(ids)-1) {
					t.Errorf("Iota(%d) = %d ids ending %d", n, len(ids), ids[len(ids)-1])
					return
				}
			}
		}()
	}
	wg.Wait()
}
