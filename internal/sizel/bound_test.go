package sizel

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/datagraph"
	"sizelos/internal/ostree"
	"sizelos/internal/rank"
	"sizelos/internal/relational"
	"sizelos/internal/schemagraph"
)

// boundFixture is one annotated G_DS(θ) over a generated database, the way
// the engine serves it.
type boundFixture struct {
	name   string
	graph  *datagraph.Graph
	scores relational.DBScores
	gds    *schemagraph.GDS
	roots  int
}

func boundFixtures(t *testing.T) []boundFixture {
	t.Helper()
	dblp := dblpPipeline(t)
	out := []boundFixture{{"dblp/Author", dblp.graph, dblp.scores, dblp.gds, dblp.db.Relation("Author").Len()}}

	cfg := datagen.DefaultTPCHConfig()
	cfg.ScaleFactor = 0.002
	db, err := datagen.GenerateTPCH(cfg)
	if err != nil {
		t.Fatalf("GenerateTPCH: %v", err)
	}
	g, err := datagraph.Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for _, ga := range []*rank.GA{datagen.TPCHGA1(), datagen.TPCHGA2()} {
		scores, _, err := computeRank(g, ga, rank.DefaultOptions())
		if err != nil {
			t.Fatalf("Compute: %v", err)
		}
		for _, gds := range []*schemagraph.GDS{datagen.CustomerGDS().Threshold(0.7), datagen.SupplierGDS().Threshold(0.7)} {
			if err := annotate(gds, db, scores); err != nil {
				t.Fatalf("Annotate: %v", err)
			}
			out = append(out, boundFixture{"tpch/" + ga.Name + "/" + gds.DSName, g, scores, gds, db.Relation(gds.DSName).Len()})
		}
	}
	return out
}

// topWeights is the reference for PrelimStats.TopWeights: the l largest
// local importances of t, descending.
func topWeights(t *ostree.Tree, l int) []float64 {
	var ws []float64
	for _, n := range t.Nodes {
		ws = append(ws, n.Weight)
	}
	slices.Sort(ws)
	slices.Reverse(ws)
	return ws[:min(l, len(ws))]
}

// TestTopWeightsBoundImportance is the property the ranked search seals
// candidates with: the l largest local importances of an OS, as PrelimL
// reports them (and topWeights recomputes them from a complete OS), sum to
// at least Im(S) of every size-l' OS for each l' <= l — whichever algorithm
// selected it, from the prelim-l' or the complete OS generated for l'. The
// engine's comparison allows one part in 1e9 for summation order; so does
// this.
func TestTopWeightsBoundImportance(t *testing.T) {
	const slack = 1e-9
	r := rand.New(rand.NewSource(17))
	for _, fx := range boundFixtures(t) {
		src := ostree.NewGraphSource(fx.graph, fx.scores)
		for trial := 0; trial < 6; trial++ {
			root, l := relational.TupleID(r.Intn(fx.roots)), 1+r.Intn(56)
			_, stats, err := PrelimL(src, fx.gds, root, l, PrelimOptions{MaxDepth: ostree.SizeLDepth(l)})
			if err != nil {
				t.Fatalf("%s: PrelimL: %v", fx.name, err)
			}
			top := stats.TopWeights
			complete, err := ostree.Generate(src, fx.gds, root, ostree.GenOptions{MaxDepth: ostree.SizeLDepth(l)})
			if err != nil {
				t.Fatalf("%s: Generate: %v", fx.name, err)
			}
			if fromTree := topWeights(complete, l); !reflect.DeepEqual(top, fromTree) {
				t.Fatalf("%s root %d l=%d: PrelimL's top weights %v differ from the complete OS's %v", fx.name, root, l, top, fromTree)
			}
			if len(top) != min(l, complete.Len()) {
				t.Fatalf("%s root %d l=%d: %d top weights for an OS of %d", fx.name, root, l, len(top), complete.Len())
			}
			bound := 0.0
			for small := 1; small <= l; small++ {
				if small <= len(top) {
					if small > 1 && top[small-1] > top[small-2] {
						t.Fatalf("%s root %d l=%d: top weights not descending: %v", fx.name, root, l, top)
					}
					bound += top[small-1]
				}
				prelim, _, err := PrelimL(src, fx.gds, root, small, PrelimOptions{MaxDepth: ostree.SizeLDepth(small)})
				if err != nil {
					t.Fatalf("%s: PrelimL: %v", fx.name, err)
				}
				cut, err := ostree.Generate(src, fx.gds, root, ostree.GenOptions{MaxDepth: ostree.SizeLDepth(small)})
				if err != nil {
					t.Fatalf("%s: Generate: %v", fx.name, err)
				}
				if small == 1 && (prelim.Len() != 1 || cut.Len() != 1) {
					t.Fatalf("%s root %d: the size-1 OSs hold %d (prelim-l) and %d (complete) nodes, want the root alone", fx.name, root, prelim.Len(), cut.Len())
				}
				for kind, tree := range map[string]*ostree.Tree{"prelim": prelim, "complete": cut} {
					for _, algo := range []string{"dp", "bottom-up", "top-path"} {
						var res Result
						switch algo {
						case "dp":
							res, err = DP(context.Background(), tree, small)
						case "bottom-up":
							res, err = BottomUp(tree, small)
						default:
							res, err = TopPath(tree, small, TopPathOptions{})
						}
						if err != nil {
							t.Fatalf("%s: %s: %v", fx.name, algo, err)
						}
						if res.Importance > bound*(1+slack) {
							t.Fatalf("%s root %d: %s on the %s OS at l=%d has Im %v over the bound %v read from an l=%d profile",
								fx.name, root, algo, kind, small, res.Importance, bound, l)
						}
					}
				}
			}
		}
	}
}

// randomOS builds a seeded random breadth-first arena of n nodes over fx's
// database: each node, in id order, takes up to four children, and every
// node is a random tuple under a random G_DS node, so it renders, with a
// heavyWeight.
func randomOS(r *rand.Rand, fx boundFixture, n int) *ostree.Tree {
	db := ostree.NewGraphSource(fx.graph, fx.scores).DB()
	var gns []*schemagraph.Node
	var walk func(gn *schemagraph.Node)
	walk = func(gn *schemagraph.Node) {
		gns = append(gns, gn)
		for _, c := range gn.Children {
			walk(c)
		}
	}
	walk(fx.gds.Root)
	node := func(parent ostree.NodeID, depth int32) ostree.Node {
		gn := gns[r.Intn(len(gns))]
		return ostree.Node{GDS: gn, Rel: int32(db.RelIndex(gn.Rel)), Tuple: relational.TupleID(r.Intn(db.Relation(gn.Rel).Len())),
			Weight: heavyWeight(r), Parent: parent, Depth: depth}
	}
	tree := &ostree.Tree{Nodes: []ostree.Node{node(ostree.None, 0)}, GDS: fx.gds, DB: db}
	for cur := 0; cur < len(tree.Nodes) && len(tree.Nodes) < n; cur++ {
		first := len(tree.Nodes)
		for c := r.Intn(5); c > 0 && len(tree.Nodes) < n; c-- {
			tree.Nodes = append(tree.Nodes, node(ostree.NodeID(cur), tree.Nodes[cur].Depth+1))
		}
		if last := len(tree.Nodes); last > first {
			tree.Nodes[cur].Children = ostree.Iota(last)[first:last:last]
		}
	}
	return tree
}

// TestCompactRendersAsKeep: the size-l OS a summary keeps — its selection
// compacted out of the tree it was selected from — validates, renders byte
// for byte as the selection does on that tree (weights shown or not), sums
// to the bits of its Im(S) and holds its l tuples, for every algorithm and
// l, on seeded random trees and on the prelim-l and complete OSs of the DBLP
// Author and TPC-H Customer/Supplier fixtures.
func TestCompactRendersAsKeep(t *testing.T) {
	algos := []struct {
		name string
		run  func(*ostree.Tree, int) (Result, error)
	}{
		{"dp", func(tr *ostree.Tree, l int) (Result, error) { return DP(context.Background(), tr, l) }},
		{"bottom-up", BottomUp},
		{"top-path", func(tr *ostree.Tree, l int) (Result, error) { return TopPath(tr, l, TopPathOptions{}) }},
	}
	check := func(what string, tree *ostree.Tree, l int) {
		t.Helper()
		for _, algo := range algos {
			res, err := algo.run(tree, l)
			if err != nil {
				t.Fatalf("%s l=%d: %s: %v", what, l, algo.name, err)
			}
			c := tree.Compact(res.Nodes)
			if err := c.Validate(); err != nil {
				t.Fatalf("%s l=%d: %s: compacted tree: %v", what, l, algo.name, err)
			}
			for _, w := range []bool{false, true} {
				want := tree.Render(ostree.RenderOptions{Keep: res.Nodes, ShowWeights: w})
				if got := c.Render(ostree.RenderOptions{ShowWeights: w}); got != want {
					t.Fatalf("%s l=%d: %s (weights %v): compacted tree renders\n%s\nthe selection renders\n%s", what, l, algo.name, w, got, want)
				}
			}
			if got, want := math.Float64bits(c.TotalImportance()), math.Float64bits(res.Importance); got != want {
				t.Fatalf("%s l=%d: %s: compacted Im %v, selection's %v", what, l, algo.name, c.TotalImportance(), res.Importance)
			}
			if c.Len() != len(res.Nodes) {
				t.Fatalf("%s l=%d: %s: compacted tree has %d nodes, selection %d", what, l, algo.name, c.Len(), len(res.Nodes))
			}
		}
	}
	r := rand.New(rand.NewSource(37))
	for _, fx := range boundFixtures(t) {
		src := ostree.NewGraphSource(fx.graph, fx.scores)
		for trial := 0; trial < 3; trial++ {
			root := relational.TupleID(r.Intn(fx.roots))
			for _, l := range []int{1, 3, 10, 30, 50} {
				for i := 0; i < 2; i++ {
					check(fmt.Sprintf("%s random tree %d.%d", fx.name, trial, i), randomOS(r, fx, 1+r.Intn(300)), l)
					// Equal weights within a role meet Render's stable sort.
					check(fmt.Sprintf("%s tie-heavy tree %d.%d", fx.name, trial, i), tieWeights(r, randomOS(r, fx, 1+r.Intn(300))), l)
				}
				prelim, _, err := PrelimL(src, fx.gds, root, l, PrelimOptions{MaxDepth: ostree.SizeLDepth(l)})
				if err != nil {
					t.Fatalf("%s: PrelimL: %v", fx.name, err)
				}
				check(fmt.Sprintf("%s root %d prelim", fx.name, root), prelim, l)
				complete, err := ostree.Generate(src, fx.gds, root, ostree.GenOptions{MaxDepth: ostree.SizeLDepth(l)})
				if err != nil {
					t.Fatalf("%s: Generate: %v", fx.name, err)
				}
				check(fmt.Sprintf("%s root %d complete", fx.name, root), complete, l)
			}
		}
	}
}
