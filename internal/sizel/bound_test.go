package sizel

import (
	"context"
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
			if err := annotate(gds, scores); err != nil {
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
			_, stats, err := PrelimL(src, fx.gds, root, l, PrelimOptions{MaxDepth: l - 1})
			if err != nil {
				t.Fatalf("%s: PrelimL: %v", fx.name, err)
			}
			top := stats.TopWeights
			complete, err := ostree.Generate(src, fx.gds, root, ostree.GenOptions{MaxDepth: l - 1})
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
				prelim, _, err := PrelimL(src, fx.gds, root, small, PrelimOptions{MaxDepth: small - 1})
				if err != nil {
					t.Fatalf("%s: PrelimL: %v", fx.name, err)
				}
				cut, err := ostree.Generate(src, fx.gds, root, ostree.GenOptions{MaxDepth: small - 1})
				if err != nil {
					t.Fatalf("%s: Generate: %v", fx.name, err)
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
