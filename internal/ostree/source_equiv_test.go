package ostree_test

import (
	"reflect"
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/datagraph"
	"sizelos/internal/mutgen"
	"sizelos/internal/ostree"
	"sizelos/internal/relational"
	"sizelos/internal/schemagraph"
	"sizelos/internal/sizel"
)

// distinctScores gives every tuple slot of db its own score (no two tuples
// of a relation tie, so a TOP-l order is unique) and annotates the G_DSs
// with the maxima, as the engine does per setting.
func distinctScores(t *testing.T, db *relational.DB, gdss []*schemagraph.GDS) relational.DBScores {
	t.Helper()
	scores := make(relational.DBScores, len(db.Relations))
	maxes := make(map[string]float64, len(db.Relations))
	for ri, r := range db.Relations {
		s := make(relational.Scores, r.Len())
		for i := range s {
			s[i] = float64((i*7919+ri*131+13)%100003) / 100
		}
		scores[r.Name], maxes[r.Name] = s, s.MaxScore()
	}
	for _, gds := range gdss {
		if err := gds.AnnotateMax(maxes); err != nil {
			t.Fatalf("AnnotateMax(%s): %v", gds.DSName, err)
		}
	}
	return scores
}

// spell is a tree as its (G_DS node, tuple, parent) sequence.
func spell(tree *ostree.Tree) []any {
	out := make([]any, 0, 3*tree.Len())
	for _, n := range tree.Nodes {
		out = append(out, n.GDS.Label, n.Tuple, n.Parent)
	}
	return out
}

// TestDBSourceMatchesGraphSource is the proof the engine's one extraction
// path rests on: GraphSource — the data graph Engine.Mutate maintains in
// place — extracts exactly what DBSource's joins extract from the store.
// For the four G_DSs the engine registers, every node's Children list of
// every live parent and every live subject's prelim-l OS are equal, on the
// freshly built graph and after each batch of one seeded mutation stream
// edited into it in place.
func TestDBSourceMatchesGraphSource(t *testing.T) {
	dblp := datagen.DefaultDBLPConfig()
	dblp.Authors, dblp.Papers, dblp.Conferences, dblp.YearSpan = 50, 160, 4, 3
	ddb, err := datagen.GenerateDBLP(dblp)
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	tpch := datagen.DefaultTPCHConfig()
	tpch.ScaleFactor = 0.002
	tdb, err := datagen.GenerateTPCH(tpch)
	if err != nil {
		t.Fatalf("GenerateTPCH: %v", err)
	}
	for _, f := range []struct {
		name string
		db   *relational.DB
		gdss []*schemagraph.GDS
	}{
		{"dblp", ddb, []*schemagraph.GDS{datagen.AuthorGDS().Threshold(0.7), datagen.PaperGDS().Threshold(0.7)}},
		{"tpch", tdb, []*schemagraph.GDS{datagen.CustomerGDS().Threshold(0.7), datagen.SupplierGDS().Threshold(0.7)}},
	} {
		g, err := datagraph.Build(f.db)
		if err != nil {
			t.Fatalf("%s: datagraph.Build: %v", f.name, err)
		}
		for _, gds := range f.gdss {
			if err := gds.Bind(f.db); err != nil {
				t.Fatalf("%s: Bind: %v", f.name, err)
			}
		}
		before, err := datagraph.Build(f.db)
		if err != nil {
			t.Fatalf("%s: datagraph.Build: %v", f.name, err)
		}
		gen := mutgen.New(f.db, 5)
		compared := 0
		for round := 0; round < 8; round++ {
			if round > 0 {
				res, err := f.db.Apply(gen.NextBatch())
				if err != nil {
					t.Fatalf("%s round %d: Apply: %v", f.name, round, err)
				}
				if err := g.Apply(res); err != nil {
					t.Fatalf("%s round %d: graph.Apply: %v", f.name, round, err)
				}
			}
			scores := distinctScores(t, f.db, f.gdss)
			dbs, gs := ostree.NewDBSource(f.db, scores), ostree.NewGraphSource(g, scores)
			for _, gds := range f.gdss {
				for _, gn := range gds.Nodes()[1:] {
					parents := f.db.Relation(gn.Parent.Rel)
					for p := relational.TupleID(0); int(p) < parents.Len(); p++ {
						if parents.Deleted(p) {
							continue
						}
						a, b := dbs.Children(gn, p), gs.Children(gn, p)
						if len(a)+len(b) > 0 && !reflect.DeepEqual(a, b) {
							t.Fatalf("%s round %d: %s node %s: Children(%d): db %v, graph %v", f.name, round, gds.DSName, gn.Label, p, a, b)
						}
						compared += len(a)
					}
				}
				subjects := f.db.Relation(gds.DSName)
				for s := relational.TupleID(0); int(s) < subjects.Len(); s++ {
					if subjects.Deleted(s) {
						continue
					}
					for _, l := range []int{5, 15} {
						a, _, err := sizel.PrelimL(dbs, gds, s, l, sizel.PrelimOptions{MaxDepth: l - 1})
						if err != nil {
							t.Fatalf("%s round %d: PrelimL(db, %s %d): %v", f.name, round, gds.DSName, s, err)
						}
						b, _, err := sizel.PrelimL(gs, gds, s, l, sizel.PrelimOptions{MaxDepth: l - 1})
						if err != nil {
							t.Fatalf("%s round %d: PrelimL(graph, %s %d): %v", f.name, round, gds.DSName, s, err)
						}
						if !reflect.DeepEqual(spell(a), spell(b)) {
							t.Fatalf("%s round %d: prelim-%d OS of %s %d differs:\n db    %v\n graph %v", f.name, round, l, gds.DSName, s, spell(a), spell(b))
						}
					}
				}
			}
		}
		if changed := g.EquivalentTo(before) != ""; compared == 0 || !changed {
			t.Errorf("%s: compared %d children, graph changed by the rounds %v; the test exercised nothing", f.name, compared, changed)
		}
	}
}
