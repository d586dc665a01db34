package ostree_test

import (
	"math"
	"reflect"
	"testing"

	"sizelos"
	"sizelos/internal/datagen"
	"sizelos/internal/datagraph"
	"sizelos/internal/mutgen"
	"sizelos/internal/ostree"
	"sizelos/internal/rank"
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

// spell is a tree as its (G_DS node, tuple, parent, weight bits) sequence.
func spell(tree *ostree.Tree) []any {
	out := make([]any, 0, 4*tree.Len())
	for _, n := range tree.Nodes {
		out = append(out, n.GDS.Label, n.Tuple, n.Parent, math.Float64bits(n.Weight))
	}
	return out
}

// TestDBSourceMatchesGraphSource is the proof the engine's one extraction
// path rests on: GraphSource — the data graph Engine.Mutate maintains in
// place — extracts exactly what DBSource's joins extract from the store.
// For the four G_DSs the engine registers, every node's Children list of
// every live parent and every live subject's prelim-l OS are equal, on the
// freshly built graph and after each batch of one seeded mutation stream
// edited into it in place. The engine's own GraphSource reads raw scores at
// a scale (ostree.NewScaledGraphSource): over a DBLP engine's seeded
// stream, re-ranked and plain batches alike, every subject's prelim-l OS it
// extracts — weights included — equals DBSource's over Engine.Scores.
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

	eng, err := sizelos.OpenDBLP(dblp)
	if err != nil {
		t.Fatalf("OpenDBLP: %v", err)
	}
	gen := mutgen.New(eng.DB(), 6)
	trees := 0
	for round := 0; round < 6; round++ {
		if round > 0 {
			b := gen.NextBatch()
			if _, err := eng.Mutate(sizelos.MutationBatch{Deletes: b.Deletes, Inserts: b.Inserts, Rerank: round%2 == 1}); err != nil {
				t.Fatalf("engine round %d: Mutate: %v", round, err)
			}
		}
		served, err := eng.Scores(sizelos.DefaultSetting)
		if err != nil {
			t.Fatalf("engine round %d: Scores: %v", round, err)
		}
		st, _, err := eng.ExportState()
		if err != nil {
			t.Fatalf("engine round %d: ExportState: %v", round, err)
		}
		raw, top := st.RawScores[sizelos.DefaultSetting], 0.0
		for _, v := range raw {
			top = max(top, v.MaxScore())
		}
		dbs := ostree.NewDBSource(eng.DB(), served)
		gs := ostree.NewScaledGraphSource(eng.Graph(), raw, rank.DefaultOptions().NormalizeMax/top)
		for _, ds := range []string{"Author", "Paper"} {
			gds, err := eng.GDS(ds, sizelos.DefaultSetting)
			if err != nil {
				t.Fatalf("engine round %d: GDS(%s): %v", round, ds, err)
			}
			subjects := eng.DB().Relation(ds)
			for s := relational.TupleID(0); int(s) < subjects.Len(); s++ {
				if subjects.Deleted(s) {
					continue
				}
				for _, l := range []int{5, 15} {
					a, _, err := sizel.PrelimL(dbs, gds, s, l, sizel.PrelimOptions{MaxDepth: l - 1})
					if err != nil {
						t.Fatalf("engine round %d: PrelimL(db, %s %d): %v", round, ds, s, err)
					}
					b, _, err := sizel.PrelimL(gs, gds, s, l, sizel.PrelimOptions{MaxDepth: l - 1})
					if err != nil {
						t.Fatalf("engine round %d: PrelimL(scaled graph, %s %d): %v", round, ds, s, err)
					}
					if !reflect.DeepEqual(spell(a), spell(b)) {
						t.Fatalf("engine round %d: prelim-%d OS of %s %d differs:\n db           %v\n scaled graph %v", round, l, ds, s, spell(a), spell(b))
					}
					trees++
				}
			}
		}
	}
	t.Logf("scaled GraphSource ≡ DBSource over Engine.Scores: %d prelim-l OSs over 6 rounds", trees)
}
