package ostree

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/datagraph"
	"sizelos/internal/mutgen"
	"sizelos/internal/relational"
	"sizelos/internal/schemagraph"
)

// walkFixture is one dataset of the upward-walk tests: a small database, its
// graph, all-zero scores (the walks read none; Generate needs the vectors)
// and the G_DSs the engine registers for it, at the engine's θ = 0.7.
type walkFixture struct {
	name string
	db   *relational.DB
	g    *datagraph.Graph
	gdss []*schemagraph.GDS
}

func walkFixtures(t *testing.T) []*walkFixture {
	t.Helper()
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
	out := []*walkFixture{
		{name: "dblp", db: ddb, gdss: []*schemagraph.GDS{datagen.AuthorGDS().Threshold(0.7), datagen.PaperGDS().Threshold(0.7)}},
		{name: "tpch", db: tdb, gdss: []*schemagraph.GDS{datagen.CustomerGDS().Threshold(0.7), datagen.SupplierGDS().Threshold(0.7)}},
	}
	for _, f := range out {
		if f.g, err = datagraph.Build(f.db); err != nil {
			t.Fatalf("%s: datagraph.Build: %v", f.name, err)
		}
		for _, gds := range f.gdss {
			bound(t, f.db, gds)
		}
	}
	return out
}

// mutate commits one generated batch to the store and applies it to the
// data graph's edge lists in place, as Engine.Mutate does.
func (f *walkFixture) mutate(t *testing.T, gen *mutgen.Gen) relational.BatchResult {
	t.Helper()
	res, err := f.db.Apply(gen.NextBatch())
	if err != nil {
		t.Fatalf("%s: Apply: %v", f.name, err)
	}
	if err := f.g.Apply(res); err != nil {
		t.Fatalf("%s: graph.Apply: %v", f.name, err)
	}
	return res
}

func (f *walkFixture) source() *GraphSource {
	scores := make(relational.DBScores, len(f.db.Relations))
	for _, r := range f.db.Relations {
		scores[r.Name] = make(relational.Scores, r.Len())
	}
	return NewGraphSource(f.g, scores)
}

// TestParentsInverseOfChildren: for every non-root node n of the four
// registered G_DSs, c ∈ Children(n, p) ⇔ p ∈ Parents(n, c), with
// multiplicity (two junction rows joining one pair count twice both ways) —
// on the graph Build produces and on the same graph after seeded batches
// were edited into it in place.
func TestParentsInverseOfChildren(t *testing.T) {
	for _, f := range walkFixtures(t) {
		before, err := datagraph.Build(f.db)
		if err != nil {
			t.Fatalf("%s: datagraph.Build: %v", f.name, err)
		}
		gen := mutgen.New(f.db, 7)
		for round := 0; round < 6; round++ {
			if round > 0 {
				f.mutate(t, gen)
			}
			src := f.source()
			for _, gds := range f.gdss {
				for _, gn := range gds.Nodes()[1:] {
					type pair struct{ p, c relational.TupleID }
					down, up := make(map[pair]int), make(map[pair]int)
					for p := 0; p < f.db.Relation(gn.Parent.Rel).Len(); p++ {
						for _, c := range src.Children(gn, relational.TupleID(p)) {
							down[pair{relational.TupleID(p), c}]++
						}
					}
					for c := 0; c < f.db.Relation(gn.Rel).Len(); c++ {
						for _, p := range src.Parents(gn, relational.TupleID(c)) {
							up[pair{p, relational.TupleID(c)}]++
						}
					}
					if len(down) == 0 {
						t.Errorf("%s round %d: %s node %s has no edges to invert", f.name, round, gds.DSName, gn.Label)
					}
					for pc, n := range down {
						if up[pc] != n {
							t.Fatalf("%s round %d: %s node %s: %d ∈ Children(%d) ×%d, but %d ∈ Parents(%d) ×%d",
								f.name, round, gds.DSName, gn.Label, pc.c, pc.p, n, pc.p, pc.c, up[pc])
						}
					}
					for pc, n := range up {
						if down[pc] != n {
							t.Fatalf("%s round %d: %s node %s: %d ∈ Parents(%d) ×%d, but %d ∈ Children(%d) ×%d",
								f.name, round, gds.DSName, gn.Label, pc.p, pc.c, n, pc.c, pc.p, down[pc])
						}
					}
				}
			}
		}
		if f.g.EquivalentTo(before) == "" {
			t.Errorf("%s: the mutated rounds never changed the graph", f.name)
		}
	}
}

// shape spells a complete OS as its (G_DS node, tuple, parent) sequence.
func shape(t *testing.T, src Source, gds *schemagraph.GDS, root relational.TupleID) string {
	t.Helper()
	tree, err := Generate(src, gds, root, GenOptions{})
	if err != nil {
		t.Fatalf("Generate(%s %d): %v", gds.DSName, root, err)
	}
	var b strings.Builder
	for _, n := range tree.Nodes {
		fmt.Fprintf(&b, "%s/%d^%d ", n.GDS.Label, n.Tuple, n.Parent)
	}
	return b.String()
}

// TestSubjectsCoverChangedTrees: Subjects is sound on seeded batches — every
// subject live on both sides of a batch whose complete OS changed is listed
// — and it is a footprint, not the relation: summed over the rounds it lists
// a small share of the subjects.
func TestSubjectsCoverChangedTrees(t *testing.T) {
	for _, f := range walkFixtures(t) {
		gen := mutgen.New(f.db, 11)
		listed, live, changed := 0, 0, 0
		for round := 0; round < 25; round++ {
			before := make(map[*schemagraph.GDS]map[relational.TupleID]string)
			src := f.source()
			for _, gds := range f.gdss {
				before[gds] = make(map[relational.TupleID]string)
				r := f.db.Relation(gds.DSName)
				for s := relational.TupleID(0); int(s) < r.Len(); s++ {
					if !r.Deleted(s) {
						before[gds][s] = shape(t, src, gds, s)
					}
				}
			}
			res := f.mutate(t, gen)
			src = f.source()
			for _, gds := range f.gdss {
				subjects, ok := src.Subjects(gds, res, 1<<20)
				if !ok {
					t.Fatalf("%s round %d: %s walk gave up under a budget of 2^20", f.name, round, gds.DSName)
				}
				in := make(map[relational.TupleID]bool, len(subjects))
				for _, s := range subjects {
					if in[s] {
						t.Fatalf("%s round %d: %s subject %d listed twice", f.name, round, gds.DSName, s)
					}
					in[s] = true
				}
				listed += len(subjects)
				live += len(before[gds])
				r := f.db.Relation(gds.DSName)
				for s, was := range before[gds] {
					if r.Deleted(s) || shape(t, src, gds, s) == was {
						continue
					}
					changed++
					if !in[s] {
						ids := append([]relational.TupleID(nil), subjects...)
						sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
						t.Fatalf("%s round %d: OS of %s %d changed but Subjects lists only %v (batch: deleted %v, inserted %v)",
							f.name, round, gds.DSName, s, ids, res.Deleted, res.Inserted)
					}
				}
				if len(subjects) > 0 {
					if _, ok := src.Subjects(gds, res, 0); ok {
						t.Fatalf("%s round %d: %s walk reached %d subjects inside a budget of 0", f.name, round, gds.DSName, len(subjects))
					}
				}
			}
		}
		if changed == 0 {
			t.Errorf("%s: no batch changed any OS; the test compared nothing", f.name)
		}
		if listed*4 > live {
			t.Errorf("%s: Subjects listed %d of %d subject-rounds; a footprint should be a small share", f.name, listed, live)
		}
		t.Logf("%s: %d subject-rounds, %d listed, %d changed", f.name, live, listed, changed)
	}
}

// TestSubjectsJunctionClimb: on a G_DS of three stacked junction hops
// (Author -Writes-> Paper -Writes-> Co-Author -Writes-> Co-Author's Paper)
// a changed row under the deepest node makes Subjects recurse through
// Parents while it iterates a Parents result — and Children calls in between
// leave the source's scratch dirty. Its answer must be the downward
// reference: the subjects whose traversal reaches, as an instance of a
// junction node's parent, the parent-side end of a changed junction row.
func TestSubjectsJunctionClimb(t *testing.T) {
	f := walkFixtures(t)[0]
	gds := schemagraph.New("Author")
	gds.Root.AddJunction("Paper", "Paper", "Writes", 1, 0, 0.92).
		AddJunction("Co-Author", "Author", "Writes", 0, 1, 0.82).
		AddJunction("Co-Author's Paper", "Paper", "Writes", 1, 0, 0.8)
	bound(t, f.db, gds)
	src := f.source()
	r := rand.New(rand.NewSource(25))
	for round := 0; round < 8; round++ {
		res := relational.BatchResult{Inserted: map[string][]relational.TupleID{}}
		for _, j := range []string{"Writes", "Cites"} {
			for i := 0; i < 1+round; i++ {
				res.Inserted[j] = append(res.Inserted[j], relational.TupleID(r.Intn(f.db.Relation(j).Len())))
			}
		}
		// ends[gn] holds the parent-side ends of gn's changed junction rows.
		ends := make(map[*schemagraph.Node]map[relational.TupleID]bool)
		for _, gn := range gds.Nodes()[1:] {
			if gn.Step.Kind != schemagraph.StepJunction {
				continue
			}
			j := f.db.Relation(gn.Step.Junction)
			fk := j.FKs[gn.Step.JFKParent]
			ends[gn] = make(map[relational.TupleID]bool)
			for _, row := range res.Inserted[gn.Step.Junction] {
				if end, ok := f.db.Relation(fk.Ref).LookupPK(j.Tuples[row][j.ColIndex(fk.Column)].Int); ok {
					ends[gn][end] = true
				}
			}
		}
		var reaches func(gn *schemagraph.Node, tp relational.TupleID) bool
		reaches = func(gn *schemagraph.Node, tp relational.TupleID) bool {
			for _, c := range gn.Children {
				if ends[c][tp] {
					return true
				}
				for _, ct := range slices.Clone(src.Children(c, tp)) {
					if reaches(c, ct) {
						return true
					}
				}
			}
			return false
		}
		want := []relational.TupleID{}
		for s := 0; s < f.db.Relation(gds.DSName).Len(); s++ {
			if reaches(gds.Root, relational.TupleID(s)) {
				want = append(want, relational.TupleID(s))
			}
		}
		src.Children(gds.Root.Children[0], 0) // leave the junction scratch dirty
		got, ok := src.Subjects(gds, res, 1<<20)
		if !ok {
			t.Fatalf("round %d: walk gave up under a budget of 2^20", round)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: Subjects %v, want %v", round, got, want)
		}
		if len(want) == 0 {
			t.Fatalf("round %d: no subject reached; the test compared nothing", round)
		}
	}
}
