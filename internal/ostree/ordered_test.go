package ostree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/datagraph"
	"sizelos/internal/mutgen"
	"sizelos/internal/rank"
	"sizelos/internal/relational"
	"sizelos/internal/schemagraph"
)

// TestOrderedTieReadsTheRun: two children one ulp apart in raw score tie
// once served at scale f, the way a re-rank's uniform rescale can make them
// tie. The list keeps the higher raw score, the larger id, first; the walk
// must still return the tied ids in ascending order, and at limit 1 the
// smaller id, which sits past the cut.
func TestOrderedTieReadsTheRun(t *testing.T) {
	f := getFixture(t)
	gds := bound(t, f.db, datagen.AuthorGDS())
	paperNode := gds.Find("Paper")
	var parent relational.TupleID
	var papers []relational.TupleID
	for p := range f.db.Relation("Author").Len() {
		if papers = slices.Clone(f.graphSource().Children(paperNode, relational.TupleID(p))); len(papers) >= 3 {
			parent = relational.TupleID(p)
			break
		}
	}
	if len(papers) < 3 {
		t.Fatal("no author with three papers")
	}
	lo, hi := slices.Min(papers), slices.Max(papers)
	// Find raw scores b < a = b+1ulp whose products with a scale under 1,
	// like the c = N_old/N_new of a re-rank after inserts, tie: where the
	// product stays in b's binade it keeps the ulp, and the gap shrinks
	// below it.
	const scale = 0.75
	b := 0.9
	for i := 0; float64(math.Nextafter(b, 1)*scale) != float64(b*scale); i++ {
		if i == 64 {
			t.Fatal("no tie found")
		}
		b = math.Nextafter(b, 1)
	}
	a := math.Nextafter(b, 1)
	scores := make(relational.DBScores, len(f.scores))
	for rel, s := range f.scores {
		scores[rel] = slices.Clone(s)
	}
	for _, p := range papers {
		scores["Paper"][p] = b / 2
	}
	scores["Paper"][hi], scores["Paper"][lo] = a, b

	src := NewScaledGraphSource(f.graph, scores, scale)
	for _, c := range []struct {
		limit int
		want  []relational.TupleID
	}{{1, []relational.TupleID{lo}}, {2, []relational.TupleID{lo, hi}}} {
		if got := src.ChildrenTopL(paperNode, parent, 0, c.limit); !slices.Equal(got, c.want) {
			t.Fatalf("limit %d: walk returned %v, want the tied ids ascending %v", c.limit, got, c.want)
		}
	}
	src.ord.Families(func(_ datagraph.Hop, lists [][]relational.TupleID) {
		if lists[parent][0] != hi {
			t.Fatalf("list %v does not lead with the higher raw score %d: the tie was never at the cut", lists[parent], hi)
		}
	})
}

// TestOrderedRepairsMatchRebuild: over 60 rounds on DBLP, each a seeded
// mutation batch, a batch adding one more paper to one author and a
// rescoring of random tuples, the lists Apply and Rescored repair equal
// lists built afresh over the same graph and scores, for every hop the
// Author and Paper G_DSs cross by TOP-l. The author's list outgrows its
// span every round, so its family's store is reclaimed on the way.
func TestOrderedRepairsMatchRebuild(t *testing.T) {
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors, cfg.Papers, cfg.Conferences, cfg.YearSpan = 60, 200, 5, 4
	db, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := datagraph.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	scores, _, err := computeRank(g, datagen.DBLPGA1(), rank.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	o := new(Ordered)
	src := NewOrderedGraphSource(g, scores, 1, o)
	for _, gds := range []*schemagraph.GDS{datagen.AuthorGDS(), datagen.PaperGDS()} {
		for _, gn := range bound(t, db, gds).Nodes()[1:] {
			src.ChildrenTopL(gn, 0, -1, 1)
		}
	}
	built := 0
	o.Families(func(datagraph.Hop, [][]relational.TupleID) { built++ })
	if built != 4 {
		t.Fatalf("%d families built, want 4: Writes and Cites, each both ways", built)
	}
	requireRebuilt := func(what string, round int) {
		t.Helper()
		o.Families(func(h datagraph.Hop, lists [][]relational.TupleID) {
			want := new(Ordered).family(g, h, scores[db.Relations[h.To()].Name])
			if len(lists) != len(want.spans) {
				t.Fatalf("round %d, after %s: %d parents listed, %d built afresh", round, what, len(lists), len(want.spans))
			}
			for p, list := range lists {
				if w := want.list(relational.TupleID(p)); !slices.Equal(list, w) {
					t.Fatalf("round %d, after %s: parent %d lists %v, built afresh %v", round, what, p, list, w)
				}
			}
		})
	}
	gen, r := mutgen.New(db, 52), rand.New(rand.NewSource(52))
	apply := func(b relational.Batch, round int) {
		t.Helper()
		res, err := db.Apply(b)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := g.Apply(res); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, rel := range db.Relations {
			s := scores[rel.Name]
			scores[rel.Name] = append(s, make(relational.Scores, rel.Len()-len(s))...)
		}
		o.Apply(g, scores, res)
		requireRebuilt("a batch", round)
	}
	iv, author := relational.IntVal, db.Relation("Author").PK(0)
	stores := make(map[datagraph.Hop]int)
	reclaimed := false
	for round := range 60 {
		apply(gen.NextBatch(), round)
		pk := int64(1e9 + round)
		apply(relational.Batch{Inserts: []relational.InsertOp{
			{Rel: "Paper", Tuple: relational.Tuple{iv(pk), db.Relation("Paper").Tuples[0][1], relational.StrVal("t")}},
			{Rel: "Writes", Tuple: relational.Tuple{iv(pk), iv(pk), iv(author)}},
		}}, round)
		for h, f := range o.fams {
			reclaimed = reclaimed || len(f.ids) < stores[h]
			stores[h] = len(f.ids)
		}

		moved := make([][]relational.TupleID, len(db.Relations))
		for ri, rel := range db.Relations {
			for range 1 + rel.Len()/20 {
				t := relational.TupleID(r.Intn(rel.Len()))
				scores[rel.Name][t] = r.Float64()
				moved[ri] = append(moved[ri], t)
			}
		}
		o.Rescored(g, scores, moved)
		requireRebuilt("a rescoring", round)
	}
	if !reclaimed {
		t.Fatal("no family's store was reclaimed")
	}
}
