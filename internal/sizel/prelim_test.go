package sizel

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/datagraph"
	"sizelos/internal/ostree"
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

// annotate binds gds to db and runs GDS.AnnotateMax from full score
// vectors: what Engine.RegisterGDS does before a G_DS is searched.
func annotate(gds *schemagraph.GDS, db *relational.DB, scores relational.DBScores) error {
	if err := gds.Bind(db); err != nil {
		return err
	}
	maxes := make(map[string]float64, len(scores))
	for rel, s := range scores {
		maxes[rel] = s.MaxScore()
	}
	return gds.AnnotateMax(maxes)
}

type pipeline struct {
	db     *relational.DB
	graph  *datagraph.Graph
	scores relational.DBScores
	gds    *schemagraph.GDS
}

var cached *pipeline

func dblpPipeline(t *testing.T) *pipeline {
	t.Helper()
	if cached != nil {
		return cached
	}
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 100
	cfg.Papers = 600
	cfg.Conferences = 8
	cfg.YearSpan = 6
	db, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	g, err := datagraph.Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	scores, _, err := computeRank(g, datagen.DBLPGA1(), rank.DefaultOptions())
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	gds := datagen.AuthorGDS()
	if err := annotate(gds, db, scores); err != nil {
		t.Fatalf("Annotate: %v", err)
	}
	cached = &pipeline{db: db, graph: g, scores: scores, gds: gds}
	return cached
}

func (p *pipeline) rootOf(t *testing.T, pk int64) relational.TupleID {
	t.Helper()
	id, ok := p.db.Relation("Author").LookupPK(pk)
	if !ok {
		t.Fatalf("author %d missing", pk)
	}
	return id
}

type tupleKey struct {
	rel   int32
	tuple relational.TupleID
	gds   *schemagraph.Node
}

func keysOf(tr *ostree.Tree, nodes []ostree.NodeID) map[tupleKey]bool {
	out := make(map[tupleKey]bool, len(nodes))
	for _, id := range nodes {
		n := tr.Nodes[id]
		out[tupleKey{n.Rel, n.Tuple, n.GDS}] = true
	}
	return out
}

// Lemma 3 precondition check: the prelim-l OS must contain the l tuples of
// the complete OS with the largest local importance (Definition 2).
func TestPrelimContainsTopL(t *testing.T) {
	p := dblpPipeline(t)
	for _, l := range []int{5, 10, 25} {
		for _, pk := range []int64{1, 2, 5} {
			root := p.rootOf(t, pk)
			src := ostree.NewGraphSource(p.graph, p.scores)
			complete, err := ostree.Generate(src, p.gds, root, ostree.GenOptions{})
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			prelim, _, err := PrelimL(src, p.gds, root, l, PrelimOptions{})
			if err != nil {
				t.Fatalf("PrelimL: %v", err)
			}
			if prelim.Len() > complete.Len() {
				t.Fatalf("prelim (%d) larger than complete (%d)", prelim.Len(), complete.Len())
			}
			// The top-l nodes of the complete OS by local importance.
			order := make([]ostree.NodeID, complete.Len())
			for i := range order {
				order[i] = ostree.NodeID(i)
			}
			sort.Slice(order, func(a, b int) bool {
				return complete.Nodes[order[a]].Weight > complete.Nodes[order[b]].Weight
			})
			topl := order
			if len(topl) > l {
				topl = topl[:l]
			}
			prelimKeys := keysOf(prelim, allIDs(prelim))
			for _, id := range topl {
				n := complete.Nodes[id]
				if !prelimKeys[tupleKey{n.Rel, n.Tuple, n.GDS}] {
					t.Fatalf("l=%d author=%d: top-l tuple (rel %d, tuple %d, %s, w=%v) missing from prelim",
						l, pk, n.Rel, n.Tuple, n.GDS.Label, n.Weight)
				}
			}
		}
	}
}

func allIDs(tr *ostree.Tree) []ostree.NodeID {
	out := make([]ostree.NodeID, tr.Len())
	for i := range out {
		out[i] = ostree.NodeID(i)
	}
	return out
}

// The avoidance conditions must not change the final size-l OS in practice
// on this workload, while extracting fewer tuples.
func TestPrelimAblationAgreesAndSaves(t *testing.T) {
	p := dblpPipeline(t)
	root := p.rootOf(t, 1)
	const l = 10

	src := ostree.NewGraphSource(p.graph, p.scores)
	full, sFull, err := PrelimL(src, p.gds, root, l, PrelimOptions{DisableAC1: true, DisableAC2: true})
	if err != nil {
		t.Fatalf("PrelimL(no AC): %v", err)
	}
	pruned, sPruned, err := PrelimL(src, p.gds, root, l, PrelimOptions{})
	if err != nil {
		t.Fatalf("PrelimL: %v", err)
	}
	if sPruned.Extracted > sFull.Extracted {
		t.Errorf("avoidance conditions extracted more (%d) than none (%d)", sPruned.Extracted, sFull.Extracted)
	}
	if sPruned.AC1Skips == 0 && sPruned.AC2TopL == 0 {
		t.Error("avoidance conditions never fired on a prolific author")
	}
	// The size-l OS computed from either tree must have equal importance.
	a, err := BottomUp(full, l)
	if err != nil {
		t.Fatalf("BottomUp(full): %v", err)
	}
	b, err := BottomUp(pruned, l)
	if err != nil {
		t.Fatalf("BottomUp(pruned): %v", err)
	}
	if !approx(a.Importance, b.Importance) {
		t.Errorf("size-l importance differs: full=%v pruned=%v", a.Importance, b.Importance)
	}
}

// With both conditions disabled, prelim-l generation equals complete OS
// generation.
func TestPrelimNoACEqualsComplete(t *testing.T) {
	p := dblpPipeline(t)
	src := ostree.NewGraphSource(p.graph, p.scores)
	// One arena for every prelim tree, reused as the engine reuses its own.
	arena := &ostree.Tree{}
	for _, pk := range []int64{1, 2, 4} {
		root := p.rootOf(t, pk)
		// MaxDepth l-1 bounds the tree as a size-l query does: Engine.SizeL's
		// Complete path against the timing figures' ostree.Generate. The last
		// case passes MaxDepth 0 at an l above any OS here: the unbounded
		// complete OS.
		for _, l := range []int{2, 3, 5, 10, 25, 50, 1 << 20} {
			maxDepth := l - 1
			if l == 1<<20 {
				maxDepth = 0
			}
			complete, err := ostree.Generate(src, p.gds, root, ostree.GenOptions{MaxDepth: maxDepth})
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			prelim, _, err := PrelimL(src, p.gds, root, l, PrelimOptions{
				MaxDepth: maxDepth, DisableAC1: true, DisableAC2: true, Into: arena,
			})
			if err != nil {
				t.Fatalf("PrelimL: %v", err)
			}
			if prelim.Len() != complete.Len() {
				t.Fatalf("author %d, l=%d: prelim without ACs has %d nodes, complete %d", pk, l, prelim.Len(), complete.Len())
			}
			for i := range complete.Nodes {
				a, b := complete.Nodes[i], prelim.Nodes[i]
				if a.Rel != b.Rel || a.Tuple != b.Tuple || a.Parent != b.Parent || a.Depth != b.Depth ||
					a.GDS != b.GDS || math.Float64bits(a.Weight) != math.Float64bits(b.Weight) ||
					!slices.Equal(a.Children, b.Children) {
					t.Fatalf("author %d, l=%d, node %d: prelim without ACs %+v, complete %+v", pk, l, i, b, a)
				}
			}
			arena = prelim
		}
	}
}

// Prelim-l works identically against the database source.
func TestPrelimDBSourceAgrees(t *testing.T) {
	p := dblpPipeline(t)
	root := p.rootOf(t, 2)
	const l = 15
	gsrc := ostree.NewGraphSource(p.graph, p.scores)
	dsrc := ostree.NewDBSource(p.db, p.scores)
	a, _, err := PrelimL(gsrc, p.gds, root, l, PrelimOptions{})
	if err != nil {
		t.Fatalf("PrelimL(graph): %v", err)
	}
	b, _, err := PrelimL(dsrc, p.gds, root, l, PrelimOptions{})
	if err != nil {
		t.Fatalf("PrelimL(db): %v", err)
	}
	ra, err := TopPath(a, l, TopPathOptions{})
	if err != nil {
		t.Fatalf("TopPath: %v", err)
	}
	rb, err := TopPath(b, l, TopPathOptions{})
	if err != nil {
		t.Fatalf("TopPath: %v", err)
	}
	if !approx(ra.Importance, rb.Importance) {
		t.Errorf("size-l from graph prelim %v != from db prelim %v", ra.Importance, rb.Importance)
	}
}

// Monotone scores: prelim-l must contain the optimal size-l OS (Lemma 3).
func TestPrelimMonotoneContainsOptimal(t *testing.T) {
	p := dblpPipeline(t)
	// Craft level-monotone scores (relation-constant, decreasing down every
	// G_DS path once multiplied by affinities): root Author 50·1.0=50,
	// Paper 48·0.92=44.2, Co-Author 50·0.82=41, PaperCites 48·0.77=37,
	// Year 10·0.83=8.3, Conference 5·0.78=3.9 — every child at or below its
	// parent (Lemma 2/3 precondition).
	scores := relational.DBScores{}
	levels := map[string]float64{
		"Author": 50, "Paper": 48, "Year": 10, "Conference": 5,
		"Writes": 1, "Cites": 1,
	}
	for _, rel := range p.db.Relations {
		s := make(relational.Scores, rel.Len())
		for i := range s {
			s[i] = levels[rel.Name]
		}
		scores[rel.Name] = s
	}
	gds := datagen.AuthorGDS()
	if err := annotate(gds, p.db, scores); err != nil {
		t.Fatalf("Annotate: %v", err)
	}

	src := ostree.NewGraphSource(p.graph, scores)
	root := p.rootOf(t, 3)
	const l = 12
	prelim, _, err := PrelimL(src, gds, root, l, PrelimOptions{})
	if err != nil {
		t.Fatalf("PrelimL: %v", err)
	}
	completeOpt, err := DP(context.Background(), mustGenerate(t, src, gds, root), l)
	if err != nil {
		t.Fatalf("DP(complete): %v", err)
	}
	prelimOpt, err := DP(context.Background(), prelim, l)
	if err != nil {
		t.Fatalf("DP(prelim): %v", err)
	}
	if !approx(completeOpt.Importance, prelimOpt.Importance) {
		t.Errorf("monotone scores: optimal from prelim %v != optimal from complete %v",
			prelimOpt.Importance, completeOpt.Importance)
	}
}

func mustGenerate(t *testing.T, src ostree.Source, gds *schemagraph.GDS, root relational.TupleID) *ostree.Tree {
	t.Helper()
	tr, err := ostree.Generate(src, gds, root, ostree.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestPrelimErrors(t *testing.T) {
	p := dblpPipeline(t)
	src := ostree.NewGraphSource(p.graph, p.scores)
	if _, _, err := PrelimL(src, p.gds, p.rootOf(t, 1), 0, PrelimOptions{}); err == nil {
		t.Error("l=0 accepted")
	}
	if _, _, err := PrelimL(src, p.gds, relational.TupleID(1<<29), 5, PrelimOptions{}); err == nil {
		t.Error("bad root accepted")
	}
	raw := datagen.AuthorGDS() // not annotated
	if _, _, err := PrelimL(src, raw, p.rootOf(t, 1), 5, PrelimOptions{}); err == nil {
		t.Error("unannotated GDS accepted")
	}
}

// TestPrelimRefusesUnboundGDS: a G_DS annotated but never bound is an
// error on either source.
func TestPrelimRefusesUnboundGDS(t *testing.T) {
	p := dblpPipeline(t)
	src := ostree.NewGraphSource(p.graph, p.scores)
	unbound := datagen.AuthorGDS()
	if err := unbound.AnnotateMax(map[string]float64{"Author": 1, "Paper": 1, "Year": 1, "Conference": 1}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []ostree.Source{src, ostree.NewDBSource(p.db, p.scores)} {
		if _, _, err := PrelimL(s, unbound, p.rootOf(t, 1), 5, PrelimOptions{}); err == nil || !strings.Contains(err.Error(), "not bound") {
			t.Errorf("%T: unbound GDS: %v", s, err)
		}
	}
}

func TestPrelimSmallerThanComplete(t *testing.T) {
	p := dblpPipeline(t)
	root := p.rootOf(t, 1) // most prolific author: large complete OS
	src := ostree.NewGraphSource(p.graph, p.scores)
	complete := mustGenerate(t, src, p.gds, root)
	prelim, stats, err := PrelimL(src, p.gds, root, 10, PrelimOptions{})
	if err != nil {
		t.Fatalf("PrelimL: %v", err)
	}
	if prelim.Len() >= complete.Len() {
		t.Errorf("prelim-10 (%d tuples) not smaller than complete (%d): avoidance ineffective",
			prelim.Len(), complete.Len())
	}
	if stats.Extracted != prelim.Len() {
		t.Errorf("stats.Extracted=%d, tree has %d", stats.Extracted, prelim.Len())
	}
}

// TestPrelimIntoDirtyTreeEqualsFresh: a prelim-l OS built Into a tree that
// last held a larger OS of the other DS relation of its dataset is the one
// built fresh — nodes, child lists, stats — and both validate, on DBLP and
// TPC-H, for seeded subjects, l, depth bounds and avoidance conditions.
func TestPrelimIntoDirtyTreeEqualsFresh(t *testing.T) {
	fxs := boundFixtures(t)
	p := dblpPipeline(t)
	paper := datagen.PaperGDS()
	if err := annotate(paper, p.db, p.scores); err != nil {
		t.Fatalf("Annotate: %v", err)
	}
	fxs = append(fxs, boundFixture{"dblp/Paper", p.graph, p.scores, paper, p.db.Relation("Paper").Len()})
	r := rand.New(rand.NewSource(25))
	grown := 0
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		fx := fxs[r.Intn(len(fxs))]
		var others []boundFixture
		for _, o := range fxs {
			if o.graph == fx.graph && o.gds.DSName != fx.gds.DSName {
				others = append(others, o)
			}
		}
		other := others[r.Intn(len(others))]
		dirty, err := ostree.Generate(ostree.NewGraphSource(other.graph, other.scores), other.gds,
			relational.TupleID(r.Intn(other.roots)), ostree.GenOptions{})
		if err != nil {
			t.Fatalf("%s: Generate: %v", other.name, err)
		}
		held := dirty.Len()

		root, l := relational.TupleID(r.Intn(fx.roots)), 1+r.Intn(56)
		opts := PrelimOptions{DisableAC1: r.Intn(4) == 0, DisableAC2: r.Intn(4) == 0}
		if r.Intn(3) > 0 {
			opts.MaxDepth = l - 1
		}
		src := ostree.NewGraphSource(fx.graph, fx.scores)
		fresh, freshStats, err := PrelimL(src, fx.gds, root, l, opts)
		if err != nil {
			t.Fatalf("%s: PrelimL: %v", fx.name, err)
		}
		opts.Into = dirty
		reused, reusedStats, err := PrelimL(src, fx.gds, root, l, opts)
		if err != nil {
			t.Fatalf("%s: PrelimL Into: %v", fx.name, err)
		}
		if reused != dirty {
			t.Fatalf("%s: PrelimL did not build Into the tree it was given", fx.name)
		}
		for _, tree := range []*ostree.Tree{fresh, reused} {
			if err := tree.Validate(); err != nil {
				t.Fatalf("%s root %d l=%d: %v", fx.name, root, l, err)
			}
		}
		if !reflect.DeepEqual(fresh, reused) || !reflect.DeepEqual(freshStats, reusedStats) {
			t.Fatalf("%s root %d l=%d %+v: the tree built over a %d-node %s OS differs from the fresh one",
				fx.name, root, l, opts, held, other.name)
		}
		if held > fresh.Len() {
			grown++
		}
	}
	if grown < trials/2 {
		t.Fatalf("only %d of %d dirty trees held a larger OS", grown, trials)
	}
}

// TestKernelAllocCeiling pins what one summary computation allocates when
// its source and tree are reused, as a request reuses its source and every
// evaluation a reused arena: PrelimL and TopPath on one TPC-H Supplier at
// l = 30. The ceiling is the count measured when it was set (CHANGES.md has
// the count before the arena); a change that needs more says why.
func TestKernelAllocCeiling(t *testing.T) {
	const ceiling = 10
	fx := boundFixtures(t)[2] // tpch/GA1/Supplier
	src, tree := ostree.NewGraphSource(fx.graph, fx.scores), &ostree.Tree{}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := PrelimL(src, fx.gds, 3, 30, PrelimOptions{MaxDepth: 29, Into: tree}); err != nil {
			t.Fatal(err)
		}
		if _, err := TopPath(tree, 30, TopPathOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%s: PrelimL + TopPath at l=30 over %d nodes: %v allocs", fx.name, tree.Len(), allocs)
	if allocs > ceiling {
		t.Fatalf("PrelimL + TopPath allocate %v times per call, ceiling %d", allocs, ceiling)
	}
}
