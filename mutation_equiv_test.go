package sizelos

// The randomized mutation-equivalence harness: the proof obligation of the
// incremental write path. It drives many rounds of seeded random
// insert/delete batches — schema-derived, so the same generator covers
// DBLP's citation fabric and TPC-H's order/lineitem fan-out — and after
// every round asserts the incremental invariants the engine stakes its
// correctness on:
//
//  1. Edge-exactness: the incrementally maintained data graph
//     (datagraph.Graph.Apply's in-place edits, plus whatever compactions
//     the engine interleaved) is edge-identical to a from-scratch
//     datagraph.Build over the mutated store.
//     1b. Rows≡compiled: the rank plans rank.Plans.Apply kept current run,
//     bit for bit, like plans compiled afresh over the current graph.
//  2. Warm≡cold: on re-ranked rounds, the warm-started power iteration
//     lands on the same global-importance scores a cold start over a fresh
//     graph produces, within fixed-point tolerance.
//  3. Ranked≡rebuilt: after every batch one RankBySummary top-k on the live
//     engine — whose bound tables the previous rounds' queries left warm —
//     is bit-identical to the same query on an engine restored from the
//     exported state. A bound table that outlived its epoch fails here.
//  4. Cached≡rebuilt: the live engine serves with a summary cache that never
//     evicts; before the first batch and after every batch, every live
//     subject of every registered DS relation is summarized in two request
//     shapes — served from the cache wherever the batches so far left the
//     subject's stamp alone — and must equal the restored engine's summary
//     bit for bit. A footprint walk that misses a subject a batch reached
//     fails here; so does a stamp that survives a compaction. So must every
//     G_DS annotation (Max, MMax) under every setting: a re-rank or a
//     compaction that left one behind fails here.
//  5. Ordered≡rebuilt: after every batch, re-rank and compaction, every
//     TOP-l family the engine keeps (ostree.Ordered, under every setting)
//     lists, per parent tuple, a permutation of Graph.Cross in
//     non-increasing raw score, and every parent's prefix walk equals the
//     children filtered and sorted afresh at thresholds below all, at a
//     child and above all, with limits 0, 1, l and unbounded. A batch or a
//     re-rank whose repair missed a list fails here.
//
// Seeded and reproducible: the default seed is fixed; set
// SIZELOS_EQUIV_SEED to replay a failure. CI runs the harness under -race
// in its own workflow leg (mutation-proofs), where every re-rank repairs
// its settings concurrently.

import (
	"cmp"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/datagraph"
	"sizelos/internal/mutgen"
	"sizelos/internal/ostree"
	"sizelos/internal/rank"
	"sizelos/internal/relational"
)

// equivRounds is the per-dataset round count; the acceptance bar is >= 50.
const equivRounds = 60

// warmColdTolerance bounds |warm - cold| per tuple on the normalized 0..100
// score scale for one setting. Each run stops when the iteration delta
// drops below epsilon, which leaves it within ~epsilon/(1-d) of the true
// fixed point on the raw scale; normalization amplifies that by
// 100/max(raw). Two independently-stopped runs can differ by twice that —
// the factor 20 adds an order of magnitude of slack while still flagging
// any seeding or splicing bug, which perturbs scores at whole-percent
// scale (d3=0.99 makes the honest gap ~1e-2, far from bug magnitudes).
func warmColdTolerance(damping, epsilon, maxRaw float64) float64 {
	tol := 20 * epsilon / (1 - damping) * 100 / maxRaw
	if tol < 1e-6 {
		tol = 1e-6
	}
	return tol
}

// equivSeed returns the harness seed: fixed for reproducibility,
// overridable to replay a reported failure.
func equivSeed(t *testing.T) int64 {
	if s := os.Getenv("SIZELOS_EQUIV_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("SIZELOS_EQUIV_SEED=%q: %v", s, err)
		}
		return v
	}
	return 0xF0CA5
}

// toMutationBatch lifts a generated relational-layer batch to the engine's
// mutation type (the generator lives in internal/mutgen so the durability
// tier's crash-restart harness can drive the same streams).
func toMutationBatch(b relational.Batch) MutationBatch {
	return MutationBatch{Deletes: b.Deletes, Inserts: b.Inserts}
}

// runEquivalence is the harness body shared by both datasets. restore
// rebuilds the reference engine of invariants 3 and 4; ranked (Rel, Query,
// K) is invariant 3's query.
func runEquivalence(t *testing.T, eng *Engine, settings []Setting, seed int64, rounds int,
	restore func(*EngineState) (*Engine, error), ranked QueryRequest) {
	t.Logf("mutation-equivalence seed %d (replay: SIZELOS_EQUIV_SEED=%d)", seed, seed)
	eng.EnableSummaryCache(1 << 20)
	var sweep sweepStats
	sweep.run(t, eng, rebuildFrom(t, eng, restore, -1), -1, false)
	gen := mutgen.New(eng.DB(), seed)
	graphRebuilds := 0
	prevGraph := eng.Graph()
	for round := 0; round < rounds; round++ {
		batch := toMutationBatch(gen.NextBatch())
		batch.Rerank = round%10 == 9
		res, err := eng.Mutate(batch)
		if err != nil {
			t.Fatalf("round %d: Mutate(%d dels, %d ins): %v", round, len(batch.Deletes), len(batch.Inserts), err)
		}
		requireOrderedCurrent(t, eng, round)
		// Invariant 3, at an l that alternates below and above the previous
		// round's so surviving profiles would be read both ways.
		rebuilt := rebuildFrom(t, eng, restore, round)
		ranked.RankBySummary, ranked.L = true, []int{9, 5, 14}[round%3]
		rankedAfterBatch(t, eng, rebuilt, round, ranked)
		sweep.run(t, eng, rebuilt, round, !res.Reranked && len(res.Compacted) == 0)
		if eng.Graph() != prevGraph {
			// Only compaction may swap the graph out.
			graphRebuilds++
			prevGraph = eng.Graph()
			if len(res.Compacted) == 0 {
				t.Fatalf("round %d: graph swapped without a compaction", round)
			}
		}

		// Invariant 1: edge-exact equivalence with a from-scratch build.
		want, err := datagraph.Build(eng.DB())
		if err != nil {
			t.Fatalf("round %d: rebuild: %v", round, err)
		}
		if msg := eng.Graph().EquivalentTo(want); msg != "" {
			t.Fatalf("round %d (seed %d): incremental graph diverged from rebuild: %s", round, seed, msg)
		}

		// Invariant 1b: the push rows Apply kept current are the rows a
		// fresh compile builds, so a full iteration over each G_A's live
		// plans equals one over plans compiled from the current graph, bit
		// for bit.
		for ga, ps := range eng.plans {
			requirePlansCompiled(t, round, ps, eng.Graph(), ga)
		}

		// Invariant 2: on re-ranked rounds, warm-started scores match a
		// cold start over the fresh graph within fixed-point tolerance.
		if batch.Rerank {
			if !res.Reranked {
				t.Fatalf("round %d: Rerank not honored", round)
			}
			for _, s := range settings {
				opts := rank.DefaultOptions()
				opts.Damping = s.Damping
				opts.NormalizeMax = 0 // raw first: the tolerance needs max(raw)
				cold, coldStats, err := computeRank(want, s.GA, opts)
				if err != nil {
					t.Fatalf("round %d: cold %s: %v", round, s.Name, err)
				}
				if !coldStats.Converged {
					t.Fatalf("round %d: cold %s did not converge", round, s.Name)
				}
				maxRaw := 0.0
				for _, sc := range cold {
					if m := sc.MaxScore(); m > maxRaw {
						maxRaw = m
					}
				}
				rank.Normalize(cold, rank.DefaultOptions().NormalizeMax)
				tol := warmColdTolerance(s.Damping, opts.Epsilon, maxRaw)
				warm, err := eng.Scores(s.Name)
				if err != nil {
					t.Fatalf("round %d: Scores(%s): %v", round, s.Name, err)
				}
				for _, rel := range eng.DB().Relations {
					c, w := cold[rel.Name], warm[rel.Name]
					if len(c) != len(w) {
						t.Fatalf("round %d: %s/%s score lengths %d vs %d", round, s.Name, rel.Name, len(c), len(w))
					}
					for i := range c {
						d := c[i] - w[i]
						if d < 0 {
							d = -d
						}
						if d > tol {
							t.Fatalf("round %d (seed %d): %s/%s tuple %d: warm %.9f vs cold %.9f (tol %g)",
								round, seed, s.Name, rel.Name, i, w[i], c[i], tol)
						}
					}
				}
				st := res.RerankStats[s.Name]
				if !st.WarmStart {
					t.Fatalf("round %d: %s re-rank did not warm-start", round, s.Name)
				}
			}
		}
	}
	t.Logf("%d rounds, %d graph swaps (compactions), final nodes %d",
		rounds, graphRebuilds, eng.Graph().NumNodes())
	// Invariant 4 proves the stamps are wide enough; this is the other half,
	// that on plain batches they are a footprint and not the relation.
	t.Logf("cache sweeps: %d plain rounds served %d of %d summaries from the cache (worst round %.2f)",
		sweep.plainRounds, sweep.hits, sweep.lookups, sweep.worst)
	if sweep.plainRounds == 0 || float64(sweep.hits) < 0.9*float64(sweep.lookups) {
		t.Fatalf("plain batches left %d of %d swept summaries cached over %d rounds, want >= 90%%", sweep.hits, sweep.lookups, sweep.plainRounds)
	}
}

// requireOrderedCurrent is invariant 5. Walking every non-Forward G_DS
// hop under every setting also builds the families no query built yet, so
// from the next round on every setting's lists are repaired ones.
func requireOrderedCurrent(t *testing.T, eng *Engine, round int) {
	t.Helper()
	g := eng.graph
	var buf []relational.TupleID
	for _, s := range eng.settings {
		raw, f := eng.rawScores[s.Name], eng.scales[s.Name].f
		eng.ordered[s.Name].Families(func(h datagraph.Hop, lists [][]relational.TupleID) {
			sc := raw[g.DB.Relations[h.To()].Name]
			if len(lists) != g.RelSize(h.From()) {
				t.Fatalf("round %d: %s: a family lists %d parents of %d", round, s.Name, len(lists), g.RelSize(h.From()))
			}
			for p, list := range lists {
				want := slices.Sorted(slices.Values(g.Cross(h, relational.TupleID(p), &buf)))
				if got := slices.Sorted(slices.Values(list)); !slices.Equal(got, want) {
					t.Fatalf("round %d: %s: parent %d lists %v, the graph crosses to %v", round, s.Name, p, list, want)
				}
				for i := 1; i < len(list); i++ {
					if sc[list[i]] > sc[list[i-1]] {
						t.Fatalf("round %d: %s: parent %d list %v rises in raw score at %d", round, s.Name, p, list, i)
					}
				}
			}
		})
		src := ostree.NewOrderedGraphSource(g, raw, f, eng.ordered[s.Name])
		seen := make(map[datagraph.Hop]bool)
		for _, gds := range eng.baseGDS {
			for _, gn := range gds.Nodes()[1:] {
				if gn.Hop.Forward() || seen[gn.Hop] {
					continue
				}
				seen[gn.Hop] = true
				sc := relational.Scaled{Raw: raw[gn.Rel], F: f}
				for p := range g.RelSize(gn.Hop.From()) {
					children := slices.Clone(g.Cross(gn.Hop, relational.TupleID(p), &buf))
					mins := []float64{-1, math.Inf(1)}
					if len(children) > 0 {
						mins = append(mins, sc.At(children[len(children)/2]))
					}
					for _, floor := range mins {
						for _, limit := range []int{0, 1, 5, math.MaxInt} {
							want := naiveTopL(children, sc, floor, limit)
							if got := src.ChildrenTopL(gn, relational.TupleID(p), floor, limit); !slices.Equal(got, want) || (got == nil) != (want == nil) {
								t.Fatalf("round %d: %s %s parent %d min=%v limit=%d: walk %v, filtered and sorted %v",
									round, s.Name, gn.Label, p, floor, limit, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// naiveTopL is a TOP-l extraction the slow way: every child scoring over
// minScore, by descending score, ties by ascending id, cut to limit; nil
// when none is or limit <= 0.
func naiveTopL(children []relational.TupleID, sc relational.Scaled, minScore float64, limit int) []relational.TupleID {
	var keep []relational.TupleID
	for _, c := range children {
		if sc.At(c) > minScore {
			keep = append(keep, c)
		}
	}
	if len(keep) == 0 || limit <= 0 {
		return nil
	}
	slices.SortFunc(keep, func(a, b relational.TupleID) int {
		if c := cmp.Compare(sc.At(b), sc.At(a)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return keep[:min(limit, len(keep))]
}

// requirePlansCompiled fails unless a cold full iteration over ps is bit
// for bit the one over ga compiled afresh against g.
func requirePlansCompiled(t *testing.T, round int, ps *rank.Plans, g *datagraph.Graph, ga *rank.GA) {
	t.Helper()
	fresh, err := rank.Compile(g, ga, nil)
	if err != nil {
		t.Fatalf("round %d: Compile %s: %v", round, ga.Name, err)
	}
	opts := rank.DefaultOptions()
	opts.NormalizeMax = 0
	live, _, err := ps.Run(opts)
	if err != nil {
		t.Fatalf("round %d: Run %s: %v", round, ga.Name, err)
	}
	want, _, err := fresh.Run(opts)
	if err != nil {
		t.Fatalf("round %d: Run fresh %s: %v", round, ga.Name, err)
	}
	for rel, w := range want {
		for i, v := range live[rel] {
			if math.Float64bits(v) != math.Float64bits(w[i]) {
				t.Fatalf("round %d: %s %s[%d]: live plans %v vs fresh compile %v", round, ga.Name, rel, i, v, w[i])
			}
		}
		if len(live[rel]) != len(w) {
			t.Fatalf("round %d: %s %s: %d live scores vs %d", round, ga.Name, rel, len(live[rel]), len(w))
		}
	}
}

// rebuildFrom restores an engine from the live one's exported state: the
// reference of invariants 3 and 4.
func rebuildFrom(t *testing.T, eng *Engine, restore func(*EngineState) (*Engine, error), round int) *Engine {
	t.Helper()
	st, _, err := eng.ExportState()
	if err != nil {
		t.Fatalf("round %d: ExportState: %v", round, err)
	}
	rebuilt, err := restore(st)
	if err != nil {
		t.Fatalf("round %d: restore: %v", round, err)
	}
	return rebuilt
}

// sweepShapes are invariant 4's two requests: the default prelim-l path and
// the complete OS under another algorithm and l, so both tree sources and
// two cache keys per subject ride every round.
var sweepShapes = []QueryRequest{
	{L: 10, Algorithm: AlgoTopPath},
	{L: 6, Algorithm: AlgoBottomUp, Complete: true},
}

// sweepStats accumulates, over the rounds whose batch neither re-ranked nor
// compacted, how much of invariant 4's sweep the cache served.
type sweepStats struct {
	plainRounds   int
	hits, lookups uint64
	worst         float64
}

// run is invariant 4 for one round: every live subject of every registered
// DS relation, in every sweep shape, and every G_DS annotation, on the live
// engine against rebuilt.
func (s *sweepStats) run(t *testing.T, eng, rebuilt *Engine, round int, plain bool) {
	t.Helper()
	before, _ := eng.SummaryCacheStats()
	var rels []string
	for ds := range eng.baseGDS {
		rels = append(rels, ds)
	}
	sort.Strings(rels)
	for _, ds := range rels {
		for name, g := range eng.gds[ds] {
			want := rebuilt.gds[ds][name].Nodes()
			for i, n := range g.Nodes() {
				if n.Max != want[i].Max || n.MMax != want[i].MMax {
					t.Fatalf("round %d: %s under %s: node %s annotated max=%v mmax=%v, rebuilt engine has max=%v mmax=%v",
						round, ds, name, n.Label, n.Max, n.MMax, want[i].Max, want[i].MMax)
				}
			}
		}
		r := eng.DB().Relation(ds)
		for id := relational.TupleID(0); int(id) < r.Len(); id++ {
			if r.Deleted(id) {
				continue
			}
			for _, req := range sweepShapes {
				req.Rel = ds
				got, err := eng.SizeL(req, id)
				if err != nil {
					t.Fatalf("round %d: live SizeL(%s %d): %v", round, ds, id, err)
				}
				want, err := rebuilt.SizeL(req, id)
				if err != nil {
					t.Fatalf("round %d: rebuilt SizeL(%s %d): %v", round, ds, id, err)
				}
				if !sameSummary(got, want) {
					t.Fatalf("round %d: %s %d (l=%d complete=%t): cached summary stale:\n%s\nrebuilt engine serves:\n%s",
						round, ds, id, req.L, req.Complete, got.Text, want.Text)
				}
			}
		}
	}
	if !plain {
		return
	}
	after, _ := eng.SummaryCacheStats()
	hits, lookups := after.Hits-before.Hits, after.Hits+after.Misses-before.Hits-before.Misses
	s.plainRounds++
	s.hits += hits
	s.lookups += lookups
	if share := float64(hits) / float64(lookups); s.plainRounds == 1 || share < s.worst {
		s.worst = share
	}
}

// dblpRanked is the DBLP harnesses' ranked query: a title word a few dozen
// papers carry, cut deep enough that rank K sits among near-equal summaries.
var dblpRanked = QueryRequest{Rel: "Paper", Query: "efficient", K: 12}

// TestMutationEquivalenceDBLP runs the harness over the DBLP-shaped
// database with the paper's four ObjectRank settings.
func TestMutationEquivalenceDBLP(t *testing.T) {
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 80
	cfg.Papers = 260
	cfg.Conferences = 6
	cfg.YearSpan = 4
	eng, err := OpenDBLP(cfg)
	if err != nil {
		t.Fatalf("OpenDBLP: %v", err)
	}
	runEquivalence(t, eng, DefaultSettings(datagen.DBLPGA1(), datagen.DBLPGA2()), equivSeed(t), equivRounds, RestoreDBLP, dblpRanked)
}

// TestMutationEquivalenceTPCH runs the harness over the TPC-H-shaped
// database, whose GA1 is value-weighted (ValueRank) — the warm≡cold check
// therefore also covers value-proportional split recompilation.
func TestMutationEquivalenceTPCH(t *testing.T) {
	cfg := datagen.DefaultTPCHConfig()
	cfg.ScaleFactor = 0.002
	eng, err := OpenTPCH(cfg)
	if err != nil {
		t.Fatalf("OpenTPCH: %v", err)
	}
	runEquivalence(t, eng, DefaultSettings(datagen.TPCHGA1(), datagen.TPCHGA2()), equivSeed(t)+1, equivRounds, RestoreTPCH, QueryRequest{Rel: "Customer", Query: "customer", K: 25})
}

// TestMutationEquivalenceUnderCompaction rides the same harness with an
// aggressive compaction policy and a delete-heavy mix, so rounds regularly
// cross the tombstone threshold: equivalence must hold across physical
// TupleID remaps, not just in-place edits.
func TestMutationEquivalenceUnderCompaction(t *testing.T) {
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 60
	cfg.Papers = 200
	cfg.Conferences = 5
	cfg.YearSpan = 4
	eng, err := OpenDBLP(cfg)
	if err != nil {
		t.Fatalf("OpenDBLP: %v", err)
	}
	eng.compactMin, eng.compactRatio = 6, 0.01
	seed := equivSeed(t) + 2
	runEquivalence(t, eng, DefaultSettings(datagen.DBLPGA1(), datagen.DBLPGA2()), seed, equivRounds, RestoreDBLP, dblpRanked)
	// The pipeline still serves correct summaries after all that churn.
	if _, err := search(eng, "Author", "Faloutsos", 5, QueryRequest{}); err != nil {
		t.Fatalf("post-harness search: %v", err)
	}
}
