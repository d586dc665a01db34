package sizelos

// Engine-level tests of residual-push re-ranking: mode selection, the
// large-residual fallback boundary, the update-savings contract the
// ROADMAP stakes the feature on, and the compaction interaction that
// forces a full re-grounding. The rank-level mechanics are covered in
// internal/rank/residual_test.go; the randomized mutation-equivalence
// harness (mutation_equiv_test.go) proves served-score correctness against
// cold recomputes across random batches with residual mode enabled.

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/rank"
	"sizelos/internal/relational"
)

// RefreshCycle is how many re-ranks one refresh cycle spans: the re-ranks
// seeded from captured rows, then the refresh that sweeps.
const RefreshCycle = residualRefreshInterval + 1

// DropCapturedRows makes e's next re-rank seed from one exact sweep, as
// after a compaction: the sweep-seeded reference that
// TestResidualUpdateSavings and BenchmarkRerankResidual/sweep hold the
// captured rows against.
func DropCapturedRows(e *Engine) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pending = nil
}

// residualTestEngine builds a DBLP engine over the practical serving
// settings (the two d=0.85 configurations); the high-damping d3 stress
// setting is covered separately by TestResidualHighDampingBudgetTrip.
func residualTestEngine(t *testing.T, authors, papers int) *Engine {
	t.Helper()
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = authors
	cfg.Papers = papers
	db, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	settings := []Setting{
		{Name: "GA1-d1", GA: datagen.DBLPGA1(), Damping: 0.85},
		{Name: "GA2-d1", GA: datagen.DBLPGA2(), Damping: 0.85},
	}
	eng, err := NewEngine(db, settings)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := eng.RegisterGDS(datagen.AuthorGDS().Threshold(Theta)); err != nil {
		t.Fatalf("RegisterGDS: %v", err)
	}
	return eng
}

// citesStreamBatch is the stationary single-tuple stream op: insert one
// citation, delete the previous op's.
func citesStreamBatch(eng *Engine, pk, prevPK int64, i int) MutationBatch {
	paper := eng.DB().Relation("Paper")
	a := relational.TupleID(i % paper.Len())
	c := relational.TupleID((i*7 + 13) % paper.Len())
	b := MutationBatch{
		Rerank: true,
		Inserts: []TupleInsert{{
			Rel: "Cites",
			Tuple: relational.Tuple{
				relational.IntVal(pk),
				relational.IntVal(paper.PK(a)),
				relational.IntVal(paper.PK(c)),
			},
		}},
	}
	if prevPK != 0 {
		b.Deletes = []TupleDelete{{Rel: "Cites", PK: prevPK}}
	}
	return b
}

// TestResidualRerankTakesResidualPath pins the mode selection: a small
// re-ranked batch repairs scores with residual pushes, not a full sweep.
func TestResidualRerankTakesResidualPath(t *testing.T) {
	eng := residualTestEngine(t, 120, 500)
	res, err := eng.Mutate(citesStreamBatch(eng, 60_000_001, 0, 0))
	if err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	if !res.Reranked {
		t.Fatal("Rerank not honored")
	}
	for name, st := range res.RerankStats {
		if !st.Residual {
			t.Fatalf("%s: expected the residual path, got %+v", name, st)
		}
		if st.FallbackTaken {
			t.Fatalf("%s: single-tuple batch fell back: %+v", name, st)
		}
		if st.Pushes == 0 || st.Iterations != 0 {
			t.Fatalf("%s: expected pushes and no full iterations, got %+v", name, st)
		}
		if !st.WarmStart {
			t.Fatalf("%s: residual repair must report WarmStart", name)
		}
	}
}

// TestResidualUpdateSavings drives the same single-tuple re-ranked stream
// through two engines — the second dropping its captured rows before every
// batch, so that each of its re-ranks seeds from a sweep — with the two
// serving matching scores the whole way. It asserts the ROADMAP bar, at
// least 5x fewer node-score updates with captured rows than a warm full
// iteration from the same prior over the same plans; at least 2x fewer
// than the sweep-seeded engine; and that no sweep falls back, since it
// rescales by the geometry its prior converged under.
func TestResidualUpdateSavings(t *testing.T) {
	resEng := residualTestEngine(t, 120, 500)
	sweepEng := residualTestEngine(t, 120, 500)

	const rounds = 8
	residualUpdates, sweepUpdates, fullUpdates := 0, 0, 0
	prev := int64(0)
	for i := 0; i < rounds; i++ {
		pk := int64(60_000_100 + i)
		batch := citesStreamBatch(resEng, pk, prev, i)
		prior := copyScoreTable(resEng.rawScores)
		resR, err := resEng.Mutate(batch)
		if err != nil {
			t.Fatalf("round %d: residual Mutate: %v", i, err)
		}
		DropCapturedRows(sweepEng)
		sweepR, err := sweepEng.Mutate(batch)
		if err != nil {
			t.Fatalf("round %d: sweep Mutate: %v", i, err)
		}
		prev = pk
		for name, st := range resR.RerankStats {
			if !st.Residual || st.FallbackTaken {
				t.Fatalf("round %d: %s not residual: %+v", i, name, st)
			}
			residualUpdates += st.Updates
		}
		for name, st := range sweepR.RerankStats {
			if st.Residual || st.FallbackTaken {
				t.Fatalf("round %d: %s without rows took residual or fell back: %+v", i, name, st)
			}
			sweepUpdates += st.Updates
		}
		for _, s := range resEng.settings {
			opts := rank.DefaultOptions()
			opts.Damping, opts.NormalizeMax, opts.Warm = s.Damping, 0, prior[s.Name]
			_, st, err := resEng.plans[s.GA].Run(opts)
			if err != nil || !st.Converged {
				t.Fatalf("round %d: %s warm full iteration: %v %+v", i, s.Name, err, st)
			}
			fullUpdates += st.Updates
		}
		for _, name := range resEng.SettingNames() {
			a, _ := resEng.Scores(name)
			b, _ := sweepEng.Scores(name)
			for _, rel := range resEng.DB().Relations {
				for j := range a[rel.Name] {
					d := a[rel.Name][j] - b[rel.Name][j]
					if d < 0 {
						d = -d
					}
					// Both engines converge to max residual < epsilon; the
					// harness-style tolerance on the normalized 0..100 scale
					// (epsilon amplified by 1/(1-d) and the presentation
					// rescale) is ~1e-2 for these fixtures, and any seeding or
					// splicing bug perturbs scores at whole-percent scale.
					if d > 2e-2 {
						t.Fatalf("round %d: %s/%s tuple %d: residual %v vs sweep %v",
							i, name, rel.Name, j, a[rel.Name][j], b[rel.Name][j])
					}
				}
			}
		}
	}
	t.Logf("node-score updates over %d re-ranked rounds: residual %d, sweep %d (%.1fx), warm full iteration %d (%.1fx)",
		rounds, residualUpdates, sweepUpdates, float64(sweepUpdates)/float64(residualUpdates),
		fullUpdates, float64(fullUpdates)/float64(residualUpdates))
	if residualUpdates*5 > fullUpdates {
		t.Fatalf("residual updates %d not >=5x fewer than the warm full iteration's %d", residualUpdates, fullUpdates)
	}
	if residualUpdates*2 > sweepUpdates {
		t.Fatalf("residual updates %d not >=2x fewer than the sweep-seeded engine's %d", residualUpdates, sweepUpdates)
	}
}

// TestResidualFallbackBoundary forces a large-residual batch — thousands
// of new citations at once against a deliberately tight push budget — and
// asserts the safety fallback fires and still lands on the cold scores
// within the warm path's tolerance contract (the same bound the
// mutation-equivalence harness enforces). The budget override makes the
// boundary deterministic: with the default budget this batch shape
// genuinely converges via pushes (see TestResidualLargeBatchStillConverges).
func TestResidualFallbackBoundary(t *testing.T) {
	eng := residualTestEngine(t, 80, 260)
	eng.residualBudget = 50
	paper := eng.DB().Relation("Paper")
	batch := MutationBatch{Rerank: true}
	for i := 0; i < 2500; i++ {
		a := relational.TupleID(i % paper.Len())
		c := relational.TupleID((i*13 + 7) % paper.Len())
		batch.Inserts = append(batch.Inserts, TupleInsert{
			Rel: "Cites",
			Tuple: relational.Tuple{
				relational.IntVal(int64(61_000_000 + i)),
				relational.IntVal(paper.PK(a)),
				relational.IntVal(paper.PK(c)),
			},
		})
	}
	res, err := eng.Mutate(batch)
	if err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	st := res.RerankStats[DefaultSetting]
	if !st.Residual || !st.FallbackTaken {
		t.Fatalf("large-residual batch did not fall back: %+v", st)
	}
	if st.Iterations == 0 {
		t.Fatalf("fallback must run the full iteration: %+v", st)
	}

	// The served scores still satisfy the warm≡cold tolerance contract.
	opts := rank.DefaultOptions()
	opts.NormalizeMax = 0
	cold, coldStats, err := computeRank(eng.Graph(), datagen.DBLPGA1(), opts)
	if err != nil || !coldStats.Converged {
		t.Fatalf("cold: err=%v stats=%+v", err, coldStats)
	}
	maxRaw := 0.0
	for _, sc := range cold {
		if m := sc.MaxScore(); m > maxRaw {
			maxRaw = m
		}
	}
	rank.Normalize(cold, rank.DefaultOptions().NormalizeMax)
	tol := warmColdTolerance(0.85, opts.Epsilon, maxRaw)
	got, err := eng.Scores(DefaultSetting)
	if err != nil {
		t.Fatalf("Scores: %v", err)
	}
	for _, rel := range eng.DB().Relations {
		c, w := cold[rel.Name], got[rel.Name]
		for i := range c {
			d := c[i] - w[i]
			if d < 0 {
				d = -d
			}
			if d > tol {
				t.Fatalf("%s tuple %d: served %.9f vs cold %.9f (tol %g)", rel.Name, i, w[i], c[i], tol)
			}
		}
	}
}

// TestResidualLargeBatchStillConverges: under the default budget, the same
// thousands-of-citations batch is repaired by pushes alone — the boundary
// sits well past any realistic streaming batch, and the push count still
// undercuts what the warm full iteration would have paid.
func TestResidualLargeBatchStillConverges(t *testing.T) {
	eng := residualTestEngine(t, 80, 260)
	paper := eng.DB().Relation("Paper")
	batch := MutationBatch{Rerank: true}
	for i := 0; i < 2500; i++ {
		a := relational.TupleID(i % paper.Len())
		c := relational.TupleID((i*13 + 7) % paper.Len())
		batch.Inserts = append(batch.Inserts, TupleInsert{
			Rel: "Cites",
			Tuple: relational.Tuple{
				relational.IntVal(int64(63_000_000 + i)),
				relational.IntVal(paper.PK(a)),
				relational.IntVal(paper.PK(c)),
			},
		})
	}
	res, err := eng.Mutate(batch)
	if err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	nodes := eng.Graph().NumNodes()
	for name, st := range res.RerankStats {
		if !st.Residual || st.FallbackTaken {
			t.Fatalf("%s: expected a completed residual repair, got %+v", name, st)
		}
		if st.Updates >= e5xWarmFloor(nodes) {
			t.Fatalf("%s: %d updates on a %d-node graph — no win over a full iteration", name, st.Updates, nodes)
		}
	}
}

// e5xWarmFloor is a conservative lower bound on what a warm full re-rank
// costs (node-score updates) after a batch this disruptive: at least five
// arena sweeps.
func e5xWarmFloor(nodes int) int { return 5 * nodes }

// TestResidualHighDampingBudgetTrip pins the d3=0.99 stress setting, whose
// slow global modes decay only geometrically along the push queue, on one
// fixture built twice. A single-tuple re-rank must complete in the
// localized path — FallbackTaken false, no full iteration. A disruptive
// batch of 800 citations drains by pushes at the default 4n budget; on the
// second build, under a budget below the push count that drain took, the
// same batch must trip, report the fallback and run the warm full
// iteration. The served scores stay within the cold-start tolerance
// contract either way.
func TestResidualHighDampingBudgetTrip(t *testing.T) {
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 120
	cfg.Papers = 500
	drainPushes := 0 // the disruptive batch's push count at the default budget
	for _, trip := range []bool{false, true} {
		db, err := datagen.GenerateDBLP(cfg)
		if err != nil {
			t.Fatalf("GenerateDBLP: %v", err)
		}
		eng, err := NewEngine(db, []Setting{{Name: "GA1-d3", GA: datagen.DBLPGA1(), Damping: 0.99}})
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		if trip {
			eng.residualBudget = drainPushes / 2
		}

		res, err := eng.Mutate(citesStreamBatch(eng, 65_000_001, 0, 0))
		if err != nil {
			t.Fatalf("single-tuple Mutate: %v", err)
		}
		st := res.RerankStats["GA1-d3"]
		if !st.Residual || st.FallbackTaken {
			t.Fatalf("d=0.99 single-tuple re-rank fell back: %+v", st)
		}
		if st.Iterations != 0 || st.Pushes == 0 {
			t.Fatalf("d=0.99 single-tuple re-rank did not repair by pushes: %+v", st)
		}

		// A disruptive batch: hundreds of citations at once.
		paper := eng.DB().Relation("Paper")
		big := MutationBatch{Rerank: true}
		for i := 0; i < 800; i++ {
			a := relational.TupleID(i % paper.Len())
			c := relational.TupleID((i*13 + 7) % paper.Len())
			big.Inserts = append(big.Inserts, TupleInsert{
				Rel: "Cites",
				Tuple: relational.Tuple{
					relational.IntVal(66_000_000 + int64(i)),
					relational.IntVal(paper.PK(a)),
					relational.IntVal(paper.PK(c)),
				},
			})
		}
		res, err = eng.Mutate(big)
		if err != nil {
			t.Fatalf("disruptive Mutate: %v", err)
		}
		st = res.RerankStats["GA1-d3"]
		if !trip {
			if !st.Residual || st.FallbackTaken || st.Iterations != 0 {
				t.Fatalf("at the default budget the disruptive d=0.99 batch must drain by pushes: %+v", st)
			}
			drainPushes = st.Pushes
		} else {
			if !st.Residual || !st.FallbackTaken {
				t.Fatalf("under a budget of %d the disruptive d=0.99 batch must trip into the fallback: %+v", eng.residualBudget, st)
			}
			if st.Pushes == 0 || st.Iterations == 0 {
				t.Fatalf("a budget trip pushes first, then runs the full iteration: %+v", st)
			}
		}
		t.Logf("budget %d: disruptive batch %d pushes, %d rounds, fallback %v, %d iterations",
			eng.residualBudget, st.Pushes, st.Rounds, st.FallbackTaken, st.Iterations)
		requireServedNearCold(t, eng, "GA1-d3")
	}
}

// requireServedNearCold holds setting's served scores to a cold run of its
// G_A and damping within the warm≡cold tolerance contract.
func requireServedNearCold(t *testing.T, eng *Engine, setting string) {
	t.Helper()
	i := slices.IndexFunc(eng.settings, func(s Setting) bool { return s.Name == setting })
	if i < 0 {
		t.Fatalf("no setting %s", setting)
	}
	damping := eng.settings[i].Damping
	opts := rank.DefaultOptions()
	opts.Damping = damping
	opts.NormalizeMax = 0
	cold, coldStats, err := computeRank(eng.Graph(), eng.settings[i].GA, opts)
	if err != nil || !coldStats.Converged {
		t.Fatalf("cold: err=%v stats=%+v", err, coldStats)
	}
	maxRaw := 0.0
	for _, sc := range cold {
		if m := sc.MaxScore(); m > maxRaw {
			maxRaw = m
		}
	}
	rank.Normalize(cold, rank.DefaultOptions().NormalizeMax)
	tol := warmColdTolerance(damping, opts.Epsilon, maxRaw)
	got, err := eng.Scores(setting)
	if err != nil {
		t.Fatalf("Scores: %v", err)
	}
	for _, rel := range eng.DB().Relations {
		c, w := cold[rel.Name], got[rel.Name]
		for i := range c {
			d := c[i] - w[i]
			if d < 0 {
				d = -d
			}
			if d > tol {
				t.Fatalf("%s tuple %d: served %.9f vs cold %.9f (tol %g)", rel.Name, i, w[i], c[i], tol)
			}
		}
	}
}

// TestResidualAfterCompactionSweepsOnce: a compaction remaps TupleIDs out
// from under the captured rows, so the next re-rank must seed from a sweep
// — and the one after that seeds from captured rows again.
func TestResidualAfterCompactionSweepsOnce(t *testing.T) {
	eng := residualTestEngine(t, 80, 260)
	eng.compactMin, eng.compactRatio = 1, 0.0001

	cites := eng.DB().Relation("Cites")
	var pk int64
	for i := 0; i < cites.Len(); i++ {
		if !cites.Deleted(relational.TupleID(i)) {
			pk = cites.PK(relational.TupleID(i))
			break
		}
	}
	res, err := eng.Mutate(MutationBatch{
		Rerank:  true,
		Deletes: []TupleDelete{{Rel: "Cites", PK: pk}},
	})
	if err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	if len(res.Compacted) == 0 {
		t.Fatal("aggressive policy did not compact")
	}
	if st := res.RerankStats[DefaultSetting]; st.Residual {
		t.Fatalf("post-compaction re-rank must sweep, got %+v", st)
	}

	res, err = eng.Mutate(citesStreamBatch(eng, 62_000_001, 0, 1))
	if err != nil {
		t.Fatalf("second Mutate: %v", err)
	}
	if st := res.RerankStats[DefaultSetting]; !st.Residual {
		t.Fatalf("re-rank after re-grounding should be residual again, got %+v", st)
	}
}

// TestSweepSeededReranks drives the three re-ranks whose captured rows do
// not cover the prior — the periodic refresh, the first after CompactNow
// and the first after a restore from a snapshot that kept no rows (one
// from before EngineState had them) — and holds each to the one solver: a
// residual push seeded from an exact sweep (Residual false) that drains
// without a full iteration or a fallback, pushes, and serves scores within
// the warm≡cold tolerance of a cold run.
//
// The sweep rescales the prior by the geometry it converged under, which
// the engine retakes at every re-rank and compaction and its snapshot
// keeps, so an insert since then moves b = (1−d)/N exactly: the first
// re-rank after a CompactNow that follows inserts, and a restored engine's
// first re-rank with an insert, drain like the others.
func TestSweepSeededReranks(t *testing.T) {
	eng := residualTestEngine(t, 80, 260)
	requireSwept := func(stage string, eng *Engine, res MutationResult) {
		t.Helper()
		for _, s := range eng.settings {
			st := res.RerankStats[s.Name]
			t.Logf("%s, %s: %d pushes in %d rounds, %d updates", stage, s.Name, st.Pushes, st.Rounds, st.Updates)
			if st.Residual || st.FallbackTaken || st.Iterations != 0 || st.Pushes == 0 {
				t.Fatalf("%s: %s is not a drained sweep-seeded push: %+v", stage, s.Name, st)
			}
			requireServedNearCold(t, eng, s.Name)
		}
	}
	mutate := func(eng *Engine, b MutationBatch) MutationResult {
		t.Helper()
		res, err := eng.Mutate(b)
		if err != nil {
			t.Fatalf("Mutate: %v", err)
		}
		return res
	}
	// deleteCite re-ranks after deleting the first live citation.
	deleteCite := func(eng *Engine) MutationResult {
		t.Helper()
		cites := eng.DB().Relation("Cites")
		for i := range cites.Len() {
			if !cites.Deleted(relational.TupleID(i)) {
				return mutate(eng, MutationBatch{Rerank: true, Deletes: []TupleDelete{{Rel: "Cites", PK: cites.PK(relational.TupleID(i))}}})
			}
		}
		t.Fatal("no citation left to delete")
		return MutationResult{}
	}

	// residualRefreshInterval re-ranks seeded from rows, then the refresh.
	prev := int64(0)
	for i := 0; i <= residualRefreshInterval; i++ {
		pk := int64(67_000_001 + i)
		res := mutate(eng, citesStreamBatch(eng, pk, prev, i))
		prev = pk
		if i == residualRefreshInterval {
			requireSwept("refresh", eng, res)
			break
		}
		for name, st := range res.RerankStats {
			if !st.Residual || st.FallbackTaken {
				t.Fatalf("re-rank %d: %s did not drain from captured rows: %+v", i, name, st)
			}
		}
	}

	// Batches that are not re-ranked insert past the geometry the refresh
	// converged under; CompactNow rescales by that geometry, not by the
	// arena it compacts. The stream's deletes left tombstones to reclaim.
	for i := 0; i < 8; i++ {
		pk := int64(67_100_001 + i)
		b := citesStreamBatch(eng, pk, prev, i)
		b.Rerank = false
		mutate(eng, b)
		prev = pk
	}
	if compacted, err := eng.CompactNow(); err != nil || len(compacted) == 0 {
		t.Fatalf("CompactNow: %v %v", compacted, err)
	}
	requireSwept("after CompactNow", eng, deleteCite(eng))

	st, _, err := eng.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	st.RowsCover, st.Captured, st.ResidualRuns = false, nil, 0
	restore := func() *Engine {
		t.Helper()
		restored, err := NewEngineFromState(eng.settings, st)
		if err != nil {
			t.Fatal(err)
		}
		return restored
	}
	restored := restore()
	requireSwept("after a restore", restored, deleteCite(restored))

	// The snapshot keeps the geometry the raw scores converged under, so an
	// insert rescales b exactly and the sweep stays local.
	restored = restore()
	requireSwept("a restored engine's insert", restored, mutate(restored, citesStreamBatch(restored, 68_000_001, 0, 0)))
}

// TestRerankOnlyBatchReusesConvergedScores: a {Rerank: true} batch with no
// operations right after a re-rank has nothing to repair — the engine
// serves the already-converged scores without any recompute, and since the
// scores are provably unchanged, no epoch moves: a periodic rerank
// heartbeat must not wipe warm summary caches.
func TestRerankOnlyBatchReusesConvergedScores(t *testing.T) {
	eng := residualTestEngine(t, 80, 260)
	before := eng.EpochFor("Author")
	res, err := eng.Mutate(MutationBatch{Rerank: true})
	if err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	if !res.Reranked {
		t.Fatal("Rerank not honored")
	}
	for name, st := range res.RerankStats {
		if st.Iterations != 0 || st.Pushes != 0 {
			t.Fatalf("%s: rerank-only batch paid recompute work: %+v", name, st)
		}
	}
	if len(res.Epochs) != 0 || eng.EpochFor("Author") != before {
		t.Fatalf("no-op re-rank rotated epochs: %v (Author %d -> %d)", res.Epochs, before, eng.EpochFor("Author"))
	}
	if _, err := search(eng, "Author", "Faloutsos", 5, QueryRequest{}); err != nil {
		t.Fatalf("post-rerank search: %v", err)
	}

	// A re-rank that actually recomputes still rotates every epoch.
	if _, err := eng.Mutate(citesStreamBatch(eng, 64_000_001, 0, 0)); err != nil {
		t.Fatalf("second Mutate: %v", err)
	}
	if eng.EpochFor("Author") == before {
		t.Fatal("real re-rank did not advance epochs")
	}
}

// TestRerankAllocBytesIndependentOfN: a steady-state residual re-rank
// allocates for its frontier, not for the arena. The same single-paper
// re-ranked stream runs on DBLP at the default size and at four times the
// authors and papers, with the collector off, and the bytes one Mutate
// allocates (runtime.MemStats.TotalAlloc) are compared at the median of the
// steady-state calls — not the first (it makes the push scratch and takes
// the vectors' first growth), not the scheduled refreshes (Residual false)
// and not the call after one.
func TestRerankAllocBytesIndependentOfN(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perRerank := func(scale int) (median uint64, nodes int) {
		cfg := datagen.DefaultDBLPConfig()
		cfg.Authors *= scale
		cfg.Papers *= scale
		eng, err := OpenDBLP(cfg)
		if err != nil {
			t.Fatalf("OpenDBLP x%d: %v", scale, err)
		}
		nodes = eng.Graph().NumNodes()
		iv, sv := relational.IntVal, relational.StrVal
		var steady []uint64
		var before, after runtime.MemStats
		afterRefresh := true // the first call counts as one
		for i := 0; i < 3*residualRefreshInterval; i++ {
			id := int64(60_000_000 + i)
			batch := MutationBatch{Rerank: true, Inserts: []TupleInsert{
				{Rel: "Paper", Tuple: relational.Tuple{iv(id), iv(int64(1 + i%300)), sv("alloc probe")}},
				{Rel: "Writes", Tuple: relational.Tuple{iv(id), iv(id), iv(int64(1 + (i*37)%cfg.Authors))}},
			}}
			runtime.ReadMemStats(&before)
			res, err := eng.Mutate(batch)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("x%d batch %d: %v", scale, i, err)
			}
			residual := true
			for name, st := range res.RerankStats {
				if st.FallbackTaken {
					t.Fatalf("x%d batch %d: %s fell back", scale, i, name)
				}
				residual = residual && st.Residual
			}
			if residual && !afterRefresh {
				steady = append(steady, after.TotalAlloc-before.TotalAlloc)
			}
			afterRefresh = !residual
		}
		if len(steady) < 2*residualRefreshInterval {
			t.Fatalf("x%d: only %d steady-state residual re-ranks measured", scale, len(steady))
		}
		slices.Sort(steady)
		t.Logf("x%d: %d nodes, %d steady re-ranks, bytes/re-rank min %d median %d max %d",
			scale, nodes, len(steady), steady[0], steady[len(steady)/2], steady[len(steady)-1])
		return steady[len(steady)/2], nodes
	}
	small, _ := perRerank(1)
	large, nodes := perRerank(4)
	if float64(large) >= 1.5*float64(small) {
		t.Errorf("re-rank allocation grew with the arena: %d bytes at x4 vs %d at x1 (want < 1.5x)", large, small)
	}
	if vector := uint64(8 * nodes); large >= vector {
		t.Errorf("a re-rank of %d nodes allocated %d bytes, not under one score vector (%d)", nodes, large, vector)
	}
}
