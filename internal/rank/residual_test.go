package rank_test

import (
	"math"
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/datagraph"
	"sizelos/internal/rank"
	"sizelos/internal/relational"
)

// residualTol bounds |residual - cold| per tuple on the raw score scale.
// Both runs stop when their max residual drops below epsilon, leaving each
// within ~epsilon/(1-d) of the true fixed point; the factor adds slack for
// the prior's own carried-over sub-epsilon residual.
func residualTol(damping float64) float64 {
	return 50 * 1e-9 / (1 - damping)
}

// residualFixture builds a DBLP store, graph and compiled GA1 plans plus
// the converged prior raw scores for one damping.
func residualFixture(t *testing.T, damping float64) (*relational.DB, *datagraph.Graph, *rank.Plans, relational.DBScores) {
	t.Helper()
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 120
	cfg.Papers = 500
	db, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	g, err := datagraph.Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ps, err := rank.Compile(g, datagen.DBLPGA1(), nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	opts := rank.DefaultOptions()
	opts.Damping = damping
	opts.NormalizeMax = 0
	prior, st, err := ps.Run(opts)
	if err != nil || !st.Converged {
		t.Fatalf("prior Run: err=%v stats=%+v", err, st)
	}
	return db, g, ps, prior
}

// citesBatch inserts nIns fresh citations between existing papers and
// optionally deletes one of the originally generated citations.
func citesBatch(t *testing.T, db *relational.DB, nIns int, deleteFirst bool) relational.Batch {
	t.Helper()
	paper := db.Relation("Paper")
	cites := db.Relation("Cites")
	var b relational.Batch
	if deleteFirst {
		for i := 0; i < cites.Len(); i++ {
			if !cites.Deleted(relational.TupleID(i)) {
				b.Deletes = append(b.Deletes, relational.DeleteOp{Rel: "Cites", PK: cites.PK(relational.TupleID(i))})
				break
			}
		}
	}
	pk := int64(70_000_000)
	for i := 0; i < nIns; i++ {
		a := relational.TupleID(i % paper.Len())
		c := relational.TupleID((i*13 + 7) % paper.Len())
		b.Inserts = append(b.Inserts, relational.InsertOp{Rel: "Cites", Tuple: relational.Tuple{
			relational.IntVal(pk + int64(i)),
			relational.IntVal(paper.PK(a)),
			relational.IntVal(paper.PK(c)),
		}})
	}
	return b
}

// requireRowsCompiled fails unless every row of ps equals the row a fresh
// Compile of ga over g builds: after an Apply, proof that the batch's rows
// were rebuilt.
func requireRowsCompiled(t *testing.T, ps *rank.Plans, g *datagraph.Graph, ga *rank.GA) {
	t.Helper()
	fresh, err := rank.Compile(g, ga, nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if msg := ps.RowsDiff(fresh); msg != "" {
		t.Fatalf("a row differs from a fresh Compile's: %s", msg)
	}
}

// applyAll threads one batch through store, graph and plans — the engine's
// Mutate ordering.
func applyAll(t *testing.T, db *relational.DB, g *datagraph.Graph, ps *rank.Plans, b relational.Batch, pending *rank.Pending) {
	t.Helper()
	res, err := db.Apply(b)
	if err != nil {
		t.Fatalf("db.Apply: %v", err)
	}
	if err := g.Apply(res); err != nil {
		t.Fatalf("graph.Apply: %v", err)
	}
	ps.Apply(res, pending)
}

// coldScores recomputes the setting from scratch over a freshly built graph.
func coldScores(t *testing.T, db *relational.DB, ga *rank.GA, damping float64) relational.DBScores {
	t.Helper()
	g, err := datagraph.Build(db)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	opts := rank.DefaultOptions()
	opts.Damping = damping
	opts.NormalizeMax = 0
	ps, err := rank.Compile(g, ga, nil)
	if err != nil {
		t.Fatalf("cold Compile: %v", err)
	}
	sc, st, err := ps.Run(opts)
	if err != nil || !st.Converged {
		t.Fatalf("cold: err=%v stats=%+v", err, st)
	}
	return sc
}

func maxDiff(t *testing.T, a, b relational.DBScores) float64 {
	t.Helper()
	worst := 0.0
	for rel, s := range a {
		o := b[rel]
		if len(s) != len(o) {
			t.Fatalf("%s: score lengths %d vs %d", rel, len(s), len(o))
		}
		for i := range s {
			if d := math.Abs(s[i] - o[i]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// TestResidualMatchesCold is the core contract: after a small batch, the
// residual push lands on the cold fixed point within epsilon-scale
// tolerance, touching only a fraction of the graph.
func TestResidualMatchesCold(t *testing.T) {
	for _, damping := range []float64{0.85, 0.10} {
		db, g, ps, prior := residualFixture(t, damping)
		pending := ps.NewPending()
		applyAll(t, db, g, ps, citesBatch(t, db, 3, true), pending)

		opts := rank.DefaultOptions()
		opts.Damping = damping
		opts.NormalizeMax = 0
		opts.Warm = prior
		// The warm full iteration over the same mutated plans: the work
		// baseline residual mode must beat.
		_, warmSt, err := ps.Run(opts)
		if err != nil || !warmSt.Converged {
			t.Fatalf("d=%v: warm Run: err=%v stats=%+v", damping, err, warmSt)
		}
		got, st, err := ps.RunResidual(pending, opts)
		if err != nil {
			t.Fatalf("d=%v: RunResidual: %v", damping, err)
		}
		if !st.Converged || !st.WarmStart {
			t.Fatalf("d=%v: stats %+v", damping, st)
		}
		if st.Fallback {
			t.Fatalf("d=%v: small batch fell back: %+v", damping, st)
		}
		if st.Pushes == 0 {
			t.Fatalf("d=%v: expected pushes for an edge-changing batch", damping)
		}
		if st.Updates*5 > warmSt.Updates {
			t.Fatalf("d=%v: residual updates %d not >=5x cheaper than warm %d", damping, st.Updates, warmSt.Updates)
		}
		cold := coldScores(t, db, datagen.DBLPGA1(), damping)
		if d := maxDiff(t, got, cold); d > residualTol(damping) {
			t.Fatalf("d=%v: residual diverged from cold by %g (tol %g)", damping, d, residualTol(damping))
		}
	}
}

// TestResidualAccumulatesAcrossBatches applies several batches before one
// residual re-rank: the pending delta must pair the prior with the FIRST
// pre-mutation row of every changed source, not the latest.
func TestResidualAccumulatesAcrossBatches(t *testing.T) {
	const damping = 0.85
	db, g, ps, prior := residualFixture(t, damping)
	pending := ps.NewPending()
	applyAll(t, db, g, ps, citesBatch(t, db, 2, true), pending)
	applyAll(t, db, g, ps, citesBatch(t, db, 0, true), pending) // delete again: re-touches sources
	opts := rank.DefaultOptions()
	opts.Damping = damping
	opts.NormalizeMax = 0
	opts.Warm = prior
	got, st, err := ps.RunResidual(pending, opts)
	if err != nil || !st.Converged || st.Fallback {
		t.Fatalf("RunResidual: err=%v stats=%+v", err, st)
	}
	if st.Pushes == 0 {
		t.Fatal("nothing was pushed: pending recorded no changes")
	}
	cold := coldScores(t, db, datagen.DBLPGA1(), damping)
	if d := maxDiff(t, got, cold); d > residualTol(damping) {
		t.Fatalf("residual diverged from cold by %g", d)
	}
}

// TestResidualRescaleOnly: a batch that inserts nodes without touching any
// flow of the G_A (a lone author writes nothing) changes only N. The new
// fixed point is exactly the rescaled prior — zero pushes required.
func TestResidualRescaleOnly(t *testing.T) {
	const damping = 0.85
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 120
	cfg.Papers = 500
	db, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	g, err := datagraph.Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Citation-only G_A: author inserts cannot change any compiled row.
	ga := rank.NewGA("cites-only").Hop("Cites", 0, 1, 0.7)
	ps, err := rank.Compile(g, ga, nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	opts := rank.DefaultOptions()
	opts.Damping = damping
	opts.NormalizeMax = 0
	prior, _, err := ps.Run(opts)
	if err != nil {
		t.Fatalf("prior: %v", err)
	}

	pending := ps.NewPending()
	applyAll(t, db, g, ps, relational.Batch{Inserts: []relational.InsertOp{
		{Rel: "Author", Tuple: relational.Tuple{relational.IntVal(80_000_000), relational.StrVal("Lone Author")}},
	}}, pending)

	opts.Warm = prior
	got, st, err := ps.RunResidual(pending, opts)
	if err != nil || !st.Converged {
		t.Fatalf("RunResidual: err=%v stats=%+v", err, st)
	}
	if st.Pushes != 0 {
		t.Fatalf("pure-insert batch outside the G_A pushed %d times", st.Pushes)
	}
	cold := coldScores(t, db, ga, damping)
	if d := maxDiff(t, got, cold); d > residualTol(damping) {
		t.Fatalf("rescaled prior diverged from cold by %g", d)
	}
}

// TestResidualBudgetFallback forces the push budget to zero headroom: the
// run must abandon the localized path, report Fallback, and still return
// scores within the warm iteration's tolerance contract.
func TestResidualBudgetFallback(t *testing.T) {
	const damping = 0.85
	db, g, ps, prior := residualFixture(t, damping)
	pending := ps.NewPending()
	applyAll(t, db, g, ps, citesBatch(t, db, 3, true), pending)

	opts := rank.DefaultOptions()
	opts.Damping = damping
	opts.NormalizeMax = 0
	opts.Warm = prior
	opts.ResidualBudget = 1
	got, st, err := ps.RunResidual(pending, opts)
	if err != nil {
		t.Fatalf("RunResidual: %v", err)
	}
	if !st.Fallback {
		t.Fatalf("budget 1 did not fall back: %+v", st)
	}
	if !st.Converged || !st.WarmStart {
		t.Fatalf("fallback stats %+v", st)
	}
	cold := coldScores(t, db, datagen.DBLPGA1(), damping)
	if d := maxDiff(t, got, cold); d > residualTol(damping) {
		t.Fatalf("fallback diverged from cold by %g", d)
	}
}

// TestResidualValueRank covers value-proportional split recompilation: the
// TPC-H GA1 weights depend on sibling values, so deleting one lineitem
// renormalizes its order's whole row.
func TestResidualValueRank(t *testing.T) {
	const damping = 0.85
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
	ga := datagen.TPCHGA1()
	ps, err := rank.Compile(g, ga, nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	opts := rank.DefaultOptions()
	opts.Damping = damping
	opts.NormalizeMax = 0
	prior, _, err := ps.Run(opts)
	if err != nil {
		t.Fatalf("prior: %v", err)
	}

	li := db.Relation("Lineitem")
	var del relational.DeleteOp
	for i := 0; i < li.Len(); i++ {
		if !li.Deleted(relational.TupleID(i)) {
			del = relational.DeleteOp{Rel: "Lineitem", PK: li.PK(relational.TupleID(i))}
			break
		}
	}
	pending := ps.NewPending()
	applyAll(t, db, g, ps, relational.Batch{Deletes: []relational.DeleteOp{del}}, pending)

	opts.Warm = prior
	got, st, err := ps.RunResidual(pending, opts)
	if err != nil || !st.Converged {
		t.Fatalf("RunResidual: err=%v stats=%+v", err, st)
	}
	cold := coldScores(t, db, ga, damping)
	if d := maxDiff(t, got, cold); d > residualTol(damping) {
		t.Fatalf("ValueRank residual diverged from cold by %g", d)
	}
}

// TestPlansApplyMatchesRecompile pins the plans-level equivalence the
// fallback path relies on: a full Run over incrementally Applied plans is
// bit-for-bit identical to a Run over plans recompiled from the mutated
// graph (rows rebuilt from the maintained graph are content-identical, and
// Run reads every row in the same canonical order).
func TestPlansApplyMatchesRecompile(t *testing.T) {
	const damping = 0.85
	db, g, ps, _ := residualFixture(t, damping)
	applyAll(t, db, g, ps, citesBatch(t, db, 4, true), nil)
	requireRowsCompiled(t, ps, g, datagen.DBLPGA1())

	opts := rank.DefaultOptions()
	opts.Damping = damping
	opts.NormalizeMax = 0
	applied, _, err := ps.Run(opts)
	if err != nil {
		t.Fatalf("applied Run: %v", err)
	}
	fresh, err := rank.Compile(g, datagen.DBLPGA1(), nil)
	if err != nil {
		t.Fatalf("recompile: %v", err)
	}
	recompiled, _, err := fresh.Run(opts)
	if err != nil {
		t.Fatalf("recompiled Run: %v", err)
	}
	for rel, s := range recompiled {
		o := applied[rel]
		if len(s) != len(o) {
			t.Fatalf("%s: lengths %d vs %d", rel, len(s), len(o))
		}
		for i := range s {
			if s[i] != o[i] {
				t.Fatalf("%s[%d]: applied %v vs recompiled %v (must be bitwise identical)", rel, i, o[i], s[i])
			}
		}
	}
}
