package rank_test

import (
	"maps"
	"math"
	"reflect"
	"slices"
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
		pending := rank.Geometry(rank.ArenaSlots(db))
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

// TestAttachSeedsAsCaptured: rows a Pending captured, handed to a fresh
// Geometry by Attach, seed a RunResidual bit for bit as the Pending that
// captured them does, under uniform and value-proportional splits. Attach
// refuses, and leaves the Geometry sweeping, rows no capture could have
// made — a plan ordinal past the plans, a source or target at its
// relation's slot count, weights that do not pair with the targets — and
// RunResidual refuses a nil Pending.
func TestAttachSeedsAsCaptured(t *testing.T) {
	const damping = 0.85
	for _, tc := range rowsCases() {
		t.Run(tc.name, func(t *testing.T) {
			db := tc.db(t)
			g, err := datagraph.Build(db)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := rank.Compile(g, tc.ga, nil)
			if err != nil {
				t.Fatal(err)
			}
			opts := rank.DefaultOptions()
			opts.Damping, opts.NormalizeMax = damping, 0
			prior, _, err := ps.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			slots := rank.ArenaSlots(db)
			captured := rank.Geometry(slots)
			applyAll(t, db, g, ps, tc.small(t, db), captured)
			rows := captured.Rows()
			attached := rank.Geometry(slots)
			if err := attached.Attach(ps, rows); err != nil {
				t.Fatal(err)
			}
			run := func(p *rank.Pending) (relational.DBScores, rank.Stats) {
				t.Helper()
				o := opts
				o.Warm = make(relational.DBScores, len(prior))
				for rel, v := range prior {
					o.Warm[rel] = slices.Clone(v)
				}
				sc, st, err := ps.RunResidual(p, o)
				if err != nil || !st.Converged || st.Fallback || st.Pushes == 0 {
					t.Fatalf("RunResidual: err=%v stats=%+v", err, st)
				}
				return sc, st
			}
			want, wantSt := run(captured)
			got, gotSt := run(attached)
			if !reflect.DeepEqual(wantSt, gotSt) {
				t.Fatalf("attached rows ran %+v, captured %+v", gotSt, wantSt)
			}
			for rel, v := range want {
				if !slices.EqualFunc(v, got[rel], func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
					t.Fatalf("%s: attached rows repaired other scores than the captured ones", rel)
				}
			}

			// A captured row with targets to break, under a value split where
			// the G_A has one.
			pi, src, weighted := -1, relational.TupleID(0), false
			for i, m := range rows {
				for s, r := range m {
					if len(r.Targets) > 0 && (pi < 0 || !weighted && r.Weights != nil) {
						pi, src, weighted = i, s, r.Weights != nil
					}
				}
			}
			if pi < 0 {
				t.Fatal("the batch captured no row with targets")
			}
			t.Logf("breaking plan %d source %d (value split %v)", pi, src, weighted)
			broken := func(edit func(m map[relational.TupleID]rank.Row)) []map[relational.TupleID]rank.Row {
				out := slices.Clone(rows)
				out[pi] = maps.Clone(rows[pi])
				edit(out[pi])
				return out
			}
			row := rows[pi][src]
			bad := map[string][]map[relational.TupleID]rank.Row{
				"a plan past the plans": append(slices.Clone(rows), nil),
				"a source at its relation's slot count": broken(func(m map[relational.TupleID]rank.Row) {
					m[relational.TupleID(ps.Sources(pi))] = rank.Row{}
				}),
				"a negative source": broken(func(m map[relational.TupleID]rank.Row) { m[-1] = rank.Row{} }),
				"a target at its relation's slot count": broken(func(m map[relational.TupleID]rank.Row) {
					r := rank.Row{Targets: append(slices.Clone(row.Targets), relational.TupleID(ps.TargetSlots(pi)))}
					if weighted {
						r.Weights = append(slices.Clone(row.Weights), 1)
					}
					m[src] = r
				}),
			}
			if weighted {
				bad["weights one short of the targets"] = broken(func(m map[relational.TupleID]rank.Row) {
					m[src] = rank.Row{Targets: row.Targets, Weights: row.Weights[1:]}
				})
			} else {
				bad["weights on a uniform split"] = broken(func(m map[relational.TupleID]rank.Row) {
					m[src] = rank.Row{Targets: row.Targets, Weights: make([]float64, len(row.Targets))}
				})
			}
			// The last slots are still valid.
			if err := rank.Geometry(slots).Attach(ps, broken(func(m map[relational.TupleID]rank.Row) {
				m[relational.TupleID(ps.Sources(pi)-1)] = rank.Row{}
			})); err != nil {
				t.Fatalf("the last source slot: %v", err)
			}
			for name, rows := range bad {
				p := rank.Geometry(slots)
				if err := p.Attach(ps, rows); err == nil {
					t.Fatalf("Attach accepted %s", name)
				}
				if len(p.Rows()) != 0 {
					t.Fatalf("a refused Attach (%s) left rows behind", name)
				}
			}
			if _, _, err := ps.RunResidual(nil, opts); err == nil {
				t.Fatal("RunResidual accepted a nil Pending")
			}
		})
	}
}

// TestResidualAccumulatesAcrossBatches applies several batches before one
// residual re-rank: the pending delta must pair the prior with the FIRST
// pre-mutation row of every changed source, not the latest.
func TestResidualAccumulatesAcrossBatches(t *testing.T) {
	const damping = 0.85
	db, g, ps, prior := residualFixture(t, damping)
	pending := rank.Geometry(rank.ArenaSlots(db))
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

	pending := rank.Geometry(rank.ArenaSlots(db))
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
	pending := rank.Geometry(rank.ArenaSlots(db))
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
	pending := rank.Geometry(rank.ArenaSlots(db))
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

// TestSweepSeedsMatchOneIteration: the seeds a sweep-seeded RunResidual
// drains from are, bit for bit, one step of the full iteration from the
// rescaled prior minus that prior, at every node where the difference is
// at or above ε, and nowhere else. It holds unrescaled (the arena's own
// Geometry, c = 1) and,
// after an Apply, under the rescale of the Geometry the prior converged
// under, for uniform (DBLP) and value-proportional (TPC-H) splits.
func TestSweepSeedsMatchOneIteration(t *testing.T) {
	const damping, eps = 0.85, 1e-9
	for _, tc := range rowsCases() {
		t.Run(tc.name, func(t *testing.T) {
			db := tc.db(t)
			g, err := datagraph.Build(db)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := rank.Compile(g, tc.ga, nil)
			if err != nil {
				t.Fatal(err)
			}
			// A prior some iterations short of converged, so that nodes
			// all over the arena seed, and some do not.
			prior, _, err := ps.Run(rank.Options{Damping: damping, Epsilon: eps, MaxIter: 12})
			if err != nil {
				t.Fatal(err)
			}
			check := func(stage string, pending *rank.Pending) {
				t.Helper()
				x := make(relational.DBScores, len(prior))
				for rel, v := range prior {
					x[rel] = slices.Clone(v)
				}
				seeds := ps.SweepSeeds(pending, x, damping, eps)
				step, _, err := ps.Run(rank.Options{Damping: damping, Epsilon: eps, MaxIter: 1, Warm: x})
				if err != nil {
					t.Fatal(err)
				}
				want, got := 0, 0
				for _, rel := range db.Relations {
					got += len(seeds[rel.Name])
					for i, xv := range x[rel.Name] {
						r := step[rel.Name][i] - xv
						seed, ok := seeds[rel.Name][relational.TupleID(i)]
						if math.Abs(r) < eps {
							if ok {
								t.Fatalf("%s: %s tuple %d seeded %g, below ε", stage, rel.Name, i, seed)
							}
							continue
						}
						want++
						if !ok || math.Float64bits(seed) != math.Float64bits(r) {
							t.Fatalf("%s: %s tuple %d: seed %v (present %v), one iteration gives %v", stage, rel.Name, i, seed, ok, r)
						}
					}
				}
				if got != want || want == 0 || want == ps.NumNodes() {
					t.Fatalf("%s: %d seeds, %d nodes at or above ε of %d", stage, got, want, ps.NumNodes())
				}
				t.Logf("%s: %d of %d nodes seeded", stage, want, ps.NumNodes())
			}
			check("before Apply", rank.Geometry(rank.ArenaSlots(db)))
			slots := rank.ArenaSlots(db)
			applyAll(t, db, g, ps, tc.batch(t, db), nil)
			check("after Apply", rank.Geometry(slots))
		})
	}
}
