package rank

// Edge tests for the residual push loop (push.go): an empty queue, narrow
// and wide queue generations, a seed-mass trip, budget exhaustion
// mid-repair — each holding the scratch and fallback contracts. The
// fixtures here are hand-built rings large enough that a generation runs to
// hundreds of nodes (the engine-level harness re-proves the same contract
// end to end on DBLP/TPC-H shapes).

import (
	"math"
	"reflect"
	"testing"

	"sizelos/internal/datagraph"
	"sizelos/internal/relational"
)

// ringGA mixes a paper-to-paper hop with direct FK flows through the
// citation tuples so BOTH relations carry and circulate authority: active
// nodes span the whole arena, so a batch's frontier spreads instead of
// staying in one relation. Every node emits exactly `rate` (papers rate/2 hop +
// rate/2 to their citation children, citations `rate` back to their citing
// paper), so the flow matrix has uniform column sums and spectral radius
// `rate`; the Paper→Cites→Paper 2-cycles on top of the hop ring keep the
// graph non-bipartite.
func ringGA(rate float64) *GA {
	return NewGA("ring").
		Hop("Cites", 0, 1, rate/2).
		Direct("Cites", 0, false, rate/2).
		Direct("Cites", 0, true, rate)
}

// ringFixture builds a citation ring: papers 1..N, each citing the next
// `fanout` papers ahead and the `fanout` behind. The arena is papers +
// citation tuples, comfortably past the 4096-node threshold at the sizes
// the tests use, and ringGA keeps every slot active.
func ringFixture(t *testing.T, papers, fanout int, rate float64) (*relational.DB, *datagraph.Graph, *Plans) {
	t.Helper()
	db := relational.NewDB("ring")
	paper := relational.MustNewRelation("Paper",
		[]relational.Column{{Name: "id", Kind: relational.KindInt}}, "id", nil)
	cites := relational.MustNewRelation("Cites",
		[]relational.Column{
			{Name: "id", Kind: relational.KindInt},
			{Name: "citing", Kind: relational.KindInt},
			{Name: "cited", Kind: relational.KindInt},
		}, "id", []relational.ForeignKey{
			{Column: "citing", Ref: "Paper"},
			{Column: "cited", Ref: "Paper"},
		})
	db.MustAddRelation(paper)
	db.MustAddRelation(cites)
	for i := 1; i <= papers; i++ {
		paper.MustInsert(relational.Tuple{relational.IntVal(int64(i))})
	}
	ck := int64(0)
	for i := 0; i < papers; i++ {
		for k := 1; k <= fanout; k++ {
			for _, j := range []int{(i + k) % papers, (i - k + papers) % papers} {
				cites.MustInsert(relational.Tuple{
					relational.IntVal(ck),
					relational.IntVal(int64(i + 1)),
					relational.IntVal(int64(j + 1)),
				})
				ck++
			}
		}
	}
	g, err := datagraph.Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ps, err := Compile(g, ringGA(rate), nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return db, g, ps
}

// ringBatch inserts one long-range citation per paper i < nIns.
func ringBatch(db *relational.DB, nIns int) relational.Batch {
	papers := db.Relation("Paper").Len()
	var b relational.Batch
	for i := 0; i < nIns; i++ {
		b.Inserts = append(b.Inserts, relational.InsertOp{Rel: "Cites", Tuple: relational.Tuple{
			relational.IntVal(int64(9_000_000 + i)),
			relational.IntVal(int64(i%papers + 1)),
			relational.IntVal(int64((i+papers/2)%papers + 1)),
		}})
	}
	return b
}

// ringMutated returns a mutated ring plus the pending delta and the
// pre-mutation prior the residual run repairs from.
func ringMutated(t *testing.T, papers, fanout, nIns int, rate, damping float64) (*Plans, *Pending, relational.DBScores) {
	t.Helper()
	db, g, ps := ringFixture(t, papers, fanout, rate)
	opts := DefaultOptions()
	opts.Damping = damping
	opts.NormalizeMax = 0
	prior, st, err := ps.Run(opts)
	if err != nil || !st.Converged {
		t.Fatalf("prior Run: err=%v stats=%+v", err, st)
	}
	pending := Geometry(ArenaSlots(db))
	res, err := db.Apply(ringBatch(db, nIns))
	if err != nil {
		t.Fatalf("db.Apply: %v", err)
	}
	if err := g.Apply(res); err != nil {
		t.Fatalf("graph.Apply: %v", err)
	}
	ps.Apply(res, pending)
	return ps, pending, prior
}

// cloneScores deep-copies a score table: RunResidual repairs its prior in
// place, so a test that repairs one prior more than once hands out copies.
func cloneScores(sc relational.DBScores) relational.DBScores {
	out := make(relational.DBScores, len(sc))
	for rel, s := range sc {
		out[rel] = append(relational.Scores(nil), s...)
	}
	return out
}

// requireBitIdentical fails on the first score differing by even one ULP.
func requireBitIdentical(t *testing.T, label string, a, b relational.DBScores) {
	t.Helper()
	for rel, s := range a {
		o := b[rel]
		if len(s) != len(o) {
			t.Fatalf("%s: %s score lengths %d vs %d", label, rel, len(s), len(o))
		}
		for i := range s {
			if s[i] != o[i] {
				t.Fatalf("%s: %s[%d]: %v vs %v — schedules are not bit-identical", label, rel, i, s[i], o[i])
			}
		}
	}
}

// TestDrainEmptyQueue: a repair with nothing above threshold performs no
// rounds, no pushes, and reports success — the no-op edge of the loop.
func TestDrainEmptyQueue(t *testing.T) {
	_, _, ps := ringFixture(t, 50, 2, 0.7)
	pr := &pushRun{ps: ps, sc: ps.takeScratch(), d: 0.85}
	var stats Stats
	if !pr.drain(1e-9, 4*ps.n, &stats) {
		t.Fatal("empty queue reported budget exhaustion")
	}
	if stats.Rounds != 0 || stats.Pushes != 0 {
		t.Fatalf("empty queue did work: %+v", stats)
	}
	ps.putScratch(pr.sc)
	requireScratchZero(t, ps)
}

// requireScratchZero scans every scratch on the Plans' free list in full:
// between repairs the residual vector and the marks are all-zero and the
// dirty list is empty, whatever the last repair did.
func requireScratchZero(t *testing.T, ps *Plans) {
	t.Helper()
	if len(ps.scratchFree) == 0 {
		t.Fatal("no scratch on the free list")
	}
	for k, sc := range ps.scratchFree {
		if len(sc.r) < ps.n || len(sc.mark) < ps.n {
			t.Fatalf("scratch %d covers %d/%d of %d nodes", k, len(sc.r), len(sc.mark), ps.n)
		}
		if len(sc.dirty) != 0 {
			t.Fatalf("scratch %d: %d nodes left on the dirty list", k, len(sc.dirty))
		}
		for v := range sc.r {
			if sc.r[v] != 0 || sc.mark[v] != 0 {
				t.Fatalf("scratch %d: node %d left r=%v mark=%b", k, v, sc.r[v], sc.mark[v])
			}
		}
	}
}

// wideFrontier is the queue-generation size the wide cases must reach in
// at least one round: well past anything DBLP or TPC-H traffic produces, so
// the queue is exercised at a length a one-tuple batch never grows it to.
const wideFrontier = 256

// TestResidualScratchAndFallbackInvariants walks every way a RunResidual
// can end — drained by narrow rounds, drained through rounds hundreds of
// nodes wide, a seed-mass trip before any round, a budget trip mid-push at
// d = 0.85 and at d = 0.99 — and holds each to the same contract: the
// Plans' one scratch is back all-zero, the same call from another copy of
// the prior returns the same bits, a drained repair hands back the very
// table it was given, lands on the cold fixed point and reports every
// relation's maximum as a scan of it finds it, and a trip returns bit for
// bit what Plans.Run returns warm from what the repair left in the table it
// was given, on the cold fixed point, with no maxima.
func TestResidualScratchAndFallbackInvariants(t *testing.T) {
	for _, tc := range []struct {
		name          string
		nIns          int
		rate, damping float64
		budget        int
		check         func(t *testing.T, st Stats)
	}{
		{"drained, direct rounds only", 8, 0.7, 0.85, 0, func(t *testing.T, st Stats) {
			if st.Fallback || st.Rounds == 0 {
				t.Fatalf("want a drained push: %+v", st)
			}
		}},
		{"drained, wide frontier", 150, 0.7, 0.85, 0, func(t *testing.T, st Stats) {
			// A mean generation this wide means some round's was.
			if st.Fallback || st.Pushes < wideFrontier*st.Rounds {
				t.Fatalf("want a drained push with a round of %d nodes: %+v", wideFrontier, st)
			}
		}},
		{"seed-mass trip", 1500, 0.7, 0.85, 0, func(t *testing.T, st Stats) {
			if !st.Fallback || st.Rounds != 0 {
				t.Fatalf("want a trip before the first round: %+v", st)
			}
		}},
		{"budget trip mid-push, d=0.85", 150, 0.7, 0.85, 3000, func(t *testing.T, st Stats) {
			if !st.Fallback || st.Rounds == 0 || st.Pushes < wideFrontier*st.Rounds {
				t.Fatalf("want a trip after wide rounds ran: %+v", st)
			}
		}},
		{"budget trip mid-push, d=0.99", 150, 0.9, 0.99, 0, func(t *testing.T, st Stats) {
			if !st.Fallback || st.Rounds == 0 {
				t.Fatalf("want a trip after rounds ran: %+v", st)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ps, pending, prior := ringMutated(t, 1500, 2, tc.nIns, tc.rate, tc.damping)
			opts := DefaultOptions()
			opts.Damping = tc.damping
			opts.NormalizeMax = 0
			opts.ResidualBudget = tc.budget

			opts.Warm = cloneScores(prior)
			got, st, err := ps.RunResidual(pending, opts)
			if err != nil || !st.Converged {
				t.Fatalf("RunResidual: err=%v stats=%+v", err, st)
			}
			tc.check(t, st)
			if len(ps.scratchFree) != 1 {
				t.Fatalf("%d scratches after one repair", len(ps.scratchFree))
			}
			requireScratchZero(t, ps)

			if !st.Fallback {
				if reflect.ValueOf(got).Pointer() != reflect.ValueOf(opts.Warm).Pointer() {
					t.Fatal("a drained repair returned a table other than Options.Warm")
				}
				requireNearCold(t, ps, got, tc.damping)
				for ri, r := range ps.g.DB.Relations {
					if m := got[r.Name].MaxScore(); math.Float64bits(st.Max[ri]) != math.Float64bits(m) {
						t.Fatalf("%s: tracked maximum %v, scan %v (%d rescans)", r.Name, st.Max[ri], m, st.MaxRescans)
					}
				}
			} else {
				if st.Max != nil {
					t.Fatalf("a fallback reported maxima %v", st.Max)
				}
				full := opts
				full.Warm = cloneScores(opts.Warm)
				want, _, err := ps.Run(full)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				requireSameTable(t, "fallback vs Plans.Run from what the repair left", want, got)
				requireNearCold(t, ps, got, tc.damping)
			}

			opts.Warm = cloneScores(prior)
			again, st2, err := ps.RunResidual(pending, opts)
			if err != nil {
				t.Fatalf("second RunResidual: %v", err)
			}
			if !reflect.DeepEqual(st2, st) {
				t.Fatalf("second call's stats moved: %+v vs %+v", st2, st)
			}
			requireSameTable(t, "second call", got, again)
			requireScratchZero(t, ps)
		})
	}
}

// requireSameTable is requireBitIdentical both ways round: the same
// relations, the same lengths, the same bits.
func requireSameTable(t *testing.T, label string, a, b relational.DBScores) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d relations", label, len(a), len(b))
	}
	requireBitIdentical(t, label, a, b)
}

// TestResidualBudgetExhaustion: the budget is counted per push, so a repair
// that exhausts it mid-stream stops before the push that would cross it —
// rounds ran, pushes never exceed the budget —
// and falls back to full-iteration scores on the cold fixed point. Two
// trips: a tight explicit budget at d = 0.85, and the default 4n budget at
// d = 0.99, where the slow global modes of a disruptive batch decay too
// slowly for any push to finish inside it.
func TestResidualBudgetExhaustion(t *testing.T) {
	for _, tc := range []struct {
		name          string
		rate, damping float64
		budget        int
	}{
		// Enough budget for the first rounds, not the whole repair: the trip
		// happens mid-stream.
		{"tight budget", 0.7, 0.85, 3000},
		{"high damping, default budget", 0.9, 0.99, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ps, pending, prior := ringMutated(t, 1500, 2, 150, tc.rate, tc.damping)
			opts := DefaultOptions()
			opts.Damping = tc.damping
			opts.NormalizeMax = 0
			opts.Warm = prior
			opts.ResidualBudget = tc.budget
			got, st, err := ps.RunResidual(pending, opts)
			if err != nil {
				t.Fatalf("RunResidual: %v", err)
			}
			if !st.Fallback || !st.Converged {
				t.Fatalf("budget %d did not trip into a converged fallback: %+v", tc.budget, st)
			}
			if st.Rounds == 0 || st.Pushes == 0 {
				t.Fatalf("budget tripped before any round ran: %+v", st)
			}
			budget := tc.budget
			if budget == 0 {
				budget = 4 * ps.n
			}
			if st.Pushes > budget {
				t.Fatalf("%d pushes ran past the budget of %d", st.Pushes, budget)
			}
			requireNearCold(t, ps, got, tc.damping)
		})
	}
}

// requireNearCold holds scores over ps's mutated ring to the cold fixed
// point within the fixed-point tolerance.
func requireNearCold(t *testing.T, ps *Plans, got relational.DBScores, damping float64) {
	t.Helper()
	cold := coldRingScores(t, ps, damping)
	tol := 50 * 1e-9 / (1 - damping)
	for rel, s := range got {
		for i := range s {
			if d := math.Abs(s[i] - cold[rel][i]); d > tol {
				t.Fatalf("%s[%d]: %v vs cold %v (tol %g)", rel, i, s[i], cold[rel][i], tol)
			}
		}
	}
}

// coldRingScores recompiles the mutated graph from the Plans' own DB and
// runs cold — the ground truth the localized repairs must land on.
func coldRingScores(t *testing.T, ps *Plans, damping float64) relational.DBScores {
	t.Helper()
	g, err := datagraph.Build(ps.g.DB)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	fresh, err := Compile(g, ringGA(2*ps.plans[0].rate), nil)
	if err != nil {
		t.Fatalf("recompile: %v", err)
	}
	opts := DefaultOptions()
	opts.Damping = damping
	opts.NormalizeMax = 0
	sc, st, err := fresh.Run(opts)
	if err != nil || !st.Converged {
		t.Fatalf("cold: err=%v stats=%+v", err, st)
	}
	return sc
}
