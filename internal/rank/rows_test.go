package rank_test

import (
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/datagraph"
	"sizelos/internal/mutgen"
	"sizelos/internal/rank"
	"sizelos/internal/relational"
)

// rowsCase is one dataset and G_A the row-store tests run over: DBLP's
// uniform splits and TPC-H's value-proportional ones.
type rowsCase struct {
	name  string
	db    func(*testing.T) *relational.DB
	ga    *rank.GA
	batch func(*testing.T, *relational.DB) relational.Batch // rebuilds rows in most plans
	small func(*testing.T, *relational.DB) relational.Batch // rebuilds a few rows
}

func rowsCases() []rowsCase {
	return []rowsCase{
		{"DBLP GA1", func(t *testing.T) *relational.DB {
			cfg := datagen.DefaultDBLPConfig()
			cfg.Authors, cfg.Papers = 40, 120
			db, err := datagen.GenerateDBLP(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return db
		}, datagen.DBLPGA1(), dblpApplyBatch, func(t *testing.T, db *relational.DB) relational.Batch {
			paper := db.Relation("Paper")
			return relational.Batch{Inserts: []relational.InsertOp{{Rel: "Cites", Tuple: relational.Tuple{
				relational.IntVal(83_000_000), relational.IntVal(paper.PK(5)), relational.IntVal(paper.PK(6))}}}}
		}},
		{"TPC-H GA1", func(t *testing.T) *relational.DB {
			cfg := datagen.DefaultTPCHConfig()
			cfg.ScaleFactor = 0.001
			db, err := datagen.GenerateTPCH(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return db
		}, datagen.TPCHGA1(), tpchApplyBatch, func(t *testing.T, db *relational.DB) relational.Batch {
			orders, partsupp := db.Relation("Orders"), db.Relation("Partsupp")
			return relational.Batch{Inserts: []relational.InsertOp{{Rel: "Lineitem", Tuple: relational.Tuple{
				relational.IntVal(84_000_000), relational.IntVal(orders.PK(1)), relational.IntVal(partsupp.PK(2)),
				relational.FloatVal(77.25), relational.IntVal(2)}}}}
		}},
	}
}

// stores snapshots every plan's row store (Plans.Store).
type stores struct {
	base []*relational.TupleID
	n    []int
}

func storesOf(ps *rank.Plans) stores {
	var s stores
	for pi := range ps.NumPlans() {
		b, n := ps.Store(pi)
		s.base, s.n = append(s.base, b), append(s.n, n)
	}
	return s
}

// TestPlanRowsAreCapped appends a sentinel to every row flows returns and
// checks that every row still equals a fresh Compile's and that Run's bits
// did not move: an append to one source's row must never write into
// another's, or into the room Apply appends the next rows to. It runs on a
// fresh Compile, after an Apply that reclaims (the compiled store has no
// room), and after one that appends in place.
func TestPlanRowsAreCapped(t *testing.T) {
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
			opts.NormalizeMax = 0
			scribble := func(stage string) {
				before, _, err := ps.Run(opts)
				if err != nil {
					t.Fatal(err)
				}
				for pi := range ps.NumPlans() {
					for src := range ps.Sources(pi) {
						targets, weights := ps.Row(pi, relational.TupleID(src))
						_ = append(targets, -7)
						if weights != nil {
							_ = append(weights, -1)
						}
					}
				}
				requireRowsCompiled(t, ps, g, tc.ga)
				after, _, err := ps.Run(opts)
				if err != nil {
					t.Fatal(err)
				}
				requireSameBits(t, stage, before, after)
			}
			scribble("fresh Compile")

			prev := storesOf(ps)
			applyAll(t, db, g, ps, tc.batch(t, db), nil)
			cur, reclaimed := storesOf(ps), 0
			for pi := range cur.base {
				if cur.base[pi] != prev.base[pi] {
					reclaimed++
				}
			}
			if reclaimed == 0 {
				t.Fatal("the first Apply reclaimed no store")
			}
			scribble("after a reclaim")

			prev = cur
			applyAll(t, db, g, ps, tc.small(t, db), nil)
			cur, grown := storesOf(ps), 0
			for pi := range cur.base {
				if cur.base[pi] != prev.base[pi] {
					t.Fatalf("plan %d reclaimed on a one-tuple batch", pi)
				}
				if cur.n[pi] > prev.n[pi] {
					grown++
				}
			}
			if grown == 0 {
				t.Fatal("the second Apply appended no row")
			}
			scribble("after an Apply")
		})
	}
}

// TestApplyRowsMatchCompileAcrossReclaims drives seeded random batches
// through one set of plans and a Pending captured before the first. After
// every batch each row equals a fresh Compile's, and each captured row
// equals the row a Compile taken before the first batch holds for its
// source: a reclaim moves live rows but never writes over the arrays a
// capture reads. A compiled store has no room, so every plan a batch adds a
// row to reclaims at least once; some must reclaim again.
func TestApplyRowsMatchCompileAcrossReclaims(t *testing.T) {
	const rounds = 200
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
			before, err := rank.Compile(g, tc.ga, nil)
			if err != nil {
				t.Fatal(err)
			}
			pending := ps.NewPending()
			gen := mutgen.New(db, 0x5EED)
			touched := make([]bool, ps.NumPlans())
			reclaims := make([]int, ps.NumPlans())
			captured := 0
			for round := range rounds {
				prev := storesOf(ps)
				applyAll(t, db, g, ps, gen.NextBatch(), pending)
				cur := storesOf(ps)
				for pi := range cur.base {
					if cur.base[pi] != prev.base[pi] {
						reclaims[pi]++
					}
					if cur.base[pi] != prev.base[pi] || cur.n[pi] != prev.n[pi] {
						touched[pi] = true
					}
				}
				requireRowsCompiled(t, ps, g, tc.ga)
				captured = 0
				for pi := range ps.NumPlans() {
					pending.Captured(pi, func(src relational.TupleID, targets []relational.TupleID, weights []float64) {
						captured++
						if src >= relational.TupleID(before.Sources(pi)) {
							if len(targets) != 0 {
								t.Fatalf("round %d: plan %d captured a row for inserted source %d: %v", round, pi, src, targets)
							}
							return
						}
						wantT, wantW := before.Row(pi, src)
						if msg := rank.RowDiff(targets, weights, wantT, wantW); msg != "" {
							t.Fatalf("round %d: plan %d source %d: captured row differs from the pre-batch Compile's: %s", round, pi, src, msg)
						}
					})
				}
			}
			again := false
			for pi, hit := range touched {
				if hit && reclaims[pi] == 0 {
					t.Errorf("plan %d was touched but never reclaimed", pi)
				}
				again = again || reclaims[pi] > 1
			}
			if !again {
				t.Error("no plan reclaimed a second time: no capture outlived a reclaim of the store it was read from")
			}
			t.Logf("%d rounds: reclaims per plan %v, %d captured rows", rounds, reclaims, captured)
		})
	}
}
