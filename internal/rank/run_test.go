package rank_test

import (
	"math"
	"runtime"
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/datagraph"
	"sizelos/internal/rank"
	"sizelos/internal/relational"
)

// requireSameBits fails on the first score whose bits differ.
func requireSameBits(t *testing.T, label string, want, got relational.DBScores) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d relations", label, len(want), len(got))
	}
	for rel, w := range want {
		g := got[rel]
		if len(w) != len(g) {
			t.Fatalf("%s: %s lengths %d vs %d", label, rel, len(w), len(g))
		}
		for i := range w {
			if math.Float64bits(w[i]) != math.Float64bits(g[i]) {
				t.Fatalf("%s: %s[%d]: reference %v vs Run %v", label, rel, i, w[i], g[i])
			}
		}
	}
}

// dblpOverlayBatch inserts a paper that writes, cites and is cited, a new
// author with no papers, and a few citations between existing papers, and
// deletes one citation and one authorship: overlaid rows, a grown arena, and
// sources past the packed offsets.
func dblpOverlayBatch(t *testing.T, db *relational.DB) relational.Batch {
	t.Helper()
	b := citesBatch(t, db, 4, true)
	paper, year := db.Relation("Paper"), db.Relation("Year")
	writes, author := db.Relation("Writes"), db.Relation("Author")
	const pk = 81_000_000
	b.Deletes = append(b.Deletes, relational.DeleteOp{Rel: "Writes", PK: writes.PK(0)})
	b.Inserts = append(b.Inserts,
		relational.InsertOp{Rel: "Paper", Tuple: relational.Tuple{
			relational.IntVal(pk), relational.IntVal(year.PK(0)), relational.StrVal("Scatter Walks")}},
		relational.InsertOp{Rel: "Author", Tuple: relational.Tuple{
			relational.IntVal(pk), relational.StrVal("Ada Scatter")}},
		relational.InsertOp{Rel: "Writes", Tuple: relational.Tuple{
			relational.IntVal(pk), relational.IntVal(pk), relational.IntVal(author.PK(1))}},
		relational.InsertOp{Rel: "Cites", Tuple: relational.Tuple{
			relational.IntVal(pk), relational.IntVal(pk), relational.IntVal(paper.PK(2))}},
		relational.InsertOp{Rel: "Cites", Tuple: relational.Tuple{
			relational.IntVal(pk + 1), relational.IntVal(paper.PK(3)), relational.IntVal(pk)}},
	)
	return b
}

// tpchOverlayBatch inserts an order with two lineitems and deletes one
// existing lineitem, so value-weighted rows are renormalized and grown.
func tpchOverlayBatch(t *testing.T, db *relational.DB) relational.Batch {
	t.Helper()
	customer, partsupp, li := db.Relation("Customer"), db.Relation("Partsupp"), db.Relation("Lineitem")
	const pk = 82_000_000
	return relational.Batch{
		Deletes: []relational.DeleteOp{{Rel: "Lineitem", PK: li.PK(0)}},
		Inserts: []relational.InsertOp{
			{Rel: "Orders", Tuple: relational.Tuple{
				relational.IntVal(pk), relational.IntVal(customer.PK(0)), relational.FloatVal(1234.5), relational.StrVal("1998-01-01")}},
			{Rel: "Lineitem", Tuple: relational.Tuple{
				relational.IntVal(pk), relational.IntVal(pk), relational.IntVal(partsupp.PK(0)), relational.FloatVal(900), relational.IntVal(3)}},
			{Rel: "Lineitem", Tuple: relational.Tuple{
				relational.IntVal(pk + 1), relational.IntVal(pk), relational.IntVal(partsupp.PK(1)), relational.FloatVal(334.5), relational.IntVal(1)}},
		},
	}
}

// TestRunMatchesGatherReference holds Plans.Run, which scatters along the
// push rows, to the gather form of the same iteration bit for bit: on fresh
// plans and after an Apply, cold and warm, over a uniform split (DBLP GA1)
// and value-proportional ones (TPC-H GA1). Equal bits mean every
// destination summed its contributions in the canonical order.
func TestRunMatchesGatherReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		db    func() (*relational.DB, error)
		ga    *rank.GA
		batch func(*testing.T, *relational.DB) relational.Batch
	}{
		{"DBLP GA1", func() (*relational.DB, error) {
			cfg := datagen.DefaultDBLPConfig()
			cfg.Authors, cfg.Papers = 120, 500
			return datagen.GenerateDBLP(cfg)
		}, datagen.DBLPGA1(), dblpOverlayBatch},
		{"TPC-H GA1", func() (*relational.DB, error) {
			cfg := datagen.DefaultTPCHConfig()
			cfg.ScaleFactor = 0.002
			return datagen.GenerateTPCH(cfg)
		}, datagen.TPCHGA1(), tpchOverlayBatch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := tc.db()
			if err != nil {
				t.Fatal(err)
			}
			g, err := datagraph.Build(db)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := rank.Compile(g, tc.ga, nil)
			if err != nil {
				t.Fatal(err)
			}
			check := func(label string, damping float64, warm relational.DBScores) relational.DBScores {
				opts := rank.DefaultOptions()
				opts.Damping, opts.NormalizeMax, opts.Warm = damping, 0, warm
				got, st, err := ps.Run(opts)
				if err != nil || !st.Converged {
					t.Fatalf("%s: Run: err=%v stats=%+v", label, err, st)
				}
				want, its := ps.RunGather(opts)
				if its != st.Iterations {
					t.Fatalf("%s: reference ran %d iterations, Run %d", label, its, st.Iterations)
				}
				requireSameBits(t, label, want, got)
				return got
			}
			other := check("fresh, cold, d=0.10", 0.10, nil)
			prior := check("fresh, cold", 0.85, nil)
			check("fresh, warm", 0.85, other)

			applyAll(t, db, g, ps, tc.batch(t, db), nil)
			if ps.Patched() == 0 {
				t.Fatal("Apply left no overlay rows")
			}
			check("applied, cold", 0.85, nil)
			check("applied, warm", 0.85, prior)
		})
	}
}

// TestRunAllocBytes bounds what a warm full iteration allocates after an
// Apply: its two working vectors, the returned table and the sorted overlay
// ids — about 24 bytes a node, with no per-contribution layout rebuilt.
func TestRunAllocBytes(t *testing.T) {
	const damping = 0.85
	db, g, ps, prior := residualFixture(t, damping)
	applyAll(t, db, g, ps, citesBatch(t, db, 4, true), nil)
	opts := rank.DefaultOptions()
	opts.Damping, opts.NormalizeMax, opts.Warm = damping, 0, prior

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := ps.Run(opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	n := ps.NumNodes()
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("warm Run after Apply, n=%d: %d bytes (%.1f per node)", n, bytes, float64(bytes)/float64(n))
	if limit := uint64(28 * n); bytes > limit {
		t.Fatalf("a warm Run after an Apply allocated %d bytes, ceiling 28·n = %d", bytes, limit)
	}
}
