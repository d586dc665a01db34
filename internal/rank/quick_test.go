package rank

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sizelos/internal/datagraph"
	"sizelos/internal/relational"
)

// randomCiteDB builds a random Paper/Cites database.
func randomCiteDB(r *rand.Rand) (*relational.DB, *datagraph.Graph, error) {
	db := relational.NewDB("q")
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
	n := 2 + r.Intn(12)
	for i := 1; i <= n; i++ {
		paper.MustInsert(relational.Tuple{relational.IntVal(int64(i))})
	}
	edges := r.Intn(3 * n)
	for i := 0; i < edges; i++ {
		cites.MustInsert(relational.Tuple{
			relational.IntVal(int64(i + 1)),
			relational.IntVal(int64(r.Intn(n) + 1)),
			relational.IntVal(int64(r.Intn(n) + 1)),
		})
	}
	g, err := datagraph.Build(db)
	return db, g, err
}

// Property: NormalizeMax rescaling preserves the complete ranking order.
func TestQuickNormalizationPreservesOrder(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 40,
		Rand:     rand.New(rand.NewSource(99)),
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(r.Int63())
		},
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		_, g, err := randomCiteDB(r)
		if err != nil {
			return false
		}
		ga := NewGA("q").Hop("Cites", 0, 1, 0.7)
		raw := DefaultOptions()
		raw.NormalizeMax = 0
		a, _, err := compute(g, ga, raw)
		if err != nil {
			return false
		}
		norm := DefaultOptions()
		norm.NormalizeMax = 42
		b, _, err := compute(g, ga, norm)
		if err != nil {
			return false
		}
		pa, pb := a["Paper"], b["Paper"]
		for i := range pa {
			for j := range pa {
				if (pa[i] < pa[j]) != (pb[i] < pb[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: scores are always non-negative and finite, and every tuple
// receives at least the base score (1-d)/N before normalization.
func TestQuickScoresBounded(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 40,
		Rand:     rand.New(rand.NewSource(123)),
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(r.Int63())
			vals[1] = reflect.ValueOf(r.Float64())
		},
	}
	prop := func(seed int64, damping float64) bool {
		r := rand.New(rand.NewSource(seed))
		db, g, err := randomCiteDB(r)
		if err != nil {
			return false
		}
		ga := NewGA("q").Hop("Cites", 0, 1, 0.7).Hop("Cites", 1, 0, 0.1)
		opts := DefaultOptions()
		opts.Damping = damping
		opts.NormalizeMax = 0
		scores, stats, err := compute(g, ga, opts)
		if err != nil || !stats.Converged && stats.Iterations < opts.MaxIter {
			return false
		}
		n := float64(db.TotalTuples())
		base := (1 - damping) / n
		for _, s := range scores {
			for _, v := range s {
				if v < base-1e-12 || v != v /* NaN */ {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
