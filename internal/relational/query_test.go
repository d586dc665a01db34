package relational

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestJoinChildren(t *testing.T) {
	db := buildPetDB(t)
	pet := db.Relation("Pet")
	fk := pet.FKIndexOf("owner")

	db.ResetAccesses()
	got := db.JoinChildren(pet, fk, 1)
	want := []TupleID{0, 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("JoinChildren(owner=1) = %v, want %v", got, want)
	}
	if got := db.JoinChildren(pet, fk, 3); len(got) != 0 {
		t.Errorf("JoinChildren(owner=3) = %v, want empty", got)
	}
	if db.Accesses() != 2 {
		t.Errorf("Accesses = %d, want 2", db.Accesses())
	}
}

func TestLookupParent(t *testing.T) {
	db := buildPetDB(t)
	person := db.Relation("Person")
	id, ok := db.LookupParent(person, 2)
	if !ok || person.Tuples[id][1].Str != "Bob" {
		t.Errorf("LookupParent(2) = %d,%v", id, ok)
	}
	if _, ok := db.LookupParent(person, 42); ok {
		t.Error("LookupParent(42) should miss")
	}
}

func TestResetAccesses(t *testing.T) {
	db := buildPetDB(t)
	pet := db.Relation("Pet")
	db.JoinChildren(pet, 0, 1)
	if n := db.ResetAccesses(); n != 1 {
		t.Errorf("ResetAccesses = %d, want 1", n)
	}
	if db.Accesses() != 0 {
		t.Errorf("Accesses after reset = %d", db.Accesses())
	}
}

func TestMaxScore(t *testing.T) {
	tests := []struct {
		s    Scores
		want float64
	}{
		{nil, 0},
		{Scores{0.5}, 0.5},
		{Scores{0.1, 0.9, 0.3}, 0.9},
		{Scores{-1, -2}, 0}, // scores are non-negative in practice; max clamps at 0
	}
	for _, tc := range tests {
		if got := tc.s.MaxScore(); got != tc.want {
			t.Errorf("MaxScore(%v) = %v, want %v", tc.s, got, tc.want)
		}
	}
}

// buildScoredRelation creates a relation with n children of a single parent
// key and the given scores.
func buildScoredRelation(t *testing.T, scores []float64) (*DB, *Relation, Scores) {
	t.Helper()
	db := NewDB("scored")
	parent := MustNewRelation("P", []Column{{Name: "id", Kind: KindInt}}, "id", nil)
	child := MustNewRelation("C",
		[]Column{{Name: "id", Kind: KindInt}, {Name: "p", Kind: KindInt}},
		"id", []ForeignKey{{Column: "p", Ref: "P"}})
	db.MustAddRelation(parent)
	db.MustAddRelation(child)
	parent.MustInsert(Tuple{IntVal(1)})
	for i := range scores {
		child.MustInsert(Tuple{IntVal(int64(i)), IntVal(1)})
	}
	return db, child, Scores(scores)
}

func TestOrderedFKIndexTopL(t *testing.T) {
	db, child, scores := buildScoredRelation(t, []float64{0.3, 0.9, 0.1, 0.9, 0.5})
	idx := BuildOrderedFKIndex(child, 0, scores)

	tests := []struct {
		name    string
		min     float64
		limit   int
		wantIDs []TupleID
	}{
		{"all above zero", 0, 10, []TupleID{1, 3, 4, 0, 2}},
		{"limit two", 0, 2, []TupleID{1, 3}},
		{"threshold excludes", 0.4, 10, []TupleID{1, 3, 4}},
		{"threshold strict", 0.9, 10, nil}, // strictly greater: 0.9 excluded
		{"limit zero", 0, 0, nil},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := idx.TopL(db, 1, tc.min, tc.limit)
			if !reflect.DeepEqual(got, tc.wantIDs) {
				t.Errorf("TopL(min=%v,limit=%d) = %v, want %v", tc.min, tc.limit, got, tc.wantIDs)
			}
		})
	}

	// Missing key: empty but still charged (Avoidance Condition 2 cost note).
	db.ResetAccesses()
	if got := idx.TopL(db, 99, 0, 5); len(got) != 0 {
		t.Errorf("TopL(missing key) = %v", got)
	}
	if db.Accesses() != 1 {
		t.Errorf("Accesses = %d, want 1 (empty result still charged)", db.Accesses())
	}
}

// Property: TopL equals filtering+sorting the full join by score.
func TestOrderedFKIndexMatchesNaive(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 60,
		Rand:     rand.New(rand.NewSource(42)),
		Values: func(vals []reflect.Value, r *rand.Rand) {
			n := r.Intn(30)
			scores := make([]float64, n)
			for i := range scores {
				scores[i] = float64(r.Intn(10)) / 10 // duplicates likely
			}
			vals[0] = reflect.ValueOf(scores)
			vals[1] = reflect.ValueOf(r.Float64())
			vals[2] = reflect.ValueOf(r.Intn(12))
		},
	}
	f := func(scoresIn []float64, min float64, limit int) bool {
		db, child, scores := buildScoredRelation(t, scoresIn)
		idx := BuildOrderedFKIndex(child, 0, scores)
		got := idx.TopL(db, 1, min, limit)

		// Naive reference.
		var want []TupleID
		all := child.fkIndex[0][1]
		sorted := make([]TupleID, len(all))
		copy(sorted, all)
		sort.Slice(sorted, func(a, b int) bool {
			sa, sb := scores[sorted[a]], scores[sorted[b]]
			if sa != sb {
				return sa > sb
			}
			return sorted[a] < sorted[b]
		})
		for _, id := range sorted {
			if len(want) >= limit {
				break
			}
			if scores[id] > min {
				want = append(want, id)
			} else {
				break
			}
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
