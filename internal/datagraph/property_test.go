package datagraph

import (
	"fmt"
	"math/rand"
	"testing"

	"sizelos/internal/relational"
)

// randomLinkedDB builds a parent relation and a child relation with n
// children pointing at random parents.
func randomLinkedDB(t *testing.T, r *rand.Rand, parents, children int) *relational.DB {
	t.Helper()
	db := relational.NewDB("rand")
	p := relational.MustNewRelation("P", []relational.Column{{Name: "id", Kind: relational.KindInt}}, "id", nil)
	c := relational.MustNewRelation("C",
		[]relational.Column{
			{Name: "id", Kind: relational.KindInt},
			{Name: "p", Kind: relational.KindInt},
		}, "id", []relational.ForeignKey{{Column: "p", Ref: "P"}})
	db.MustAddRelation(p)
	db.MustAddRelation(c)
	for i := 0; i < parents; i++ {
		p.MustInsert(relational.Tuple{relational.IntVal(int64(i + 1))})
	}
	for i := 0; i < children; i++ {
		c.MustInsert(relational.Tuple{
			relational.IntVal(int64(i + 1)),
			relational.IntVal(int64(r.Intn(parents) + 1)),
		})
	}
	return db
}

// Property: forward and backward adjacency are mutually consistent — v is
// u's forward neighbor iff u is v's backward neighbor, and edge counts
// agree.
func TestForwardBackwardSymmetry(t *testing.T) {
	r := rand.New(rand.NewSource(2718))
	for trial := 0; trial < 25; trial++ {
		parents := 1 + r.Intn(20)
		children := r.Intn(60)
		db := randomLinkedDB(t, r, parents, children)
		g, err := Build(db)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cIdx := db.RelIndex("C")

		fwdEdges := map[string]bool{}
		fwdCount := 0
		for ct := 0; ct < children; ct++ {
			for _, pt := range g.along(cIdx, 0, true, relational.TupleID(ct)) {
				fwdEdges[fmt.Sprintf("%d-%d", ct, pt)] = true
				fwdCount++
			}
		}
		bwdCount := 0
		for pt := 0; pt < parents; pt++ {
			for _, ct := range g.along(cIdx, 0, false, relational.TupleID(pt)) {
				if !fwdEdges[fmt.Sprintf("%d-%d", ct, pt)] {
					t.Fatalf("trial %d: backward edge %d<-%d missing forward counterpart", trial, ct, pt)
				}
				bwdCount++
			}
		}
		if fwdCount != bwdCount || fwdCount != children {
			t.Fatalf("trial %d: forward %d, backward %d, want %d", trial, fwdCount, bwdCount, children)
		}
	}
}

// Property: degrees sum to edge counts per direction.
func TestDegreeSums(t *testing.T) {
	r := rand.New(rand.NewSource(31415))
	db := randomLinkedDB(t, r, 7, 40)
	g, err := Build(db)
	if err != nil {
		t.Fatal(err)
	}
	cIdx := db.RelIndex("C")
	total := 0
	for pt := 0; pt < 7; pt++ {
		total += len(g.along(cIdx, 0, false, relational.TupleID(pt)))
	}
	if total != 40 {
		t.Fatalf("degree sum %d, want 40", total)
	}
}
