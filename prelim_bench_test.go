package sizelos

import (
	"math/rand"
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/ostree"
	"sizelos/internal/relational"
	"sizelos/internal/sizel"
)

// BenchmarkPrelimCold is prelim-l generation as a summary-cache miss runs
// it (README "Benchmarks": sizel.prelim_us, cold_summary): one op is one
// sizel.PrelimL through a fresh engine source into a reused arena, over
// DBLP at ten times the default size, cycling through 1,000 seeded Author
// subjects at l = 10, 20, 30, 40 and 50 under the default setting. One
// pass over every subject before the timer builds what the engine keeps
// between requests.
func BenchmarkPrelimCold(b *testing.B) {
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors, cfg.Papers = 12000, 40000
	eng, err := OpenDBLP(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	subjects := make([]relational.TupleID, 1000)
	for i := range subjects {
		subjects[i] = relational.TupleID(r.Intn(eng.db.Relation("Author").Len()))
	}
	ls := []int{10, 20, 30, 40, 50}
	gds := eng.gds["Author"][DefaultSetting]
	raw, f, err := eng.scoresLocked(DefaultSetting)
	if err != nil {
		b.Fatal(err)
	}
	arena := &ostree.Tree{}
	prelim := func(i int) {
		src := ostree.NewOrderedGraphSource(eng.graph, raw, f, eng.ordered[DefaultSetting])
		l := ls[i%len(ls)]
		if _, _, err := sizel.PrelimL(src, gds, subjects[i%len(subjects)], l, sizel.PrelimOptions{MaxDepth: ostree.SizeLDepth(l), Into: arena}); err != nil {
			b.Fatal(err)
		}
	}
	for i := range subjects {
		prelim(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prelim(i)
	}
}
