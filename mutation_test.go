package sizelos

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/datagraph"
	"sizelos/internal/ostree"
	"sizelos/internal/relational"
	"sizelos/internal/schemagraph"
	"sizelos/internal/sizel"
)

// mutableDBLP builds a private small engine — mutation tests must not
// share the package-level fixture.
func mutableDBLP(t testing.TB) *Engine {
	t.Helper()
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 80
	cfg.Papers = 300
	cfg.Conferences = 6
	cfg.YearSpan = 4
	eng, err := OpenDBLP(cfg)
	if err != nil {
		t.Fatalf("OpenDBLP: %v", err)
	}
	return eng
}

// insertAuthorBatch wires a new author with one paper into the citation
// fabric: author + paper + writes rows, FKs copied from live tuples.
func insertAuthorBatch(t *testing.T, eng *Engine, pkBase int64, name, title string) MutationBatch {
	t.Helper()
	paperRel := eng.DB().Relation("Paper")
	yearFK := paperRel.Tuples[0][paperRel.ColIndex("year")].Int
	return MutationBatch{Inserts: []TupleInsert{
		{Rel: "Author", Tuple: relational.Tuple{relational.IntVal(pkBase), relational.StrVal(name)}},
		{Rel: "Paper", Tuple: relational.Tuple{relational.IntVal(pkBase + 1), relational.IntVal(yearFK), relational.StrVal(title)}},
		{Rel: "Writes", Tuple: relational.Tuple{relational.IntVal(pkBase + 2), relational.IntVal(pkBase + 1), relational.IntVal(pkBase)}},
	}}
}

// TestMutateFreshSearchResults inserts, searches, deletes, and searches
// again: every read after a mutation must reflect it — no stale summaries,
// no ghost matches — with the summary cache enabled throughout.
func TestMutateFreshSearchResults(t *testing.T) {
	eng := mutableDBLP(t)
	eng.EnableSummaryCache(256)

	if res, err := search(eng, "Author", "Zephyrhopper", 5, QueryRequest{}); err != nil || len(res) != 0 {
		t.Fatalf("pre-insert search = %d results, err %v", len(res), err)
	}
	mres, err := eng.Mutate(insertAuthorBatch(t, eng, 900001, "Grace Zephyrhopper", "A Singular Treatise"))
	if err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	if len(mres.Inserted) != 3 {
		t.Fatalf("Inserted = %v", mres.Inserted)
	}
	if mres.Epochs["Author"] == 0 || mres.Epochs["Paper"] == 0 || mres.Epochs["Writes"] == 0 {
		t.Fatalf("epochs not advanced: %v", mres.Epochs)
	}

	res, err := search(eng, "Author", "Zephyrhopper", 5, QueryRequest{})
	if err != nil {
		t.Fatalf("post-insert search: %v", err)
	}
	if len(res) != 1 || !strings.Contains(res[0].Headline, "Zephyrhopper") {
		t.Fatalf("post-insert search = %+v", res)
	}
	if !strings.Contains(res[0].Text, "Singular Treatise") {
		t.Fatalf("summary does not reach the inserted paper:\n%s", res[0].Text)
	}
	// The fresh result must be served from cache on repeat, still fresh.
	res2, err := search(eng, "Author", "Zephyrhopper", 5, QueryRequest{})
	if err != nil || len(res2) != 1 || res2[0].Text != res[0].Text {
		t.Fatalf("repeat search diverged: %v %+v", err, res2)
	}

	authorID := mres.Inserted[0]
	del := MutationBatch{Deletes: []TupleDelete{
		{Rel: "Writes", PK: 900003},
		{Rel: "Paper", PK: 900002},
		{Rel: "Author", PK: 900001},
	}}
	if _, err := eng.Mutate(del); err != nil {
		t.Fatalf("Mutate delete: %v", err)
	}
	if res, err := search(eng, "Author", "Zephyrhopper", 5, QueryRequest{}); err != nil || len(res) != 0 {
		t.Fatalf("post-delete search = %d results, err %v", len(res), err)
	}
	if _, err := eng.SizeL(QueryRequest{Rel: "Author", L: 5}, authorID); err == nil {
		t.Fatal("SizeL on a deleted tuple succeeded")
	}
}

// TestMutatePreciseInvalidation proves the cache forgets only what the
// mutation can have changed: a citation between two Faloutsos papers
// rotates those authors' keys (the Author G_DS reaches Cites) but keeps a
// Conference-rooted summary — whose minimal G_DS touches only Conference
// and Year — warm.
func TestMutatePreciseInvalidation(t *testing.T) {
	eng := mutableDBLP(t)
	confGDS := schemagraph.New("Conference")
	confGDS.Root.AddChildFK("Year", "Year", 0, 0.9)
	if err := eng.RegisterGDS(confGDS); err != nil {
		t.Fatalf("RegisterGDS: %v", err)
	}
	eng.EnableSummaryCache(256)

	warm := func() (confText string, authorText string) {
		c, err := eng.SizeL(QueryRequest{Rel: "Conference", L: 4}, 0)
		if err != nil {
			t.Fatalf("Conference SizeL: %v", err)
		}
		a, err := search(eng, "Author", "Faloutsos", 6, QueryRequest{})
		if err != nil || len(a) == 0 {
			t.Fatalf("Author search: %v (%d results)", err, len(a))
		}
		return c.Text, a[0].Text
	}
	warm()
	warm() // both entries now cached and hit
	before, _ := eng.SummaryCacheStats()

	// Mutate Cites only: insert one citation between the first two papers,
	// both written by Faloutsos brothers.
	paperRel := eng.DB().Relation("Paper")
	citesRel := eng.DB().Relation("Cites")
	var maxCite int64
	for i := 0; i < citesRel.Len(); i++ {
		if !citesRel.Deleted(relational.TupleID(i)) && citesRel.PK(relational.TupleID(i)) > maxCite {
			maxCite = citesRel.PK(relational.TupleID(i))
		}
	}
	if _, err := eng.Mutate(MutationBatch{Inserts: []TupleInsert{{
		Rel: "Cites",
		Tuple: relational.Tuple{
			relational.IntVal(maxCite + 1),
			relational.IntVal(paperRel.PK(0)),
			relational.IntVal(paperRel.PK(1)),
		},
	}}}); err != nil {
		t.Fatalf("Mutate: %v", err)
	}

	// Conference entry must still hit; the entries of the two papers' authors
	// must miss (the batch stamped them) and recompute.
	if _, err := eng.SizeL(QueryRequest{Rel: "Conference", L: 4}, 0); err != nil {
		t.Fatalf("Conference SizeL after mutation: %v", err)
	}
	mid, _ := eng.SummaryCacheStats()
	if hits := mid.Hits - before.Hits; hits != 1 {
		t.Fatalf("Conference lookup after unrelated mutation: %d hits, want 1 (stats %+v -> %+v)", hits, before, mid)
	}
	if mid.Misses != before.Misses {
		t.Fatalf("Conference lookup missed: %+v -> %+v", before, mid)
	}
	if _, err := search(eng, "Author", "Faloutsos", 6, QueryRequest{}); err != nil {
		t.Fatalf("Author search after mutation: %v", err)
	}
	after, _ := eng.SummaryCacheStats()
	if after.Misses == mid.Misses {
		t.Fatal("Author summaries were served from the pre-mutation cache")
	}
}

// TestFootprintInvalidation drives each invalidation path on one engine and
// checks, by cache hits and misses, that it forgets the subjects it must and
// no others, and that whatever is served afterwards — from the cache or
// recomputed — is the rebuilt engine's answer.
func TestFootprintInvalidation(t *testing.T) {
	eng := mutableDBLP(t)
	eng.EnableSummaryCache(4096)
	db := eng.DB()
	author, writes := db.Relation("Author"), db.Relation("Writes")
	req := QueryRequest{Rel: "Author", L: 8}
	authors := func() (ids []relational.TupleID) {
		for id := relational.TupleID(0); int(id) < author.Len(); id++ {
			if !author.Deleted(id) {
				ids = append(ids, id)
			}
		}
		return ids
	}
	// probe summarizes every live author and returns those the cache did not
	// serve; every answer must be the rebuilt engine's.
	probe := func(when string) map[relational.TupleID]bool {
		t.Helper()
		st, _, err := eng.ExportState()
		if err != nil {
			t.Fatalf("%s: ExportState: %v", when, err)
		}
		rebuilt, err := RestoreDBLP(st)
		if err != nil {
			t.Fatalf("%s: RestoreDBLP: %v", when, err)
		}
		missed := make(map[relational.TupleID]bool)
		for _, id := range authors() {
			before, _ := eng.SummaryCacheStats()
			got, err := eng.SizeL(req, id)
			if err != nil {
				t.Fatalf("%s: SizeL(Author %d): %v", when, id, err)
			}
			if after, _ := eng.SummaryCacheStats(); after.Misses != before.Misses {
				missed[id] = true
			}
			if want, err := rebuilt.SizeL(req, id); err != nil || !sameSummary(got, want) {
				t.Fatalf("%s: Author %d served\n%s\nrebuilt engine (err %v) serves\n%s", when, id, got.Text, err, want.Text)
			}
		}
		return missed
	}
	wantMissed := func(when string, missed map[relational.TupleID]bool, want ...relational.TupleID) {
		t.Helper()
		ok := len(missed) == len(want)
		for _, id := range want {
			ok = ok && missed[id]
		}
		if !ok {
			t.Fatalf("%s: cache missed authors %v, want exactly %v", when, missed, want)
		}
	}
	mutate := func(when string, b MutationBatch, wantAuthors int) {
		t.Helper()
		res, err := eng.Mutate(b)
		if err != nil {
			t.Fatalf("%s: Mutate: %v", when, err)
		}
		if got := res.Footprint["Author"]; got != wantAuthors {
			t.Fatalf("%s: Footprint = %v, want Author: %d", when, res.Footprint, wantAuthors)
		}
	}
	iv, sv := relational.IntVal, relational.StrVal
	if n := len(probe("cold")); n != len(authors()) {
		t.Fatalf("cold sweep missed %d of %d authors", n, len(authors()))
	}
	wantMissed("warm", probe("warm"))

	// A new paper by author a reaches a and nobody else.
	a := relational.TupleID(5)
	year := db.Relation("Paper").Tuples[0][1].Int
	mutate("insert paper", MutationBatch{Inserts: []TupleInsert{
		{Rel: "Paper", Tuple: relational.Tuple{iv(930001), iv(year), sv("Footprints In Fresh Snow")}},
		{Rel: "Writes", Tuple: relational.Tuple{iv(930002), iv(930001), iv(author.PK(a))}},
	}}, 1)
	wantMissed("insert paper", probe("insert paper"), a)

	// Retracting one author of a two-author paper reaches both: the one who
	// lost the paper and the one who lost the co-author.
	byPaper := make(map[int64][]relational.TupleID)
	for row := relational.TupleID(0); int(row) < writes.Len(); row++ {
		byPaper[writes.Tuples[row][1].Int] = append(byPaper[writes.Tuples[row][1].Int], row)
	}
	var rows []relational.TupleID
	for pk := int64(1); len(rows) != 2; pk++ {
		rows = byPaper[pk]
	}
	var pair []relational.TupleID
	for _, row := range rows {
		id, _ := author.LookupPK(writes.Tuples[row][2].Int)
		pair = append(pair, id)
	}
	mutate("delete writes", MutationBatch{Deletes: []TupleDelete{{Rel: "Writes", PK: writes.PK(rows[0])}}}, 2)
	wantMissed("delete writes", probe("delete writes"), pair...)

	// A rejected batch stamps nothing.
	if _, err := eng.Mutate(MutationBatch{Inserts: []TupleInsert{
		{Rel: "Writes", Tuple: relational.Tuple{iv(930003), iv(930001), iv(author.PK(a))}},
		{Rel: "Writes", Tuple: relational.Tuple{iv(930004), iv(999999999), iv(author.PK(a))}},
	}}); err == nil {
		t.Fatal("batch with a dangling paper key was accepted")
	}
	wantMissed("rejected batch", probe("rejected batch"))

	// A batch whose walk outgrows the budget: one fresh paper per row, so
	// every row adds a (Paper node, tuple) instance of its own.
	var big MutationBatch
	for i := int64(0); i <= footprintBudget; i++ {
		big.Inserts = append(big.Inserts,
			TupleInsert{Rel: "Paper", Tuple: relational.Tuple{iv(940000 + i), iv(year), sv("Bulk Load")}},
			TupleInsert{Rel: "Writes", Tuple: relational.Tuple{iv(950000 + i), iv(940000 + i), iv(author.PK(a))}})
	}
	mutate("over budget", big, -1)
	wantMissed("over budget", probe("over budget"), authors()...)

	// A re-rank that changes scores reaches everything.
	mutate("rerank", MutationBatch{Rerank: true}, -1)
	wantMissed("rerank", probe("rerank"), authors()...)
	// One that changes nothing reaches nothing.
	if res, err := eng.Mutate(MutationBatch{Rerank: true}); err != nil || len(res.Footprint) != 0 {
		t.Fatalf("no-op rerank: footprint %v, err %v", res.Footprint, err)
	}
	wantMissed("no-op rerank", probe("no-op rerank"))

	// CompactNow moves TupleIDs under every cached tree of a G_DS that
	// reaches a compacted relation (Writes carries the tombstone from above).
	if compacted, err := eng.CompactNow(); err != nil || len(compacted) == 0 {
		t.Fatalf("CompactNow = %v, %v; want Writes compacted", compacted, err)
	}
	wantMissed("compact", probe("compact"), authors()...)
}

// TestMutateRerank verifies Rerank recomputes global importance (the new
// author earns a positive score in every setting) and rotates every epoch.
func TestMutateRerank(t *testing.T) {
	eng := mutableDBLP(t)
	epoch0 := eng.EpochFor("Conference") // no G_DS: the relation's own epoch
	batch := insertAuthorBatch(t, eng, 910001, "Ada Quorumgate", "Reranked Realities")
	batch.Rerank = true
	res, err := eng.Mutate(batch)
	if err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	if !res.Reranked {
		t.Fatal("Reranked not reported")
	}
	if got := res.Epochs["Conference"]; got != epoch0+1 {
		t.Fatalf("untouched relation's epoch not rotated by rerank: %d", got)
	}
	authorID := res.Inserted[0]
	for _, setting := range eng.SettingNames() {
		sc, err := eng.Scores(setting)
		if err != nil {
			t.Fatalf("Scores(%s): %v", setting, err)
		}
		if got := sc["Author"][authorID]; got <= 0 {
			t.Fatalf("setting %s: new author's score = %v, want > 0 after rerank", setting, got)
		}
	}
	// And without rerank the score stays 0 until the next one.
	res2, err := eng.Mutate(insertAuthorBatch(t, eng, 920001, "Zero Scorewell", "Unranked"))
	if err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	sc, _ := eng.Scores(DefaultSetting)
	if got := sc["Author"][res2.Inserted[0]]; got != 0 {
		t.Fatalf("non-reranked insert has score %v, want 0", got)
	}
}

// TestMutateAtomicOnEngine drives a failing batch through the engine and
// checks neither the store nor the index nor the epochs moved.
func TestMutateAtomicOnEngine(t *testing.T) {
	eng := mutableDBLP(t)
	epoch0 := eng.EpochFor("Author")
	_, err := eng.Mutate(MutationBatch{Inserts: []TupleInsert{
		{Rel: "Author", Tuple: relational.Tuple{relational.IntVal(930001), relational.StrVal("Half Doneski")}},
		{Rel: "Writes", Tuple: relational.Tuple{relational.IntVal(930002), relational.IntVal(-77), relational.IntVal(930001)}}, // dangling paper
	}})
	if err == nil {
		t.Fatal("batch with dangling FK succeeded")
	}
	if eng.EpochFor("Author") != epoch0 {
		t.Fatal("failed batch advanced an epoch")
	}
	if res, err := search(eng, "Author", "Doneski", 4, QueryRequest{}); err != nil || len(res) != 0 {
		t.Fatalf("rolled-back insert visible to search: %v %v", res, err)
	}
}

// TestMutateDeletesInDescendingOrder is the regression test for the
// posting-retraction ordering bug: two same-relation deletes named
// newest-first in one batch must still retract both tuples' postings (an
// unsorted delta once left a ghost posting, and searches then failed on
// the tombstoned tuple).
func TestMutateDeletesInDescendingOrder(t *testing.T) {
	eng := mutableDBLP(t)
	if _, err := eng.Mutate(MutationBatch{Inserts: []TupleInsert{
		{Rel: "Author", Tuple: relational.Tuple{relational.IntVal(960001), relational.StrVal("Ghost Postingworth")}},
		{Rel: "Author", Tuple: relational.Tuple{relational.IntVal(960002), relational.StrVal("Second Postingworth")}},
	}}); err != nil {
		t.Fatalf("Mutate insert: %v", err)
	}
	if res, err := search(eng, "Author", "Postingworth", 4, QueryRequest{}); err != nil || len(res) != 2 {
		t.Fatalf("pre-delete search: %d results, err %v", len(res), err)
	}
	if _, err := eng.Mutate(MutationBatch{Deletes: []TupleDelete{
		{Rel: "Author", PK: 960002}, // newer tuple first
		{Rel: "Author", PK: 960001},
	}}); err != nil {
		t.Fatalf("Mutate delete: %v", err)
	}
	res, err := search(eng, "Author", "Postingworth", 4, QueryRequest{})
	if err != nil {
		t.Fatalf("post-delete search errored (ghost posting): %v", err)
	}
	if len(res) != 0 {
		t.Fatalf("post-delete search = %d results, want 0", len(res))
	}
}

// TestDeletedJunctionRowLeavesDBSource retracts the single Writes row
// linking a fresh author to their paper and checks BOTH extractions forget
// the connection — the engine's, over the data graph Mutate patched in
// place, and the reference database joins (ostree.DBSource, whose TOP-l
// junction lists must skip tombstoned junction rows) over the same store.
func TestDeletedJunctionRowLeavesDBSource(t *testing.T) {
	eng := mutableDBLP(t)
	res, err := eng.Mutate(insertAuthorBatch(t, eng, 950001, "Junctia Retractsdottir", "A Severable Link"))
	if err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	author := res.Inserted[0]
	linked := func() (graph, db bool) {
		t.Helper()
		s, err := eng.SizeL(QueryRequest{Rel: "Author", L: 5}, author)
		if err != nil {
			t.Fatalf("SizeL: %v", err)
		}
		gds, err := eng.gdsLocked("Author", DefaultSetting)
		if err != nil {
			t.Fatal(err)
		}
		served, err := eng.Scores(DefaultSetting)
		if err != nil {
			t.Fatal(err)
		}
		tree, _, err := sizel.PrelimL(ostree.NewDBSource(eng.db, served), gds, author, 5, sizel.PrelimOptions{MaxDepth: 4})
		if err != nil {
			t.Fatalf("PrelimL(db): %v", err)
		}
		return strings.Contains(s.Text, "Severable"), strings.Contains(tree.Render(ostree.RenderOptions{}), "Severable")
	}
	if graph, db := linked(); !graph || !db {
		t.Fatalf("summary misses the linked paper: graph %v, db joins %v", graph, db)
	}
	// Retract only the junction row; author and paper stay.
	if _, err := eng.Mutate(MutationBatch{Deletes: []TupleDelete{{Rel: "Writes", PK: 950003}}}); err != nil {
		t.Fatalf("Mutate delete: %v", err)
	}
	if graph, db := linked(); graph || db {
		t.Fatalf("retracted junction row still connects the paper: graph %v, db joins %v", graph, db)
	}
}

// TestMutateConcurrentWithSearches hammers the engine with concurrent
// searches while mutation batches land, asserting (under -race) that every
// search observes a consistent state and post-mutation searches see the
// mutation. Run with -race in CI.
func TestMutateConcurrentWithSearches(t *testing.T) {
	eng := mutableDBLP(t)
	eng.EnableSummaryCache(128)
	const rounds = 6
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			queries := []string{"Faloutsos", "the", "of", "Mining"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := search(eng, "Author", queries[(i+w)%len(queries)], 5, QueryRequest{}); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < rounds; r++ {
		name := fmt.Sprintf("Concurrentia%d Mutatello", r)
		if _, err := eng.Mutate(insertAuthorBatch(t, eng, 940001+10*int64(r), name, "Parallel Epochs")); err != nil {
			t.Fatalf("round %d: Mutate: %v", r, err)
		}
		res, err := search(eng, "Author", fmt.Sprintf("Concurrentia%d", r), 5, QueryRequest{})
		if err != nil || len(res) != 1 {
			t.Fatalf("round %d: post-mutation search = %d results, err %v", r, len(res), err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestMutateIncrementalGraphInPlace pins the acceptance criterion that a
// small Mutate no longer rebuilds the data graph: the engine must keep the
// same *Graph instance and edit the delta into it.
func TestMutateIncrementalGraphInPlace(t *testing.T) {
	eng := mutableDBLP(t)
	g0 := eng.Graph()
	before, err := datagraph.Build(eng.DB())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := eng.Mutate(insertAuthorBatch(t, eng, 970001, "Splice Overlayson", "Incremental Edges")); err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	if eng.Graph() != g0 {
		t.Fatal("single-tuple Mutate rebuilt the data graph instead of splicing")
	}
	if eng.Graph().EquivalentTo(before) == "" {
		t.Fatal("Mutate left the graph as it was before the batch — did it take the incremental path?")
	}
	// The edited graph is edge-identical to a rebuild.
	want, err := datagraph.Build(eng.DB())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if msg := eng.Graph().EquivalentTo(want); msg != "" {
		t.Fatalf("incremental graph diverged: %s", msg)
	}
}

// TestAutoCompaction drives deletes past the compaction policy and checks
// the whole remap choreography: the relation's tombstones are reclaimed,
// searches still resolve (index remapped), summaries reach the right
// tuples, and the graph matches a rebuild of the dense store.
func TestAutoCompaction(t *testing.T) {
	eng := mutableDBLP(t)
	eng.EnableSummaryCache(64)
	eng.compactMin, eng.compactRatio = 5, 0.02
	var ins []TupleInsert
	for i := 0; i < 8; i++ {
		ins = append(ins, TupleInsert{
			Rel:   "Author",
			Tuple: relational.Tuple{relational.IntVal(980001 + int64(i)), relational.StrVal("Ephemera Compactsdottir")},
		})
	}
	if _, err := eng.Mutate(MutationBatch{Inserts: ins}); err != nil {
		t.Fatalf("insert batch: %v", err)
	}
	var dels []TupleDelete
	for i := 0; i < 8; i++ {
		dels = append(dels, TupleDelete{Rel: "Author", PK: 980001 + int64(i)})
	}
	res, err := eng.Mutate(MutationBatch{Deletes: dels})
	if err != nil {
		t.Fatalf("delete batch: %v", err)
	}
	found := false
	for _, rel := range res.Compacted {
		if rel == "Author" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Author not compacted: %v (epochs %v)", res.Compacted, res.Epochs)
	}
	if got := eng.DB().Relation("Author").Tombstones(); got != 0 {
		t.Fatalf("tombstones after compaction = %d", got)
	}
	if res, err := search(eng, "Author", "Compactsdottir", 4, QueryRequest{}); err != nil || len(res) != 0 {
		t.Fatalf("ghost postings after compaction: %d results, err %v", len(res), err)
	}
	got, err := search(eng, "Author", "Faloutsos", 6, QueryRequest{})
	if err != nil || len(got) == 0 {
		t.Fatalf("post-compaction search: %v (%d results)", err, len(got))
	}
	for _, s := range got {
		if !strings.Contains(s.Headline, "Faloutsos") {
			t.Fatalf("remapped match points at the wrong tuple: %q", s.Headline)
		}
	}
	want, err := datagraph.Build(eng.DB())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if msg := eng.Graph().EquivalentTo(want); msg != "" {
		t.Fatalf("post-compaction graph diverged: %s", msg)
	}
}

// TestCompactionRemapsInsertIDsInSameBatch makes the triggering batch also
// insert: the returned id must be the post-compaction slot.
func TestCompactionRemapsInsertIDsInSameBatch(t *testing.T) {
	eng := mutableDBLP(t)
	var ins []TupleInsert
	for i := 0; i < 8; i++ {
		ins = append(ins, TupleInsert{
			Rel:   "Author",
			Tuple: relational.Tuple{relational.IntVal(985001 + int64(i)), relational.StrVal("Shortlived Slotsson")},
		})
	}
	if _, err := eng.Mutate(MutationBatch{Inserts: ins}); err != nil {
		t.Fatalf("insert batch: %v", err)
	}
	// Low threshold AFTER the inserts: the next batch (deletes + 1 insert)
	// crosses it and compacts while carrying a fresh insert.
	eng.compactMin, eng.compactRatio = 5, 0.02
	var dels []TupleDelete
	for i := 0; i < 8; i++ {
		dels = append(dels, TupleDelete{Rel: "Author", PK: 985001 + int64(i)})
	}
	res, err := eng.Mutate(MutationBatch{
		Deletes: dels,
		Inserts: []TupleInsert{{
			Rel:   "Author",
			Tuple: relational.Tuple{relational.IntVal(986001), relational.StrVal("Survivor Remapsson")},
		}},
	})
	if err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	if len(res.Compacted) == 0 {
		t.Fatalf("batch did not compact: %+v", res)
	}
	id := res.Inserted[0]
	author := eng.DB().Relation("Author")
	if author.Deleted(id) || author.PK(id) != 986001 {
		t.Fatalf("returned insert id %d does not hold pk 986001 after compaction", id)
	}
	if _, err := eng.SizeL(QueryRequest{Rel: "Author", L: 4}, id); err != nil {
		t.Fatalf("SizeL on remapped insert id: %v", err)
	}
}

// TestCompactNow reclaims tombstones on demand and reports the relations.
func TestCompactNow(t *testing.T) {
	eng := mutableDBLP(t)
	if _, err := eng.Mutate(insertAuthorBatch(t, eng, 990001, "Brief Tenureson", "Soon Gone")); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if _, err := eng.Mutate(MutationBatch{Deletes: []TupleDelete{
		{Rel: "Writes", PK: 990003},
		{Rel: "Paper", PK: 990002},
		{Rel: "Author", PK: 990001},
	}}); err != nil {
		t.Fatalf("delete: %v", err)
	}
	compacted, err := eng.CompactNow()
	if err != nil {
		t.Fatalf("CompactNow: %v", err)
	}
	if len(compacted) != 3 {
		t.Fatalf("CompactNow compacted %v, want 3 relations", compacted)
	}
	for _, rel := range compacted {
		if n := eng.DB().Relation(rel).Tombstones(); n != 0 {
			t.Fatalf("%s keeps %d tombstones after CompactNow", rel, n)
		}
	}
	if again, err := eng.CompactNow(); err != nil || again != nil {
		t.Fatalf("second CompactNow = %v, %v; want nil, nil", again, err)
	}
	if res, err := search(eng, "Author", "Faloutsos", 5, QueryRequest{}); err != nil || len(res) == 0 {
		t.Fatalf("search after CompactNow: %v (%d results)", err, len(res))
	}
}
