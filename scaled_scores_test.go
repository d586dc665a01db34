package sizelos

// The engine keeps one raw score vector per setting and serves it through a
// scale (relational.Scaled): no normalized copy exists until Engine.Scores
// asks for one. These proofs drive one seeded stream through every path
// that writes raw scores or retakes a scale — re-ranks seeded from captured
// rows and from sweeps, plain batches that grow the vectors, an automatic
// compaction and a CompactNow, a budget-trip fallback, a restore, and a
// repair that must rescan a relation for its maximum — and after every
// batch hold what searches read to what Engine.Scores serves.

import (
	"math"
	"testing"

	"sizelos/internal/mutgen"
	"sizelos/internal/ostree"
	"sizelos/internal/rank"
	"sizelos/internal/relational"
)

// The stream's milestones, by batch index.
const (
	streamBatches      = 40
	streamAutoCompact  = 9  // under a policy that compacts any tombstone
	streamBudgetTrip   = 14 // under a one-push budget
	streamCompactNow   = 20 // CompactNow before the batch
	streamRestore      = 26 // restored from ExportState before the batch
	streamForcedRescan = 31 // a maximum node inflated, the rows dropped
)

// scoreStream runs the stream over a small DBLP engine with the four
// settings, calling check after every batch, and returns the re-ranks'
// telemetry summed. From streamRestore on the engine is the one restored
// from the survivor's exported state; the survivor takes the same batches,
// since the generator reads its store.
func scoreStream(t *testing.T, check func(stage string, eng *Engine)) (reranks, rescans, fallbacks, compactions, fChanges int) {
	t.Helper()
	eng := testDBLPEngine(t)
	survivor := eng
	gen := mutgen.New(survivor.DB(), 0x5CA1ED)
	check("build", eng)
	for i := 0; i < streamBatches; i++ {
		switch i {
		case streamAutoCompact:
			eng.compactMin, eng.compactRatio = 1, 0.0001
		case streamBudgetTrip:
			eng.residualBudget = 1
		case streamCompactNow:
			rels, err := eng.CompactNow()
			if err != nil || len(rels) == 0 {
				t.Fatalf("CompactNow: %v, compacted %v", err, rels)
			}
			compactions += len(rels)
			check("compact-now", eng)
		case streamRestore:
			st, _, err := eng.ExportState()
			if err != nil {
				t.Fatalf("ExportState: %v", err)
			}
			if eng, err = RestoreDBLP(throughGob(t, st)); err != nil {
				t.Fatalf("RestoreDBLP: %v", err)
			}
			check("restore", eng)
		case streamForcedRescan:
			inflateMax(t, eng, DefaultSetting, "Author")
		}
		b := toMutationBatch(gen.NextBatch())
		b.Rerank = i%4 != 3 || i == streamForcedRescan
		if eng != survivor {
			if _, err := survivor.Mutate(b); err != nil {
				t.Fatalf("batch %d on the survivor: %v", i, err)
			}
		}
		before := make(map[string]float64)
		for name, sc := range eng.scales {
			before[name] = sc.f
		}
		res, err := eng.Mutate(b)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		compactions += len(res.Compacted)
		tripped := false
		for name, st := range res.RerankStats {
			if st.FallbackTaken {
				fallbacks++
				tripped = true
			}
			rescans += st.MaxRescans
			if math.Float64bits(eng.scales[name].f) != math.Float64bits(before[name]) {
				fChanges++
			}
		}
		if res.Reranked {
			reranks++
		}
		switch i {
		case streamAutoCompact:
			if len(res.Compacted) == 0 {
				t.Fatalf("batch %d: the lowered policy compacted nothing", i)
			}
			eng.compactMin, eng.compactRatio = DefaultCompactMinTombstones, DefaultCompactRatio
		case streamBudgetTrip:
			if !tripped {
				t.Fatalf("batch %d: no setting tripped a one-push budget: %+v", i, res.RerankStats)
			}
			eng.residualBudget = 0
		case streamForcedRescan:
			if st := res.RerankStats[DefaultSetting]; st.FallbackTaken || st.MaxRescans == 0 {
				t.Fatalf("batch %d: the inflated maximum was not rescanned: %+v", i, st)
			}
		}
		check("batch", eng)
	}
	return reranks, rescans, fallbacks, compactions, fChanges
}

// inflateMax raises the largest raw score of rel under setting by half and
// drops the captured rows: the next re-rank's sweep seeds that node's exact
// residual, pushes it back below the maximum it held, and so must rescan
// rel for its new maximum.
func inflateMax(t *testing.T, eng *Engine, setting, rel string) {
	t.Helper()
	eng.mu.Lock()
	defer eng.mu.Unlock()
	v := eng.rawScores[setting][rel]
	arg := 0
	for i, x := range v {
		if x > v[arg] {
			arg = i
		}
	}
	v[arg] *= 1.5
	eng.pending = nil
	clear(eng.served)
}

// TestScaledReadsMatchScores: after every batch of the stream, every score
// a search reads — the keyword frontier's Match.Score and the GraphSource
// weights and thresholds, both built as QueryPage and evaluate build them —
// equals Engine.Scores by Float64bits, slot by slot; and that table is bit
// for bit what rank.Normalize writes over a copy of the raw vectors, the
// normalized copy the engine no longer keeps.
func TestScaledReadsMatchScores(t *testing.T) {
	slots, matches := 0, 0
	reranks, rescans, fallbacks, compactions, fChanges := scoreStream(t, func(stage string, eng *Engine) {
		for _, name := range eng.SettingNames() {
			served, err := eng.Scores(name)
			if err != nil {
				t.Fatalf("%s: Scores(%s): %v", stage, name, err)
			}
			eng.mu.RLock()
			raw, f, err := eng.scoresLocked(name)
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			normalized := copyScoreTable(map[string]relational.DBScores{name: raw})[name]
			src := ostree.NewScaledGraphSource(eng.graph, raw, f)
			for ri, r := range eng.db.Relations {
				got, want := src.Scores(ri), served[r.Name]
				if len(got.Raw) != len(want) {
					t.Fatalf("%s: %s/%s: the source reads %d slots, Scores has %d", stage, name, r.Name, len(got.Raw), len(want))
				}
				for i := range want {
					if math.Float64bits(got.At(relational.TupleID(i))) != math.Float64bits(want[i]) {
						t.Fatalf("%s: %s/%s slot %d: the source reads %v, Scores %v", stage, name, r.Name, i, got.At(relational.TupleID(i)), want[i])
					}
				}
				slots += len(want)
			}
			for ds := range eng.baseGDS {
				rel := eng.db.Relation(ds)
				for id := relational.TupleID(0); int(id) < rel.Len(); id += 3 {
					if rel.Deleted(id) {
						continue
					}
					stream := eng.index.SearchScaled(ds, headline(eng.db, ds, id), relational.Scaled{Raw: raw[ds], F: f})
					for m, ok := stream.Next(); ok; m, ok = stream.Next() {
						if math.Float64bits(m.Score) != math.Float64bits(served[ds][m.Tuple]) {
							t.Fatalf("%s: %s/%s tuple %d: the frontier reads %v, Scores %v", stage, name, ds, m.Tuple, m.Score, served[ds][m.Tuple])
						}
						matches++
					}
				}
			}
			eng.mu.RUnlock()
			rank.Normalize(normalized, rank.DefaultOptions().NormalizeMax)
			for rel, v := range normalized {
				for i, x := range v {
					if math.Float64bits(x) != math.Float64bits(served[rel][i]) {
						t.Fatalf("%s: %s/%s slot %d: Scores %v, rank.Normalize %v", stage, name, rel, i, served[rel][i], x)
					}
				}
			}
		}
	})
	t.Logf("%d re-ranks (%d fallbacks, %d maximum rescans, %d scale changes), %d relations compacted; %d slots and %d frontier matches compared",
		reranks, fallbacks, rescans, fChanges, compactions, slots, matches)
}

// TestTrackedMaximaMatchScan: after every batch of the stream, each
// setting's scale — the per-relation maxima the G_DSs are annotated with
// and the factor f — equals a full scan: every relation's maximum of
// Engine.Scores, and NormalizeMax over the largest raw score. The re-ranks
// take those maxima from the rescale and the pushed nodes, so this holds the
// tracking, and the rescans it falls back on, to the scan it replaced.
func TestTrackedMaximaMatchScan(t *testing.T) {
	reranks, rescans, fallbacks, compactions, fChanges := scoreStream(t, func(stage string, eng *Engine) {
		for _, name := range eng.SettingNames() {
			served, err := eng.Scores(name)
			if err != nil {
				t.Fatalf("%s: Scores(%s): %v", stage, name, err)
			}
			eng.mu.RLock()
			sc, raw := eng.scales[name], eng.rawScores[name]
			top := 0.0
			for _, v := range raw {
				top = max(top, v.MaxScore())
			}
			eng.mu.RUnlock()
			if len(sc.relMax) != len(served) {
				t.Fatalf("%s: %s: maxima of %d relations, %d scored", stage, name, len(sc.relMax), len(served))
			}
			for rel, v := range served {
				if got, want := sc.relMax[rel], v.MaxScore(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: %s/%s: tracked maximum %v, scan %v", stage, name, rel, got, want)
				}
			}
			f := 1.0
			if top > 0 {
				f = rank.DefaultOptions().NormalizeMax / top
			}
			if math.Float64bits(sc.f) != math.Float64bits(f) {
				t.Fatalf("%s: %s: scale %v, scan %v", stage, name, sc.f, f)
			}
		}
	})
	if rescans == 0 {
		t.Fatal("no re-rank took the rescan path")
	}
	t.Logf("%d re-ranks: %d maximum rescans, %d fallbacks, %d scale changes; %d relations compacted",
		reranks, rescans, fallbacks, fChanges, compactions)
}
