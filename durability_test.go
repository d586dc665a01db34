package sizelos

// Export/restore round-trip tests for the durability seam: the state an
// engine exports must rebuild, via NewEngineFromState, an engine that is
// bit-identical in durable state and equivalent in served results. The
// crash-protocol proof (WAL + snapshots + fault injection) lives in
// internal/durable; these tests pin the seam itself.

import (
	"math"
	"slices"
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/mutgen"
	"sizelos/internal/rank"
	"sizelos/internal/relational"
)

func testDBLPEngine(t *testing.T) *Engine {
	t.Helper()
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 40
	cfg.Papers = 130
	cfg.Conferences = 4
	cfg.YearSpan = 3
	eng, err := OpenDBLP(cfg)
	if err != nil {
		t.Fatalf("OpenDBLP: %v", err)
	}
	return eng
}

// countingLog is a MutationLog stub that records appends.
type countingLog struct {
	mutations int
	compacts  int
}

func (c *countingLog) AppendMutation(MutationBatch) error { c.mutations++; return nil }
func (c *countingLog) AppendCompact() error               { c.compacts++; return nil }
func (c *countingLog) Seq() uint64                        { return uint64(c.mutations + c.compacts) }

func TestExportRestoreRoundTrip(t *testing.T) {
	eng := testDBLPEngine(t)
	// Mutate a little first so the exported state is not the pristine build:
	// tombstones, grown score vectors and bumped epochs all round-trip.
	gen := mutgen.New(eng.DB(), 42)
	for round := 0; round < 8; round++ {
		b := toMutationBatch(gen.NextBatch())
		b.Rerank = round%4 == 3
		if _, err := eng.Mutate(b); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}

	st, seq, err := eng.ExportState()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if seq != 0 {
		t.Fatalf("seq %d without a log installed", seq)
	}
	restored, err := RestoreDBLP(st)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}

	// Durable state is bit-identical: re-exporting yields the same bytes
	// and vectors.
	st2, _, err := restored.ExportState()
	if err != nil {
		t.Fatalf("re-export: %v", err)
	}
	if string(st.DB) != string(st2.DB) {
		t.Fatalf("relational state bytes diverged: %d vs %d", len(st.DB), len(st2.DB))
	}
	for setting, sc := range st.RawScores {
		for rel, v := range sc {
			w := st2.RawScores[setting][rel]
			if len(v) != len(w) {
				t.Fatalf("%s/%s: %d vs %d scores", setting, rel, len(v), len(w))
			}
			for i := range v {
				if v[i] != w[i] {
					t.Fatalf("%s/%s tuple %d: %v vs %v", setting, rel, i, v[i], w[i])
				}
			}
		}
	}
	for rel, e := range st.Epochs {
		if st2.Epochs[rel] != e {
			t.Fatalf("epoch[%s]: %d vs %d", rel, e, st2.Epochs[rel])
		}
	}
	if st.ConvergedSlots == nil || !slices.Equal(st.ConvergedSlots, st2.ConvergedSlots) {
		t.Fatalf("converged geometry %v vs %v", st.ConvergedSlots, st2.ConvergedSlots)
	}

	// Served (normalized) scores agree too, and the engine answers queries.
	for _, name := range eng.SettingNames() {
		a, err := eng.Scores(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.Scores(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, rel := range eng.DB().Relations {
			for i := range a[rel.Name] {
				if a[rel.Name][i] != b[rel.Name][i] {
					t.Fatalf("%s/%s tuple %d: served score %v vs %v", name, rel.Name, i, a[rel.Name][i], b[rel.Name][i])
				}
			}
		}
	}
	if _, err := search(restored, "Author", "synthetic", 3, QueryRequest{}); err != nil {
		t.Fatalf("restored engine search: %v", err)
	}

	// Mutating the restored engine works and stays equivalent to mutating
	// the original: the two states are identical, so one generated batch is
	// valid for both, and applying it must keep them identical.
	both := func(rerank bool) (ra, rb MutationResult) {
		t.Helper()
		b := toMutationBatch(gen.NextBatch())
		b.Rerank = rerank
		if rb, err = restored.Mutate(b); err != nil {
			t.Fatalf("restored mutate: %v", err)
		}
		if ra, err = eng.Mutate(b); err != nil {
			t.Fatalf("original mutate: %v", err)
		}
		return ra, rb
	}
	for round := 0; round < 4; round++ {
		both(false)
	}

	// NewEngineFromState's re-rank contract: no captured rows survive the
	// restart, so the restored engine's first re-rank seeds its push from
	// one exact sweep and its second from captured rows again, while the
	// survivor seeds from captured rows both times. Served scores stay within the
	// fixed-point tolerance of the survivor's.
	for rerank := 1; rerank <= 2; rerank++ {
		both(false)
		ra, rb := both(true)
		raw, _, err := eng.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range dblpRecipe.settings() {
			if !ra.RerankStats[s.Name].Residual {
				t.Fatalf("re-rank %d: survivor %s did not seed from captured rows", rerank, s.Name)
			}
			if got, want := rb.RerankStats[s.Name].Residual, rerank == 2; got != want {
				t.Fatalf("re-rank %d: restored %s Residual = %v, want %v", rerank, s.Name, got, want)
			}
			maxRaw := 0.0
			for _, v := range raw.RawScores[s.Name] {
				maxRaw = max(maxRaw, v.MaxScore())
			}
			tol := warmColdTolerance(s.Damping, rank.DefaultOptions().Epsilon, maxRaw)
			want, err := eng.Scores(s.Name)
			if err != nil {
				t.Fatal(err)
			}
			got, err := restored.Scores(s.Name)
			if err != nil {
				t.Fatal(err)
			}
			worst := 0.0
			for rel, v := range want {
				for i := range v {
					d := math.Abs(v[i] - got[rel][i])
					if d > tol {
						t.Fatalf("re-rank %d: %s/%s tuple %d: served %v vs survivor %v (tol %g)",
							rerank, s.Name, rel, i, got[rel][i], v[i], tol)
					}
					worst = max(worst, d)
				}
			}
			t.Logf("re-rank %d, %s: restored iterations %d, survivor pushes %d, max served diff %.2g (tol %.2g)",
				rerank, s.Name, rb.RerankStats[s.Name].Iterations, ra.RerankStats[s.Name].Pushes, worst, tol)
		}
	}
	sa, _, err := eng.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	sb, _, err := restored.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if string(sa.DB) != string(sb.DB) {
		t.Fatal("post-restore mutations diverged from the original engine")
	}
}

func TestRestoreRejectsMisalignedScores(t *testing.T) {
	eng := testDBLPEngine(t)
	st, _, err := eng.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	name := eng.SettingNames()[0]

	broken := &EngineState{DB: st.DB, Epochs: st.Epochs}
	broken.RawScores = map[string]relational.DBScores{}
	for s, sc := range st.RawScores {
		broken.RawScores[s] = sc
	}
	cut := relational.DBScores{}
	for rel, v := range st.RawScores[name] {
		cut[rel] = v
	}
	cut["Author"] = cut["Author"][:len(cut["Author"])-1]
	broken.RawScores[name] = cut
	if _, err := RestoreDBLP(broken); err == nil {
		t.Fatal("restore accepted a score vector shorter than the relation")
	}

	delete(broken.RawScores, name)
	if _, err := RestoreDBLP(broken); err == nil {
		t.Fatal("restore accepted a missing setting")
	}

	// A snapshot from before the converged geometry restores (under the
	// restored arena's); one that has it must name every relation, none
	// past its slots.
	if _, err := RestoreDBLP(&EngineState{DB: st.DB, RawScores: st.RawScores, Epochs: st.Epochs}); err != nil {
		t.Fatalf("restore without converged geometry: %v", err)
	}
	for _, slots := range [][]int32{st.ConvergedSlots[1:], append([]int32{st.ConvergedSlots[0] + 1}, st.ConvergedSlots[1:]...)} {
		if _, err := RestoreDBLP(&EngineState{DB: st.DB, RawScores: st.RawScores, Epochs: st.Epochs, ConvergedSlots: slots}); err == nil {
			t.Fatalf("restore accepted converged geometry %v for %v", slots, st.ConvergedSlots)
		}
	}
}

func TestMutationLogReceivesCommitOrder(t *testing.T) {
	eng := testDBLPEngine(t)
	log := &countingLog{}
	eng.SetMutationLog(log)
	gen := mutgen.New(eng.DB(), 7)
	for i := 0; i < 5; i++ {
		if _, err := eng.Mutate(toMutationBatch(gen.NextBatch())); err != nil {
			t.Fatal(err)
		}
	}
	if log.mutations != 5 {
		t.Fatalf("log saw %d mutations, want 5", log.mutations)
	}
	if _, err := eng.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if log.compacts != 1 {
		t.Fatalf("log saw %d compactions, want 1", log.compacts)
	}
	st, seq, err := eng.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("export seq %d, want 6 (5 mutations + 1 compact)", seq)
	}
	if st == nil || len(st.DB) == 0 {
		t.Fatal("empty export")
	}
	// Detaching the log restores the log-free behavior.
	eng.SetMutationLog(nil)
	if _, err := eng.Mutate(toMutationBatch(gen.NextBatch())); err != nil {
		t.Fatal(err)
	}
}
