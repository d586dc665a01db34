package sizelos

// Export/restore round-trip tests for the durability seam: the state an
// engine exports must rebuild, via NewEngineFromState, an engine that is
// bit-identical in durable state and equivalent in served results. The
// crash-protocol proof (WAL + snapshots + fault injection) lives in
// internal/durable; these tests pin the seam itself.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"maps"
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

// throughGob is st as a snapshot file holds it: gob-encoded and decoded,
// which writes an empty map and a nil one alike.
func throughGob(t *testing.T, st *EngineState) *EngineState {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	var out EngineState
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// requireSameState holds two exported states to each other bit for bit:
// store bytes, raw scores, epochs, geometry, captured rows and the refresh
// counter. fmt prints maps sorted and floats exactly, and a nil slice or
// map as an empty one, which is all gob keeps of them.
func requireSameState(t *testing.T, tag string, want, got *EngineState) {
	t.Helper()
	if !bytes.Equal(want.DB, got.DB) {
		t.Fatalf("%s: relational state bytes diverged: %d vs %d", tag, len(want.DB), len(got.DB))
	}
	for setting, sc := range want.RawScores {
		for rel, v := range sc {
			if !slices.EqualFunc(v, got.RawScores[setting][rel], sameBits) {
				t.Fatalf("%s: %s/%s raw scores are not bit-identical", tag, setting, rel)
			}
		}
	}
	if !maps.Equal(want.Epochs, got.Epochs) || !slices.Equal(want.ConvergedSlots, got.ConvergedSlots) {
		t.Fatalf("%s: epochs %v, geometry %v vs %v, %v", tag, want.Epochs, want.ConvergedSlots, got.Epochs, got.ConvergedSlots)
	}
	if want.RowsCover != got.RowsCover || want.ResidualRuns != got.ResidualRuns ||
		fmt.Sprint(want.Captured) != fmt.Sprint(got.Captured) {
		t.Fatalf("%s: rows cover %v, counter %d, captured %v\nvs rows cover %v, counter %d, captured %v",
			tag, want.RowsCover, want.ResidualRuns, want.Captured, got.RowsCover, got.ResidualRuns, got.Captured)
	}
}

// requireSameRerank holds the re-ranks two engines ran on the same batch
// to each other: the same RerankStats, Residual among them as want says,
// and bit-identical served scores.
func requireSameRerank(t *testing.T, tag string, residual bool, a, b *Engine, ra, rb MutationResult) {
	t.Helper()
	for _, s := range a.settings {
		if sa, sb := ra.RerankStats[s.Name], rb.RerankStats[s.Name]; sa != sb || sa.Residual != residual {
			t.Fatalf("%s: %s re-ranked %+v vs %+v, want Residual %v", tag, s.Name, sa, sb, residual)
		}
		want, err := a.Scores(s.Name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Scores(s.Name)
		if err != nil {
			t.Fatal(err)
		}
		for rel, v := range want {
			if !slices.EqualFunc(v, got[rel], sameBits) {
				t.Fatalf("%s: %s/%s served scores are not bit-identical", tag, s.Name, rel)
			}
		}
	}
}

// capturedRows counts the rows an exported state captured.
func capturedRows(st *EngineState) int {
	n := 0
	for _, plans := range st.Captured {
		for _, rows := range plans {
			n += len(rows)
		}
	}
	return n
}

func TestExportRestoreRoundTrip(t *testing.T) {
	eng := testDBLPEngine(t)
	// Mutate a little first so the exported state is not the pristine build:
	// tombstones, grown score vectors, bumped epochs and the rows the
	// batch after the last re-rank captured all round-trip.
	gen := mutgen.New(eng.DB(), 42)
	for round := 0; round < 8; round++ {
		b := toMutationBatch(gen.NextBatch())
		b.Rerank = round%4 == 2
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
	if !st.RowsCover || capturedRows(st) == 0 || st.ResidualRuns != 2 {
		t.Fatalf("export after a plain batch: rows cover %v, %d captured rows, counter %d; want rows and counter 2",
			st.RowsCover, capturedRows(st), st.ResidualRuns)
	}
	restored, err := RestoreDBLP(throughGob(t, st))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}

	// Durable state is bit-identical: re-exporting yields the same bytes,
	// vectors and rows.
	st2, _, err := restored.ExportState()
	if err != nil {
		t.Fatalf("re-export: %v", err)
	}
	requireSameState(t, "re-export", st, st2)

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

	// NewEngineFromState's re-rank contract: the snapshot kept the rows
	// captured since the last re-rank and the refresh counter, so the
	// restored engine seeds every re-rank from captured rows as the survivor
	// does, and serves bit-identical scores.
	for rerank := 1; rerank <= 2; rerank++ {
		both(false)
		ra, rb := both(true)
		requireSameRerank(t, fmt.Sprintf("re-rank %d", rerank), true, eng, restored, ra, rb)
	}
	sa, _, err := eng.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	sb, _, err := restored.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, "after the re-ranks", sa, sb)
}

// TestExportRestoreRefreshCounter: a snapshot taken after
// residualRefreshInterval−1 re-ranks seeded from rows keeps the refresh
// counter, so the restored engine's second re-rank is the refresh, as the
// survivor's is, and the two stay bit-identical through it.
func TestExportRestoreRefreshCounter(t *testing.T) {
	eng := residualTestEngine(t, 80, 260)
	prev := int64(0)
	next := func(i int) MutationBatch {
		pk := int64(69_000_001 + i)
		b := citesStreamBatch(eng, pk, prev, i)
		prev = pk
		return b
	}
	for i := range residualRefreshInterval - 1 {
		res, err := eng.Mutate(next(i))
		if err != nil {
			t.Fatal(err)
		}
		if !res.RerankStats[DefaultSetting].Residual {
			t.Fatalf("re-rank %d did not seed from captured rows", i)
		}
	}
	st, _, err := eng.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if st.ResidualRuns != residualRefreshInterval-1 {
		t.Fatalf("refresh counter %d after %d re-ranks seeded from rows", st.ResidualRuns, residualRefreshInterval-1)
	}
	restored, err := NewEngineFromState(eng.settings, throughGob(t, st))
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 2; k++ {
		b := next(residualRefreshInterval + k)
		ra, err := eng.Mutate(b)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := restored.Mutate(b)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRerank(t, fmt.Sprintf("re-rank %d after the restore", k), k == 1, eng, restored, ra, rb)
	}
	sa, _, err := eng.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	sb, _, err := restored.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if sa.ResidualRuns != 0 {
		t.Fatalf("refresh counter %d after the refresh", sa.ResidualRuns)
	}
	requireSameState(t, "after the refresh", sa, sb)
}

// TestExportRestoreRowCoverage pins what a snapshot with no captured rows
// restores to. Right after a re-rank nothing changed, and the next re-rank
// seeds from rows; right after a compaction the rows do not cover, and it
// sweeps — gob writes both as a nil map, so only RowsCover tells them
// apart. A snapshot from before the fields existed sweeps too; its
// survivor is the same engine with its rows dropped. Each restored engine
// runs the survivor's next re-rank, bit for bit.
func TestExportRestoreRowCoverage(t *testing.T) {
	mutate := func(eng *Engine, b MutationBatch) {
		t.Helper()
		if _, err := eng.Mutate(b); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name     string
		prepare  func(eng *Engine)
		old      bool
		cover    bool
		residual bool
	}{
		{"right after a re-rank", func(eng *Engine) {
			mutate(eng, citesStreamBatch(eng, 69_100_001, 0, 0))
		}, false, true, true},
		{"right after a compaction", func(eng *Engine) {
			mutate(eng, citesStreamBatch(eng, 69_100_001, 0, 0))
			b := citesStreamBatch(eng, 69_100_002, 69_100_001, 1)
			b.Rerank = false
			mutate(eng, b)
			if compacted, err := eng.CompactNow(); err != nil || len(compacted) == 0 {
				t.Fatalf("CompactNow: %v %v", compacted, err)
			}
		}, false, false, false},
		{"from before the fields existed", func(eng *Engine) {
			mutate(eng, citesStreamBatch(eng, 69_100_001, 0, 0))
			b := citesStreamBatch(eng, 69_100_002, 69_100_001, 1)
			b.Rerank = false
			mutate(eng, b)
		}, true, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := residualTestEngine(t, 80, 260)
			tc.prepare(eng)
			st, _, err := eng.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			if tc.old {
				st.RowsCover, st.Captured, st.ResidualRuns = false, nil, 0
				DropCapturedRows(eng)
			}
			if st.RowsCover != tc.cover || capturedRows(st) != 0 {
				t.Fatalf("snapshot: rows cover %v, %d captured rows; want cover %v and none", st.RowsCover, capturedRows(st), tc.cover)
			}
			restored, err := NewEngineFromState(eng.settings, throughGob(t, st))
			if err != nil {
				t.Fatal(err)
			}
			b := citesStreamBatch(eng, 69_200_001, 0, 5)
			ra, err := eng.Mutate(b)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := restored.Mutate(b)
			if err != nil {
				t.Fatal(err)
			}
			requireSameRerank(t, "next re-rank", tc.residual, eng, restored, ra, rb)
			sa, _, err := eng.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			sb, _, err := restored.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			requireSameState(t, "after the re-rank", sa, sb)
		})
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

// TestRestoreRejectsCapturedRows: the captured rows and the refresh
// counter are read as outside input. Restore returns an error, never a
// panic, for rows filed under a name that is no setting's or under two
// settings of one G_A, rows for a plan past the compiled ones, a source or
// target past its relation's slots, weights that do not pair with the
// targets of a value (ValueRank) split, and a counter outside
// [0, residualRefreshInterval]. TPC-H's GA1 has value splits.
func TestRestoreRejectsCapturedRows(t *testing.T) {
	cfg := datagen.DefaultTPCHConfig()
	cfg.ScaleFactor = 0.0015
	eng, err := OpenTPCH(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := mutgen.New(eng.DB(), 3)
	for range 3 {
		if _, err := eng.Mutate(toMutationBatch(gen.NextBatch())); err != nil {
			t.Fatal(err)
		}
	}
	st, _, err := eng.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreTPCH(throughGob(t, st)); err != nil {
		t.Fatalf("restore of the exported state: %v", err)
	}
	key := tpchRecipe.settings()[0].Name
	// A captured row with targets under a value split: plan pi, source src.
	pi, src := -1, relational.TupleID(0)
	for i, rows := range st.Captured[key] {
		for s, r := range rows {
			if len(r.Weights) > 0 {
				pi, src = i, s
			}
		}
	}
	if pi < 0 {
		t.Fatalf("%s captured no value-split row with targets", key)
	}
	const far = relational.TupleID(1 << 30)
	bad := map[string]func(st *EngineState){
		"rows for an unknown setting": func(st *EngineState) { st.Captured["nope"] = st.Captured[key] },
		"one G_A's rows under two of its settings": func(st *EngineState) {
			st.Captured[tpchRecipe.settings()[1].Name] = st.Captured[key]
		},
		"rows for a plan past the plans": func(st *EngineState) {
			st.Captured[key] = append(st.Captured[key], map[relational.TupleID]rank.Row{0: {}})
		},
		"a source past its relation": func(st *EngineState) { st.Captured[key][pi][far] = rank.Row{} },
		"a negative source":          func(st *EngineState) { st.Captured[key][pi][-1] = rank.Row{} },
		"a target past its relation": func(st *EngineState) {
			r := st.Captured[key][pi][src]
			r.Targets[0] = far
		},
		"weights one short of the targets": func(st *EngineState) {
			r := st.Captured[key][pi][src]
			r.Weights = r.Weights[1:]
			st.Captured[key][pi][src] = r
		},
		"a negative refresh counter": func(st *EngineState) { st.ResidualRuns = -1 },
		"a refresh counter past due": func(st *EngineState) { st.ResidualRuns = residualRefreshInterval + 1 },
	}
	for name, edit := range bad {
		broken := throughGob(t, st)
		edit(broken)
		if _, err := RestoreTPCH(broken); err == nil {
			t.Fatalf("restore accepted %s", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
	at := throughGob(t, st)
	at.ResidualRuns = residualRefreshInterval
	if _, err := RestoreTPCH(at); err != nil {
		t.Fatalf("restore with the refresh due: %v", err)
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
