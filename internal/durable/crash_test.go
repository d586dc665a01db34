package durable

// The crash-restart equivalence harness: the durability tier's proof
// obligation. One survivor process drives a seeded random mutation stream
// (the same mutgen streams the mutation-equivalence harness uses) against
// an engine with the WAL attached, snapshotting on a cadence that puts
// snapshot writes, WAL rotations and segment prunes in the middle of the
// stream. The fault-injecting MemFS records a crash image after every
// mutating filesystem operation; the harness then recovers from EVERY
// image — under every unsynced-tail survival mode, including one-bit
// corruption of the torn region — and asserts:
//
//  1. Durability: every batch acknowledged before the crash point is in
//     the recovered state (recovered seq >= acked seq at that op).
//  2. Equivalence: the recovered engine's exported state — relational
//     layout bytes, raw score vectors, epochs, converged geometry, the
//     rows captured since the last re-rank and the refresh counter — is
//     BIT-IDENTICAL to the survivor's state at the same sequence number.
//     Both sides run as every engine does, re-ranks seeded from captured
//     rows: a snapshot keeps them, so the re-ranks replayed after a
//     restore seed as the survivor's did.
//
// Seeded and reproducible: set SIZELOS_CRASH_SEED to replay a failure.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path"
	"slices"
	"strconv"
	"testing"

	"sizelos"
	"sizelos/internal/datagen"
	"sizelos/internal/mutgen"
	"sizelos/internal/relational"
)

func crashSeed(t *testing.T) int64 {
	if s := os.Getenv("SIZELOS_CRASH_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("SIZELOS_CRASH_SEED=%q: %v", s, err)
		}
		return v
	}
	return 0xC4A5
}

func toBatch(b relational.Batch) sizelos.MutationBatch {
	return sizelos.MutationBatch{Deletes: b.Deletes, Inserts: b.Inserts}
}

// ackPoint marks that the batch with sequence number seq was acknowledged
// once op filesystem operations had completed.
type ackPoint struct {
	op  int
	seq uint64
}

// ackedAt returns the highest sequence number acknowledged when at most op
// operations had completed — the durability floor for a crash there.
func ackedAt(acks []ackPoint, op int) uint64 {
	var seq uint64
	for _, a := range acks {
		if a.op <= op {
			seq = a.seq
		}
	}
	return seq
}

// assertStatesIdentical asserts bit-identity of two exported engine states.
func assertStatesIdentical(t *testing.T, tag string, want, got *sizelos.EngineState) {
	t.Helper()
	if !bytes.Equal(want.DB, got.DB) {
		t.Fatalf("%s: relational state bytes diverged (%d vs %d bytes)", tag, len(want.DB), len(got.DB))
	}
	if len(want.RawScores) != len(got.RawScores) {
		t.Fatalf("%s: settings %d vs %d", tag, len(want.RawScores), len(got.RawScores))
	}
	for setting, ws := range want.RawScores {
		gs, ok := got.RawScores[setting]
		if !ok {
			t.Fatalf("%s: setting %s missing", tag, setting)
		}
		for rel, wv := range ws {
			gv := gs[rel]
			if len(wv) != len(gv) {
				t.Fatalf("%s: %s/%s score lengths %d vs %d", tag, setting, rel, len(wv), len(gv))
			}
			for i := range wv {
				if wv[i] != gv[i] {
					t.Fatalf("%s: %s/%s tuple %d: raw score %.17g vs %.17g (not bit-identical)",
						tag, setting, rel, i, wv[i], gv[i])
				}
			}
		}
	}
	if len(want.Epochs) != len(got.Epochs) {
		t.Fatalf("%s: epoch maps %d vs %d", tag, len(want.Epochs), len(got.Epochs))
	}
	for rel, we := range want.Epochs {
		if got.Epochs[rel] != we {
			t.Fatalf("%s: epoch[%s] %d vs %d", tag, rel, we, got.Epochs[rel])
		}
	}
	if !slices.Equal(want.ConvergedSlots, got.ConvergedSlots) {
		t.Fatalf("%s: converged geometry %v vs %v", tag, want.ConvergedSlots, got.ConvergedSlots)
	}
	if want.RowsCover != got.RowsCover || want.ResidualRuns != got.ResidualRuns {
		t.Fatalf("%s: rows cover %v, refresh counter %d vs %v, %d",
			tag, want.RowsCover, want.ResidualRuns, got.RowsCover, got.ResidualRuns)
	}
	// fmt prints maps sorted and floats exactly, and a nil slice or map as
	// an empty one, which is all gob keeps of them.
	if fmt.Sprint(want.Captured) != fmt.Sprint(got.Captured) {
		t.Fatalf("%s: captured rows diverged:\n%v\nvs\n%v", tag, want.Captured, got.Captured)
	}
}

// capturedRows counts the rows an exported state captured.
func capturedRows(st *sizelos.EngineState) int {
	n := 0
	for _, plans := range st.Captured {
		for _, rows := range plans {
			n += len(rows)
		}
	}
	return n
}

// crashConfig parameterizes one harness run.
type crashConfig struct {
	rounds     int
	snapEvery  int // Snapshot after rounds where (round+1)%snapEvery == 0
	compactAt  map[int]bool
	rerankMod  int
	seedOffset int64
	// coverAt lists rounds whose snapshot must (true) or must not (false)
	// carry captured rows that cover the batches since the last re-rank.
	coverAt map[int]bool
}

// runCrashHarness executes the survivor stream and recovers from every
// crash image under every applicable tail mode.
func runCrashHarness(t *testing.T, cfg crashConfig,
	fresh func() (*sizelos.Engine, error),
	restore func(*sizelos.EngineState) (*sizelos.Engine, error),
) {
	seed := crashSeed(t) + cfg.seedOffset
	t.Logf("crash-restart seed %d (replay: SIZELOS_CRASH_SEED=%d)", seed, crashSeed(t))

	fs := NewMemFS()
	store, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := store.Tenant("t")
	fs.StartRecording() // the very first segment create is a crash point too

	eng, info, err := ts.Recover(restore, fresh)
	if err != nil {
		t.Fatalf("initial recover: %v", err)
	}
	if info.Seq != 0 || info.Replayed != 0 {
		t.Fatalf("fresh tenant recovered %+v", info)
	}

	// fingerprints[s] is the survivor's exported state after sequence s.
	fingerprints := make(map[uint64]*sizelos.EngineState)
	snap := func(seq uint64) {
		st, s, err := eng.ExportState()
		if err != nil {
			t.Fatalf("export at seq %d: %v", seq, err)
		}
		if s != seq {
			t.Fatalf("export seq %d, want %d", s, seq)
		}
		fingerprints[seq] = st
	}
	snap(0)

	gen := mutgen.New(eng.DB(), seed)
	var acks []ackPoint
	for round := 0; round < cfg.rounds; round++ {
		batch := toBatch(gen.NextBatch())
		batch.Rerank = round%cfg.rerankMod == cfg.rerankMod-1
		if _, err := eng.Mutate(batch); err != nil {
			t.Fatalf("round %d: Mutate: %v", round, err)
		}
		acks = append(acks, ackPoint{op: fs.OpCount(), seq: ts.Seq()})
		snap(ts.Seq())
		if cfg.compactAt[round] {
			if _, err := eng.CompactNow(); err != nil {
				t.Fatalf("round %d: CompactNow: %v", round, err)
			}
			acks = append(acks, ackPoint{op: fs.OpCount(), seq: ts.Seq()})
			snap(ts.Seq())
		}
		if (round+1)%cfg.snapEvery == 0 {
			seq, err := ts.Snapshot(eng)
			if err != nil {
				t.Fatalf("round %d: Snapshot: %v", round, err)
			}
			st := fingerprints[seq]
			t.Logf("snapshot after round %d (seq %d): rows cover %v, %d captured rows, refresh counter %d",
				round, seq, st.RowsCover, capturedRows(st), st.ResidualRuns)
			if want, ok := cfg.coverAt[round]; ok && (st.RowsCover != want || (capturedRows(st) > 0) != want) {
				t.Fatalf("round %d: snapshot rows cover %v with %d rows, want cover %v", round, st.RowsCover, capturedRows(st), want)
			}
		}
	}
	finalSeq := ts.Seq()
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}

	images := fs.Images()
	recoveries := 0
	for i, img := range images {
		modes := []TailMode{TailNone}
		if img.HasTail() {
			modes = TailModes
		}
		for _, mode := range modes {
			rng := rand.New(rand.NewSource(seed + int64(i)*1009 + int64(mode)))
			view := img.View(mode, rng)
			recoverAndCheck(t, view, img.Op(), mode, acks, fingerprints, restore, fresh)
			recoveries++
		}
	}
	t.Logf("%d rounds, final seq %d, %d crash images, %d recoveries (all bit-identical)",
		cfg.rounds, finalSeq, len(images), recoveries)
}

// recoverAndCheck recovers one crash view and asserts durability and
// bit-identity with the survivor fingerprint at the recovered seq, plus
// recovery idempotence (a second recovery lands on the same state).
func recoverAndCheck(t *testing.T, view *MemFS, op int, mode TailMode,
	acks []ackPoint, fingerprints map[uint64]*sizelos.EngineState,
	restore func(*sizelos.EngineState) (*sizelos.Engine, error),
	fresh func() (*sizelos.Engine, error),
) {
	t.Helper()
	store, err := Open(view, Options{})
	if err != nil {
		t.Fatalf("op %d tail=%v: open store: %v", op, mode, err)
	}
	ts := store.Tenant("t")
	eng, info, err := ts.Recover(restore, fresh)
	if err != nil {
		t.Fatalf("op %d tail=%v: recover: %v", op, mode, err)
	}
	if floor := ackedAt(acks, op); info.Seq < floor {
		t.Fatalf("op %d tail=%v: durability violated: recovered seq %d < acked seq %d",
			op, mode, info.Seq, floor)
	}
	want, ok := fingerprints[info.Seq]
	if !ok {
		t.Fatalf("op %d tail=%v: recovered to unknown seq %d", op, mode, info.Seq)
	}
	st, seq, err := eng.ExportState()
	if err != nil {
		t.Fatalf("op %d tail=%v: export: %v", op, mode, err)
	}
	if seq != info.Seq {
		t.Fatalf("op %d tail=%v: export seq %d vs recovery seq %d", op, mode, seq, info.Seq)
	}
	tag := "op " + strconv.Itoa(op) + " tail=" + mode.String() + " seq " + strconv.FormatUint(info.Seq, 10)
	assertStatesIdentical(t, tag, want, st)
	if err := ts.Close(); err != nil {
		t.Fatalf("%s: close: %v", tag, err)
	}

	// Recovery is idempotent: recovering the (now truncated/repaired) view
	// again lands on the identical state at the identical seq.
	if op%10 == 0 {
		ts2 := store.Tenant("t")
		eng2, info2, err := ts2.Recover(restore, fresh)
		if err != nil {
			t.Fatalf("%s: second recover: %v", tag, err)
		}
		if info2.Seq != info.Seq {
			t.Fatalf("%s: second recover seq %d", tag, info2.Seq)
		}
		st2, _, err := eng2.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		assertStatesIdentical(t, tag+" (idempotence)", want, st2)
		if err := ts2.Close(); err != nil {
			t.Fatal(err)
		}

		// And the recovered engine actually serves.
		serve := func(rel string) error {
			_, _, _, err := eng.QueryPage(sizelos.QueryRequest{Rel: rel, Query: "synthetic", L: 3})
			return err
		}
		if err := serve("Author"); err != nil {
			if err2 := serve("Customer"); err2 != nil {
				t.Fatalf("%s: recovered engine cannot serve: %v / %v", tag, err, err2)
			}
		}
	}
}

// TestCrashRestartEquivalenceDBLP proves crash-recovery ≡ in-memory over
// the DBLP-shaped database at every injected crash point.
func TestCrashRestartEquivalenceDBLP(t *testing.T) {
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 40
	cfg.Papers = 130
	cfg.Conferences = 4
	cfg.YearSpan = 3
	fresh := func() (*sizelos.Engine, error) { return sizelos.OpenDBLP(cfg) }
	// Re-ranks at rounds 4, 9, 14, …: the snapshots after rounds 6 and 20
	// hold the rows of the batches since, the one after round 13 follows
	// the compaction at round 10, whose rows no longer cover.
	runCrashHarness(t, crashConfig{
		rounds:    30,
		snapEvery: 7,
		compactAt: map[int]bool{10: true, 23: true},
		rerankMod: 5,
		coverAt:   map[int]bool{6: true, 13: false, 20: true},
	}, fresh, sizelos.RestoreDBLP)
}

// TestCrashRestartEquivalenceTPCH runs the same proof over the TPC-H-shaped
// database, covering value-weighted (ValueRank) plan recompilation across
// recovery.
func TestCrashRestartEquivalenceTPCH(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: DBLP variant covers the protocol; TPC-H adds schema coverage")
	}
	cfg := datagen.DefaultTPCHConfig()
	cfg.ScaleFactor = 0.0015
	fresh := func() (*sizelos.Engine, error) { return sizelos.OpenTPCH(cfg) }
	runCrashHarness(t, crashConfig{
		rounds:     18,
		snapEvery:  6,
		compactAt:  map[int]bool{8: true, 14: true},
		rerankMod:  5,
		seedOffset: 1,
	}, fresh, sizelos.RestoreTPCH)
}

// attachTinyDBLP opens a store over fs and recovers tenant "t" on a tiny
// DBLP engine, leaving the store attached.
func attachTinyDBLP(t *testing.T, fs *MemFS) (*TenantStore, *sizelos.Engine) {
	t.Helper()
	store, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 20
	cfg.Papers = 60
	cfg.Conferences = 3
	cfg.YearSpan = 2
	ts := store.Tenant("t")
	eng, _, err := ts.Recover(sizelos.RestoreDBLP, func() (*sizelos.Engine, error) { return sizelos.OpenDBLP(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	return ts, eng
}

// insertAuthor is a one-tuple batch that always commits on DBLP.
func insertAuthor(pk int64) sizelos.MutationBatch {
	return sizelos.MutationBatch{Inserts: []sizelos.TupleInsert{{
		Rel:   "Author",
		Tuple: relational.Tuple{relational.IntVal(pk), relational.StrVal("synthetic")},
	}}}
}

// snapshotCount is how many snapshot files ts's directory holds.
func snapshotCount(t *testing.T, fs FS, ts *TenantStore) int {
	t.Helper()
	snaps, err := seqFiles(fs, ts.dir, snapPrefix, snapSuffix)
	if err != nil {
		t.Fatal(err)
	}
	return len(snaps)
}

// TestCrashDetachedStoreWritesNoSnapshot: a TenantStore before Recover or
// after Close is detached, and its directory may already belong to the
// tenant's next owner (a snapshot tick racing a release). Snapshot must
// refuse there and write or prune nothing.
func TestCrashDetachedStoreWritesNoSnapshot(t *testing.T) {
	fs := NewMemFS()
	ts, eng := attachTinyDBLP(t, fs)
	store, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Tenant("t").Snapshot(eng); err == nil {
		t.Fatal("snapshot before Recover succeeded")
	}
	if _, err := eng.Mutate(insertAuthor(90001)); err != nil {
		t.Fatal(err)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Snapshot(eng); err == nil {
		t.Fatal("snapshot after Close succeeded")
	}
	if n := snapshotCount(t, fs, ts); n != 0 {
		t.Fatalf("detached store left %d snapshot files", n)
	}
}

// TestCrashPoisonedWALRefusesSnapshot: once an append's write fails, the
// engine holds a batch the log never got, so the WAL is poisoned — and a
// snapshot, which would claim that batch as logged, must refuse, even
// after the fault clears. The engine refuses every later batch before it
// reaches the store: reads never serve a write a restart would lose.
func TestCrashPoisonedWALRefusesSnapshot(t *testing.T) {
	fs := NewMemFS()
	ts, eng := attachTinyDBLP(t, fs)
	if _, err := eng.Mutate(insertAuthor(90001)); err != nil {
		t.Fatal(err)
	}
	fs.SetCrashAt(fs.OpCount())
	if _, err := eng.Mutate(insertAuthor(90002)); !errors.Is(err, sizelos.ErrMutationInternal) {
		t.Fatalf("mutate with a failing append: %v, want ErrMutationInternal", err)
	}
	fs.SetCrashAt(-1)
	if _, err := ts.Snapshot(eng); err == nil {
		t.Fatal("snapshot of a poisoned WAL succeeded")
	}
	if n := snapshotCount(t, fs, ts); n != 0 {
		t.Fatalf("poisoned WAL left %d snapshot files", n)
	}
	before, _, err := eng.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Mutate(insertAuthor(90003)); !errors.Is(err, sizelos.ErrMutationInternal) {
		t.Fatalf("mutate after the poisoning append: %v, want ErrMutationInternal", err)
	}
	if _, live := eng.DB().Relation("Author").LookupPK(90003); live {
		t.Fatal("a batch refused after the poisoning append is served")
	}
	if _, err := eng.CompactNow(); !errors.Is(err, sizelos.ErrMutationInternal) {
		t.Fatalf("compact after the poisoning append: %v, want ErrMutationInternal", err)
	}
	after, _, err := eng.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	assertStatesIdentical(t, "refused batch", before, after)
}

// TestCrashDuringRecoveryTruncation injects crashes into the RECOVERY
// path itself: a recovery that dies while truncating a torn tail or
// creating a fresh segment must leave a state the next recovery handles.
func TestCrashDuringRecoveryTruncation(t *testing.T) {
	fs := NewMemFS()
	w, _, err := openWAL(fs, "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.AppendMutation(testBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.SyncDir("t"); err != nil {
		t.Fatal(err)
	}
	seg := w.segName
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Append(path.Join("t", seg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // even a DURABLE torn tail must heal
		t.Fatal(err)
	}

	// Crash the truncation op itself, then verify the follow-up recovery.
	ops := fs.OpCount()
	fs.SetCrashAt(ops)
	if _, _, err := openWAL(fs, "t", 0); err == nil {
		t.Fatal("expected the injected crash to surface")
	}
	fs.SetCrashAt(-1)
	_, recs, err := openWAL(fs, "t", 0)
	if err != nil || len(recs) != 3 {
		t.Fatalf("recovery after crashed recovery: %d recs, %v", len(recs), err)
	}
}
