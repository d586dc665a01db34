package durable

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"math/rand"
	"path"
	"strings"
	"testing"

	"sizelos"
	"sizelos/internal/datagen"
	"sizelos/internal/mutgen"
	"sizelos/internal/relational"
)

// --- MemFS semantics -------------------------------------------------------

// lastImage runs fn over a recording MemFS and returns the final crash
// image — the disk state a crash immediately after fn would leave.
func lastImage(t *testing.T, fn func(m *MemFS)) *Image {
	t.Helper()
	m := NewMemFS()
	m.StartRecording()
	fn(m)
	imgs := m.Images()
	return imgs[len(imgs)-1]
}

func writeFile(t *testing.T, m *MemFS, name string, data []byte, sync bool) {
	t.Helper()
	f, err := m.Create(name)
	if err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatalf("write %s: %v", name, err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			t.Fatalf("sync %s: %v", name, err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close %s: %v", name, err)
	}
}

func TestMemFSNameDurabilityNeedsSyncDir(t *testing.T) {
	img := lastImage(t, func(m *MemFS) {
		writeFile(t, m, "d/a", []byte("hello"), true)
		// No SyncDir: the content is fsynced but the NAME is not durable.
	})
	view := img.View(TailNone, nil)
	if _, err := view.ReadFile("d/a"); !isNotExist(err) {
		t.Fatalf("unsynced name survived the crash: err=%v", err)
	}

	img = lastImage(t, func(m *MemFS) {
		writeFile(t, m, "d/a", []byte("hello"), true)
		if err := m.SyncDir("d"); err != nil {
			t.Fatal(err)
		}
	})
	got, err := img.View(TailNone, nil).ReadFile("d/a")
	if err != nil || string(got) != "hello" {
		t.Fatalf("synced name+content lost: %q, %v", got, err)
	}
}

func TestMemFSTailModes(t *testing.T) {
	img := lastImage(t, func(m *MemFS) {
		f, _ := m.Create("d/a")
		if _, err := f.Write([]byte("durable!")); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := m.SyncDir("d"); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("tail")); err != nil { // never synced
			t.Fatal(err)
		}
	})
	if !img.HasTail() {
		t.Fatal("expected an unsynced tail")
	}
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		mode TailMode
		want string
	}{
		{TailNone, "durable!"},
		{TailHalf, "durable!ta"},
		{TailFull, "durable!tail"},
	}
	for _, c := range cases {
		got, err := img.View(c.mode, rng).ReadFile("d/a")
		if err != nil || string(got) != c.want {
			t.Fatalf("%v: got %q (%v), want %q", c.mode, got, err, c.want)
		}
	}
	got, err := img.View(TailCorrupt, rng).ReadFile("d/a")
	if err != nil || len(got) != len("durable!tail") {
		t.Fatalf("corrupt view: %q, %v", got, err)
	}
	if string(got[:8]) != "durable!" {
		t.Fatalf("corruption touched the durable prefix: %q", got)
	}
	if string(got[8:]) == "tail" {
		t.Fatalf("corrupt view flipped no bit in the tail")
	}
}

func TestMemFSRemoveNeedsSyncDir(t *testing.T) {
	img := lastImage(t, func(m *MemFS) {
		writeFile(t, m, "d/a", []byte("x"), true)
		if err := m.SyncDir("d"); err != nil {
			t.Fatal(err)
		}
		if err := m.Remove("d/a"); err != nil {
			t.Fatal(err)
		}
		// No SyncDir: the removal is not durable; the name resurrects.
	})
	if _, err := img.View(TailNone, nil).ReadFile("d/a"); err != nil {
		t.Fatalf("unsynced removal lost the file: %v", err)
	}
	img = lastImage(t, func(m *MemFS) {
		writeFile(t, m, "d/a", []byte("x"), true)
		if err := m.SyncDir("d"); err != nil {
			t.Fatal(err)
		}
		if err := m.Remove("d/a"); err != nil {
			t.Fatal(err)
		}
		if err := m.SyncDir("d"); err != nil {
			t.Fatal(err)
		}
	})
	if _, err := img.View(TailNone, nil).ReadFile("d/a"); !isNotExist(err) {
		t.Fatalf("synced removal did not stick: %v", err)
	}
}

func TestMemFSCrashInjection(t *testing.T) {
	m := NewMemFS()
	writeFile(t, m, "d/a", []byte("x"), false)
	ops := m.OpCount()
	m.SetCrashAt(ops)
	if _, err := m.Create("d/b"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("create after crash point: %v", err)
	}
	if err := m.SyncDir("d"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("syncdir after crash point: %v", err)
	}
	// Reads are not crash points: the model kills writes, not the harness.
	if _, err := m.ReadFile("d/a"); err != nil {
		t.Fatalf("read after crash: %v", err)
	}
}

// --- WAL -------------------------------------------------------------------

func testBatch(i int) sizelos.MutationBatch {
	return sizelos.MutationBatch{
		Deletes: []sizelos.TupleDelete{{Rel: "Paper", PK: int64(100 + i)}},
		Inserts: []sizelos.TupleInsert{{
			Rel:   "Author",
			Tuple: relational.Tuple{relational.IntVal(int64(i)), relational.StrVal("synthetic")},
		}},
		Rerank: i%2 == 0,
	}
}

func TestWALRoundTrip(t *testing.T) {
	fs := NewMemFS()
	w, recs, err := openWAL(fs, "t", 0)
	if err != nil {
		t.Fatalf("open fresh: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh wal has %d records", len(recs))
	}
	for i := 0; i < 5; i++ {
		if err := w.AppendMutation(testBatch(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := w.AppendCompact(); err != nil {
		t.Fatal(err)
	}
	if w.Seq() != 6 {
		t.Fatalf("seq %d, want 6", w.Seq())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, recs, err = openWAL(fs, "t", 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(recs) != 6 {
		t.Fatalf("replayed %d records, want 6", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
	}
	if recs[5].Kind != recCompact {
		t.Fatalf("last record kind %d, want compact", recs[5].Kind)
	}
	b := recs[2].batch()
	want := testBatch(2)
	if len(b.Deletes) != 1 || b.Deletes[0] != want.Deletes[0] || b.Rerank != want.Rerank {
		t.Fatalf("record 3 round-trip mismatch: %+v", b)
	}
	if len(b.Inserts) != 1 || b.Inserts[0].Rel != "Author" || !b.Inserts[0].Tuple[0].Equal(relational.IntVal(2)) {
		t.Fatalf("record 3 insert mismatch: %+v", b.Inserts)
	}

	// afterSeq skips the covered prefix but resumes numbering at the end.
	w3, recs, err := openWAL(fs, "t", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Seq != 5 {
		t.Fatalf("afterSeq=4 replay: %d records, first seq %d", len(recs), recs[0].Seq)
	}
	if w3.Seq() != 6 {
		t.Fatalf("resumed seq %d, want 6", w3.Seq())
	}
}

func TestWALTornTailTruncated(t *testing.T) {
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
	seg := w.segName
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn final record: garbage bytes after the valid frames.
	f, err := fs.Append(path.Join("t", seg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	before, _ := fs.ReadFile(path.Join("t", seg))

	w, recs, err := openWAL(fs, "t", 0)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	after, _ := fs.ReadFile(path.Join("t", seg))
	if len(after) != len(before)-3 {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", len(before), len(after))
	}
	// Appending after truncation yields a clean contiguous log.
	if err := w.AppendMutation(testBatch(9)); err != nil {
		t.Fatal(err)
	}
	_, recs, err = openWAL(fs, "t", 0)
	if err != nil || len(recs) != 4 || recs[3].Seq != 4 {
		t.Fatalf("post-truncation append: %d records, err %v", len(recs), err)
	}
}

func TestWALCorruptionBeforeTailRefused(t *testing.T) {
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
	firstSeg := w.segName
	if err := w.rotate(0); err != nil { // rotate without pruning anything
		t.Fatal(err)
	}
	if err := w.AppendMutation(testBatch(3)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the FIRST (non-last) segment.
	data, err := fs.ReadFile(path.Join("t", firstSeg))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	writeFile(t, fs, path.Join("t", firstSeg), data, true)

	if _, _, err := openWAL(fs, "t", 0); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("mid-history corruption accepted: %v", err)
	}
}

func TestWALRotatePrunesCoveredSegments(t *testing.T) {
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
	if err := w.rotate(3); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 5; i++ {
		if err := w.AppendMutation(testBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.rotate(5); err != nil {
		t.Fatal(err)
	}
	segs, err := seqFiles(fs, "t", walPrefix, walSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].seq != 6 {
		t.Fatalf("after two covering rotations: %+v", segs)
	}
	// A snapshot-covered, empty log reopens at the right seq.
	w2, recs, err := openWAL(fs, "t", 5)
	if err != nil || len(recs) != 0 || w2.Seq() != 5 {
		t.Fatalf("reopen pruned log: %d recs, seq %d, err %v", len(recs), w2.Seq(), err)
	}
	if err := w2.AppendMutation(testBatch(6)); err != nil {
		t.Fatal(err)
	}
	if w2.Seq() != 6 {
		t.Fatalf("append to pruned log: seq %d", w2.Seq())
	}
}

func TestWALRotateKeepsUncoveredSegments(t *testing.T) {
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
	if err := w.rotate(2); err != nil { // record 3 NOT covered
		t.Fatal(err)
	}
	segs, err := seqFiles(fs, "t", walPrefix, walSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("uncovered segment pruned: %+v", segs)
	}
	_, recs, err := openWAL(fs, "t", 2)
	if err != nil || len(recs) != 1 || recs[0].Seq != 3 {
		t.Fatalf("uncovered record lost: %d recs, err %v", len(recs), err)
	}
}

func TestWALRefusesReplayGapAfterPrune(t *testing.T) {
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
	if err := w.rotate(0); err != nil { // retire the segment, prune nothing
		t.Fatal(err)
	}
	for i := 3; i < 5; i++ {
		if err := w.AppendMutation(testBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.rotate(3); err != nil { // prunes records 1..3
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Replay from a snapshot covering the pruned prefix works...
	_, recs, err := openWAL(fs, "t", 3)
	if err != nil || len(recs) != 2 || recs[0].Seq != 4 {
		t.Fatalf("replay after covered prefix: %d recs, err %v", len(recs), err)
	}
	// ...but replay from BELOW the pruned-through seq must refuse: records
	// 1..3 are gone, so continuing would silently drop committed batches.
	if _, _, err := openWAL(fs, "t", 0); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("replay gap accepted: %v", err)
	}
	if _, _, err := openWAL(fs, "t", 2); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("partial replay gap accepted: %v", err)
	}
}

func TestWALRecordSizeCap(t *testing.T) {
	fs := NewMemFS()
	w, _, err := openWAL(fs, "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	huge := sizelos.MutationBatch{Inserts: []sizelos.TupleInsert{{
		Rel:   "Author",
		Tuple: relational.Tuple{relational.StrVal(strings.Repeat("x", maxRecordSize+1))},
	}}}
	if err := w.AppendMutation(huge); err == nil {
		t.Fatal("oversized record accepted")
	}
	// The cap rejection must not poison the log.
	if err := w.AppendMutation(testBatch(0)); err != nil {
		t.Fatalf("append after cap rejection: %v", err)
	}
}

// --- Snapshots -------------------------------------------------------------

func testState(tag byte) *sizelos.EngineState {
	return &sizelos.EngineState{
		DB:        []byte{tag, 1, 2, 3},
		RawScores: map[string]relational.DBScores{"g1d1": {"Author": {1.5, 2.5}}},
		Epochs:    map[string]uint64{"Author": 7},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	fs := NewMemFS()
	if err := writeSnapshot(fs, "t", 12, testState(1)); err != nil {
		t.Fatal(err)
	}
	st, seq, err := loadNewestSnapshot(fs, "t")
	if err != nil || st == nil {
		t.Fatalf("load: %v (st=%v)", err, st)
	}
	if seq != 12 || st.DB[0] != 1 || st.Epochs["Author"] != 7 {
		t.Fatalf("round-trip mismatch: seq %d, %+v", seq, st)
	}
	if got := st.RawScores["g1d1"]["Author"][1]; got != 2.5 {
		t.Fatalf("raw score %v", got)
	}
}

func TestSnapshotNewestWinsAndFallback(t *testing.T) {
	fs := NewMemFS()
	if err := writeSnapshot(fs, "t", 5, testState(5)); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(fs, "t", 9, testState(9)); err != nil {
		t.Fatal(err)
	}
	st, seq, err := loadNewestSnapshot(fs, "t")
	if err != nil || seq != 9 || st.DB[0] != 9 {
		t.Fatalf("newest not preferred: seq %d, err %v", seq, err)
	}
	// Corrupt the newest: recovery falls back to the older snapshot.
	name := path.Join("t", snapshotName(9))
	data, _ := fs.ReadFile(name)
	data[len(data)/2] ^= 0x01
	writeFile(t, fs, name, data, true)
	st, seq, err = loadNewestSnapshot(fs, "t")
	if err != nil || seq != 5 || st.DB[0] != 5 {
		t.Fatalf("fallback failed: seq %d, err %v", seq, err)
	}
	// Corrupt both: no snapshot, no error — full-replay recovery.
	name = path.Join("t", snapshotName(5))
	data, _ = fs.ReadFile(name)
	data[0] ^= 0xff
	writeFile(t, fs, name, data, true)
	st, seq, err = loadNewestSnapshot(fs, "t")
	if err != nil || st != nil || seq != 0 {
		t.Fatalf("all-corrupt case: st=%v seq=%d err=%v", st, seq, err)
	}
}

func TestSnapshotPrune(t *testing.T) {
	fs := NewMemFS()
	for _, seq := range []uint64{3, 6, 9, 12} {
		if err := writeSnapshot(fs, "t", seq, testState(byte(seq))); err != nil {
			t.Fatal(err)
		}
	}
	kept, err := pruneSnapshots(fs, "t", 2)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := seqFiles(fs, "t", snapPrefix, snapSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 || snaps[0].seq != 9 || snaps[1].seq != 12 {
		t.Fatalf("prune kept %+v", snaps)
	}
	if len(kept) != 2 || kept[0] != snaps[0] || kept[1] != snaps[1] {
		t.Fatalf("prune reported %+v, directory holds %+v", kept, snaps)
	}
}

// failReadFS wraps an FS and fails ReadFile for one path with a chosen
// error — a transient I/O fault, not missing or damaged data.
type failReadFS struct {
	FS
	fail string
	err  error
}

func (f *failReadFS) ReadFile(name string) ([]byte, error) {
	if name == f.fail {
		return nil, f.err
	}
	return f.FS.ReadFile(name)
}

func TestLoadSnapshotReadErrorPropagates(t *testing.T) {
	fs := NewMemFS()
	if err := writeSnapshot(fs, "t", 5, testState(5)); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(fs, "t", 9, testState(9)); err != nil {
		t.Fatal(err)
	}
	// A transient I/O error on the newest snapshot must abort recovery, not
	// silently degrade to the older snapshot (whose covering WAL segments
	// may be pruned).
	newest := path.Join("t", snapshotName(9))
	ffs := &failReadFS{FS: fs, fail: newest, err: errors.New("injected I/O error")}
	if _, _, err := loadNewestSnapshot(ffs, "t"); err == nil || !strings.Contains(err.Error(), "injected I/O error") {
		t.Fatalf("transient read error swallowed: %v", err)
	}
	// A snapshot that vanished between listing and read (concurrent prune)
	// is not damage: fall back to the next-newest.
	gone := &failReadFS{FS: fs, fail: newest, err: fmt.Errorf("gone: %w", iofs.ErrNotExist)}
	st, seq, err := loadNewestSnapshot(gone, "t")
	if err != nil || seq != 5 || st.DB[0] != 5 {
		t.Fatalf("missing-file fallback: seq %d, err %v", seq, err)
	}
}

// TestStoreSnapshotFallbackAfterPruning is the store-level regression for
// WAL pruning outrunning snapshot retention: with KeepSnapshots=2, recovery
// falling back from a damaged newest snapshot to the older retained one
// must still replay to the exact final state — the records between the two
// snapshots have to survive rotation. With every retained snapshot damaged,
// recovery must REFUSE (ErrWALCorrupt) rather than silently rebuild a state
// missing the pruned records.
func TestStoreSnapshotFallbackAfterPruning(t *testing.T) {
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 20
	cfg.Papers = 60
	cfg.Conferences = 3
	cfg.YearSpan = 2
	fresh := func() (*sizelos.Engine, error) { return sizelos.OpenDBLP(cfg) }
	restore := sizelos.RestoreDBLP

	fs := NewMemFS()
	store, err := Open(fs, Options{KeepSnapshots: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := store.Tenant("t")
	eng, _, err := ts.Recover(restore, fresh)
	if err != nil {
		t.Fatal(err)
	}
	gen := mutgen.New(eng.DB(), 7)
	var snapSeqs []uint64
	for round := 0; round < 9; round++ {
		if _, err := eng.Mutate(toBatch(gen.NextBatch())); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if (round+1)%3 == 0 { // snapshots after seqs 3, 6, 9
			seq, err := ts.Snapshot(eng)
			if err != nil {
				t.Fatalf("round %d: snapshot: %v", round, err)
			}
			snapSeqs = append(snapSeqs, seq)
		}
	}
	want, finalSeq, err := eng.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	if len(snapSeqs) != 3 {
		t.Fatalf("took %d snapshots", len(snapSeqs))
	}
	// Retention pruned the first snapshot; the newer two remain.
	snaps, err := seqFiles(fs, ts.dir, snapPrefix, snapSuffix)
	if err != nil || len(snaps) != 2 {
		t.Fatalf("retained snapshots: %+v, %v", snaps, err)
	}

	damage := func(seq uint64) {
		name := path.Join(ts.dir, snapshotName(seq))
		data, err := fs.ReadFile(name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		data[len(data)/2] ^= 0x40
		writeFile(t, fs, name, data, true)
	}

	// Newest snapshot damaged: recovery falls back to the older retained
	// snapshot and replays the surviving WAL records to the identical state.
	damage(snapSeqs[2])
	ts2 := store.Tenant("t")
	eng2, info, err := ts2.Recover(restore, fresh)
	if err != nil {
		t.Fatalf("fallback recovery: %v", err)
	}
	if info.SnapshotSeq != snapSeqs[1] || info.Seq != finalSeq {
		t.Fatalf("fallback recovered snapshot %d seq %d, want snapshot %d seq %d",
			info.SnapshotSeq, info.Seq, snapSeqs[1], finalSeq)
	}
	got, gotSeq, err := eng2.ExportState()
	if err != nil || gotSeq != finalSeq {
		t.Fatalf("export: seq %d, err %v", gotSeq, err)
	}
	assertStatesIdentical(t, "fallback", want, got)
	if err := ts2.Close(); err != nil {
		t.Fatal(err)
	}

	// Every retained snapshot damaged: the WAL prefix those snapshots
	// covered is pruned, so a from-scratch rebuild cannot reach the
	// committed state — recovery must refuse, loudly.
	damage(snapSeqs[1])
	ts3 := store.Tenant("t")
	if _, _, err := ts3.Recover(restore, fresh); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("all-snapshots-damaged recovery did not refuse: %v", err)
	}
}

// --- Manifest --------------------------------------------------------------

func TestManifestRoundTrip(t *testing.T) {
	fs := NewMemFS()
	s, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	specs, err := s.LoadManifest()
	if err != nil || len(specs) != 0 {
		t.Fatalf("fresh manifest: %v, %v", specs, err)
	}
	if err := s.RecordTenant(TenantSpec{Name: "b", Dataset: "dblp", Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordTenant(TenantSpec{Name: "a", Dataset: "tpch", Seed: 1, Cache: 64}); err != nil {
		t.Fatal(err)
	}
	// Upsert: re-recording replaces, not duplicates.
	if err := s.RecordTenant(TenantSpec{Name: "b", Dataset: "dblp", Seed: 5}); err != nil {
		t.Fatal(err)
	}
	specs, err = s.LoadManifest()
	if err != nil || len(specs) != 2 {
		t.Fatalf("manifest: %+v, %v", specs, err)
	}
	if specs[0].Name != "a" || specs[1].Name != "b" || specs[1].Seed != 5 || specs[0].Cache != 64 {
		t.Fatalf("manifest content: %+v", specs)
	}
	if err := s.ForgetTenant("b"); err != nil {
		t.Fatal(err)
	}
	specs, _ = s.LoadManifest()
	if len(specs) != 1 || specs[0].Name != "a" {
		t.Fatalf("after forget: %+v", specs)
	}
	// The manifest write is crash-atomic: durable view matches.
	m := fs
	img := func() *Image {
		m.StartRecording()
		imgs := m.Images()
		return imgs[len(imgs)-1]
	}()
	s2, err := Open(img.View(TailNone, nil), Options{})
	if err != nil {
		t.Fatal(err)
	}
	specs, err = s2.LoadManifest()
	if err != nil || len(specs) != 1 || specs[0].Name != "a" {
		t.Fatalf("recovered manifest: %+v, %v", specs, err)
	}
}
