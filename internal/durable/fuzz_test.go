package durable

// FuzzWALReplay feeds arbitrary bytes to the WAL recovery path as the
// newest segment of a tenant log. Whatever the damage — truncation
// anywhere, bit flips, wholesale garbage — recovery must never panic,
// never return a partially-decoded record, and always leave an appendable
// log: the CRC-framed scan stops cleanly at the last whole record, the
// torn tail is truncated away, and a fresh append lands at the next
// sequence number and survives a reopen.
//
// The seed corpus (testdata/fuzz/FuzzWALReplay, regenerable with
// SIZELOS_WRITE_CORPUS=1 via TestWriteFuzzCorpus) covers the interesting
// shapes: a fully valid log, tails truncated mid-header and mid-payload,
// a bit-flipped CRC, a bit-flipped payload, and a length field inflated
// toward the allocation cap.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sizelos"
)

// fuzzSeedSegment builds one real segment (three mutation batches and a
// compaction) through the production append path and returns its bytes.
func fuzzSeedSegment(tb testing.TB) []byte {
	tb.Helper()
	m := NewMemFS()
	if err := m.MkdirAll("seed"); err != nil {
		tb.Fatal(err)
	}
	wal, _, err := openWAL(m, "seed", 0)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := wal.AppendMutation(testBatch(i)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := wal.AppendCompact(); err != nil {
		tb.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := m.ReadFile("seed/" + segmentName(1))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// fuzzSeeds is the deterministic seed set derived from a valid segment.
func fuzzSeeds(tb testing.TB) [][]byte {
	valid := fuzzSeedSegment(tb)
	flipCRC := append([]byte(nil), valid...)
	flipCRC[len(flipCRC)-20] ^= 0x01 // inside the last record's payload
	flipHdr := append([]byte(nil), valid...)
	flipHdr[5] ^= 0x40 // first record's CRC field
	bigLen := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(bigLen[len(bigLen)-12:], maxRecordSize+1)
	return [][]byte{
		valid,
		valid[:len(valid)-3], // torn mid-payload
		valid[:frameHdr-2],   // torn mid-header
		flipCRC,
		flipHdr,
		bigLen,
		{},
		[]byte("not a wal segment at all"),
	}
}

func FuzzWALReplay(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewMemFS()
		if err := m.MkdirAll("t"); err != nil {
			t.Fatal(err)
		}
		writeFile(t, m, "t/"+segmentName(1), data, true)

		wal, recs, err := openWAL(m, "t", 0)
		if err != nil {
			// The only legal refusal is detected corruption; any other
			// failure class (or a panic) is a recovery bug.
			if !errors.Is(err, ErrWALCorrupt) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		// Whatever survived is an exact, contiguous committed prefix.
		for i, rec := range recs {
			if rec.Seq != uint64(i)+1 {
				t.Fatalf("replay record %d has seq %d", i, rec.Seq)
			}
			if rec.Kind == recMutation {
				_ = rec.batch() // lifting a decoded record never panics
			}
		}
		if got := wal.Seq(); got != uint64(len(recs)) {
			t.Fatalf("wal seq %d after %d replayed records", got, len(recs))
		}
		// The truncated log is live: a fresh append takes the next seq and
		// survives a reopen with the replayed prefix unchanged.
		if err := wal.AppendMutation(sizelos.MutationBatch{Rerank: true}); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := wal.Close(); err != nil {
			t.Fatal(err)
		}
		wal2, recs2, err := openWAL(m, "t", 0)
		if err != nil {
			t.Fatalf("reopen after truncate+append: %v", err)
		}
		defer func() {
			if err := wal2.Close(); err != nil {
				t.Fatal(err)
			}
		}()
		if len(recs2) != len(recs)+1 {
			t.Fatalf("reopen replayed %d records, want %d", len(recs2), len(recs)+1)
		}
		for i := range recs {
			if recs2[i].Seq != recs[i].Seq || recs2[i].Kind != recs[i].Kind {
				t.Fatalf("record %d changed across reopen", i)
			}
		}
		if last := recs2[len(recs2)-1]; last.Kind != recMutation || !last.Rerank {
			t.Fatalf("appended record came back wrong: %+v", last)
		}
	})
}

// TestWriteFuzzCorpus regenerates the committed seed corpus when run with
// SIZELOS_WRITE_CORPUS=1. The files mirror the f.Add seeds so the corpus
// is versioned and CI fuzz runs start from the interesting shapes even
// without executing the seed builder.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("SIZELOS_WRITE_CORPUS") == "" {
		t.Skip("set SIZELOS_WRITE_CORPUS=1 to regenerate testdata/fuzz/FuzzWALReplay")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWALReplay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range fuzzSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
