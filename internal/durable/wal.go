package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"path"
	"sync"

	"sizelos"
	"sizelos/internal/relational"
)

// WAL file layout: a tenant directory holds segments named
// wal-<startseq %016x>.log, where startseq is the sequence number of the
// segment's first record. Each record is framed as
//
//	[4B little-endian payload length][4B little-endian CRC32(payload)][payload]
//
// with the payload a gob-encoded Record. Sequence numbers are contiguous
// across segments, starting at 1; a snapshot at seq S lets every segment
// whose records are all <= S be deleted (rotation does exactly that).
const (
	walPrefix = "wal-"
	walSuffix = ".log"
	frameHdr  = 8
	// maxRecordSize bounds one payload: far above any real batch, low
	// enough that a corrupted length field can't become an allocation bomb
	// during replay.
	maxRecordSize = 16 << 20
)

// recordKind discriminates WAL record types.
type recordKind uint8

const (
	// recMutation is one committed Engine.Mutate batch.
	recMutation recordKind = 1
	// recCompact is an explicit Engine.CompactNow call: it changes physical
	// TupleIDs outside any batch, so replay must repeat it at the same spot.
	recCompact recordKind = 2
)

// Record is one WAL entry: a committed mutation batch (or explicit
// compaction) with its sequence number. Its operations are the engine
// batch's own (sizelos.TupleInsert is relational.InsertOp), so a batch is
// logged and replayed without conversion.
type Record struct {
	Seq     uint64
	Kind    recordKind
	Deletes []relational.DeleteOp
	Inserts []relational.InsertOp
	Rerank  bool
}

// batch is a mutation record as the engine's batch, for replay.
func (r Record) batch() sizelos.MutationBatch {
	return sizelos.MutationBatch{Deletes: r.Deletes, Inserts: r.Inserts, Rerank: r.Rerank}
}

// encodeRecord frames one record for appending.
func encodeRecord(rec Record) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&rec); err != nil {
		return nil, fmt.Errorf("durable: encode record %d: %w", rec.Seq, err)
	}
	if payload.Len() > maxRecordSize {
		return nil, fmt.Errorf("durable: record %d is %d bytes (max %d)", rec.Seq, payload.Len(), maxRecordSize)
	}
	frame := make([]byte, frameHdr+payload.Len())
	binary.LittleEndian.PutUint32(frame[0:], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload.Bytes()))
	copy(frame[frameHdr:], payload.Bytes())
	return frame, nil
}

// segScan is the result of decoding one segment: the valid record prefix,
// the byte offset just past it, and whether trailing bytes were rejected
// (torn or corrupt tail).
type segScan struct {
	records  []Record
	validLen int64
	torn     bool
}

// scanSegment decodes a segment's valid record prefix. Any framing
// violation — short header, impossible length, CRC mismatch, undecodable
// payload — ends the scan cleanly at the last whole record; it never
// panics and never returns a partially-decoded record.
func scanSegment(data []byte) segScan {
	var s segScan
	off := 0
	for {
		if len(data)-off < frameHdr {
			s.torn = off < len(data)
			break
		}
		n := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n == 0 || n > maxRecordSize || off+frameHdr+int(n) > len(data) {
			s.torn = true
			break
		}
		payload := data[off+frameHdr : off+frameHdr+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			s.torn = true
			break
		}
		var rec Record
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
			s.torn = true
			break
		}
		s.records = append(s.records, rec)
		off += frameHdr + int(n)
	}
	s.validLen = int64(off)
	return s
}

func segmentName(start uint64) string {
	return fmt.Sprintf("%s%016x%s", walPrefix, start, walSuffix)
}

// ErrWALCorrupt reports corruption that is not a clean crash tail: a gap or
// rejected frame in the middle of the log history, after which replaying
// further records would silently skip committed batches. Recovery refuses
// rather than serving a state missing acknowledged writes.
var ErrWALCorrupt = errors.New("durable: wal corrupt before its tail")

// errWALClosed is returned by appends after Close.
var errWALClosed = errors.New("durable: wal closed")

// WAL is one tenant's mutation log, open for appending. It implements
// sizelos.MutationLog; Engine.Mutate appends under the engine write lock,
// so records land in commit order.
type WAL struct {
	fs  FS
	dir string

	mu       sync.Mutex
	f        File
	segName  string
	segStart uint64 // seq the active segment's first record has (or will have)
	seq      uint64 // last appended seq
	err      error  // sticky write/sync failure; appends refuse afterwards
	closed   bool
}

// openWAL scans dir's segments, validates the record chain, truncates a
// torn tail, and returns the WAL positioned for appending plus every valid
// record with Seq > afterSeq (the snapshot-covered prefix is skipped).
//
// A torn or corrupt tail in the NEWEST segment is the expected signature of
// a crash: replay stops cleanly at the last whole record and the tail is
// truncated away. The same damage in an older segment — or a sequence gap —
// is ErrWALCorrupt: continuing would silently drop committed batches.
func openWAL(fsys FS, dir string, afterSeq uint64) (*WAL, []Record, error) {
	segs, err := seqFiles(fsys, dir, walPrefix, walSuffix)
	if err != nil {
		return nil, nil, err
	}
	// Replay floor: the chain must be able to start at afterSeq+1. Rotation
	// prunes segments only through the OLDEST retained snapshot, so for any
	// snapshot recovery can legitimately fall back to, the earliest
	// surviving segment starts at or below afterSeq+1. A higher start means
	// records in (afterSeq, start) were pruned under a snapshot this
	// recovery is not using — refusing beats silently dropping them.
	if len(segs) > 0 && segs[0].seq > afterSeq+1 {
		return nil, nil, fmt.Errorf("%w: oldest segment %s starts at seq %d, but replay after seq %d needs seq %d (records pruned past the recovered snapshot)",
			ErrWALCorrupt, segs[0].name, segs[0].seq, afterSeq, afterSeq+1)
	}
	w := &WAL{fs: fsys, dir: dir, seq: afterSeq}
	var replay []Record
	last := uint64(0) // last seq seen across segments
	for i, seg := range segs {
		data, err := fsys.ReadFile(path.Join(dir, seg.name))
		if err != nil {
			return nil, nil, fmt.Errorf("durable: read segment %s: %w", seg.name, err)
		}
		scan := scanSegment(data)
		if scan.torn && i != len(segs)-1 {
			return nil, nil, fmt.Errorf("%w: segment %s has %d bytes of garbage before segment %s",
				ErrWALCorrupt, seg.name, int64(len(data))-scan.validLen, segs[i+1].name)
		}
		if i > 0 && len(scan.records) > 0 && seg.seq != last+1 {
			return nil, nil, fmt.Errorf("%w: segment %s starts at seq %d, want %d",
				ErrWALCorrupt, seg.name, seg.seq, last+1)
		}
		for _, rec := range scan.records {
			if last != 0 && rec.Seq != last+1 {
				return nil, nil, fmt.Errorf("%w: segment %s: record seq %d after %d",
					ErrWALCorrupt, seg.name, rec.Seq, last)
			}
			if last == 0 && rec.Seq != seg.seq {
				return nil, nil, fmt.Errorf("%w: segment %s: first record seq %d, want %d",
					ErrWALCorrupt, seg.name, rec.Seq, seg.seq)
			}
			last = rec.Seq
			if rec.Seq > afterSeq {
				replay = append(replay, rec)
			}
		}
		if i == len(segs)-1 {
			// Truncate a torn tail so future appends start at a clean frame
			// boundary. A failure here is fatal for appending but not for
			// the already-decoded replay.
			if scan.torn {
				if err := fsys.Truncate(path.Join(dir, seg.name), scan.validLen); err != nil {
					return nil, nil, fmt.Errorf("durable: truncate torn tail of %s: %w", seg.name, err)
				}
			}
			w.segName = seg.name
			w.segStart = seg.seq
		}
	}
	// Resume numbering past everything known: the newest surviving record OR
	// the snapshot's covered seq, whichever is higher. Rotation prunes the
	// segments a snapshot at seq S covers, which may leave no record at or
	// past S; resuming below S would mint duplicate seqs that a later
	// recovery would wrongly skip as snapshot-covered.
	if last > w.seq {
		w.seq = last
	}
	if w.segName == "" {
		// Fresh directory: create the first segment so appends have a home.
		w.segStart = w.seq + 1
		w.segName = segmentName(w.segStart)
		f, err := fsys.Create(path.Join(dir, w.segName))
		if err != nil {
			return nil, nil, fmt.Errorf("durable: create segment %s: %w", w.segName, err)
		}
		if err := f.Close(); err != nil {
			return nil, nil, fmt.Errorf("durable: create segment %s: %w", w.segName, err)
		}
		if err := fsys.SyncDir(dir); err != nil {
			return nil, nil, fmt.Errorf("durable: sync dir after segment create: %w", err)
		}
	}
	f, err := fsys.Append(path.Join(dir, w.segName))
	if err != nil {
		return nil, nil, fmt.Errorf("durable: open segment %s for append: %w", w.segName, err)
	}
	w.f = f
	return w, replay, nil
}

// append frames, writes and fsyncs one record, assigning its sequence
// number: the acknowledgement IS durability.
func (w *WAL) append(rec Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errWALClosed
	}
	if w.err != nil {
		return w.err
	}
	rec.Seq = w.seq + 1
	frame, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	if _, err := w.f.Write(frame); err != nil {
		// The segment tail is now undefined; poison the log so no later
		// append can write a frame after garbage.
		w.err = fmt.Errorf("durable: append record %d: %w", rec.Seq, err)
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("durable: sync record %d: %w", rec.Seq, err)
		return w.err
	}
	w.seq = rec.Seq
	return nil
}

// AppendMutation implements sizelos.MutationLog.
func (w *WAL) AppendMutation(b sizelos.MutationBatch) error {
	return w.append(Record{Kind: recMutation, Deletes: b.Deletes, Inserts: b.Inserts, Rerank: b.Rerank})
}

// AppendCompact implements sizelos.MutationLog.
func (w *WAL) AppendCompact() error { return w.append(Record{Kind: recCompact}) }

// Seq implements sizelos.MutationLog: the last appended sequence number.
func (w *WAL) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// failed returns the sticky write or fsync failure that poisoned the log,
// or nil while every append has been durable.
func (w *WAL) failed() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// rotate opens a fresh segment for future appends (unless the active one
// is still empty) and deletes every older segment fully covered by a
// snapshot at coveredSeq. Callers guarantee the snapshot is durable before
// calling — deletion is only safe then. A poisoned log refuses.
func (w *WAL) rotate(coveredSeq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errWALClosed
	}
	if w.err != nil {
		return w.err
	}
	if w.segStart <= w.seq {
		// The active segment has records; retire it. (An empty active
		// segment is already named for the next record — reuse it.)
		name := segmentName(w.seq + 1)
		f, err := w.fs.Create(path.Join(w.dir, name))
		if err != nil {
			return fmt.Errorf("durable: rotate to %s: %w", name, err)
		}
		if err := w.f.Close(); err != nil {
			_ = f.Close()
			return fmt.Errorf("durable: close retired segment: %w", err)
		}
		w.f, w.segName, w.segStart = f, name, w.seq+1
		if err := w.fs.SyncDir(w.dir); err != nil {
			return fmt.Errorf("durable: sync dir after rotate: %w", err)
		}
	}
	// Prune: segment i (sorted) holds seqs [start_i, start_{i+1}-1]; it may
	// go once start_{i+1}-1 <= coveredSeq. The active segment never goes.
	segs, err := seqFiles(w.fs, w.dir, walPrefix, walSuffix)
	if err != nil {
		return err
	}
	removed := false
	for i := 0; i+1 < len(segs); i++ {
		if segs[i].name == w.segName || segs[i+1].seq > coveredSeq+1 {
			continue
		}
		if err := w.fs.Remove(path.Join(w.dir, segs[i].name)); err != nil {
			return fmt.Errorf("durable: prune segment %s: %w", segs[i].name, err)
		}
		removed = true
	}
	if removed {
		if err := w.fs.SyncDir(w.dir); err != nil {
			return fmt.Errorf("durable: sync dir after prune: %w", err)
		}
	}
	return nil
}

// Close closes the log, reporting the failure that poisoned it if one did.
// Further appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	closeErr := w.f.Close()
	if w.err != nil {
		return w.err
	}
	if closeErr != nil {
		return fmt.Errorf("durable: close wal: %w", closeErr)
	}
	return nil
}
