package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"path"

	"sizelos"
)

// Snapshot file layout: snap-<seq %016x>.snap holding
//
//	[8B magic "SZLSNAP1"][8B little-endian seq][8B little-endian payload len]
//	[payload = gob(sizelos.EngineState)][4B little-endian CRC32(payload)]
//
// written to a .tmp name, fsynced, renamed into place, then SyncDir — so a
// snapshot either exists whole and checksummed or not at all. Recovery
// takes the newest snapshot that validates, falling back to older ones:
// a torn or corrupt newest snapshot (crash mid-write that still got the
// rename durable, or media damage) degrades to a longer WAL replay from an
// older snapshot — whose covering segments survive pruning by design.
// Only provable damage falls back; a plain read error aborts recovery.
const (
	snapMagic  = "SZLSNAP1"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	snapHdr    = len(snapMagic) + 8 + 8
)

func snapshotName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix)
}

// writeSnapshot durably writes st (covering WAL records <= seq) into dir.
// The payload is encoded behind room for the header, so the whole file is
// one buffer and lands in one write.
func writeSnapshot(fsys FS, dir string, seq uint64, st *sizelos.EngineState) error {
	var buf bytes.Buffer
	buf.Write(make([]byte, snapHdr))
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return fmt.Errorf("durable: encode snapshot %d: %w", seq, err)
	}
	data := buf.Bytes()
	copy(data, snapMagic)
	binary.LittleEndian.PutUint64(data[8:], seq)
	binary.LittleEndian.PutUint64(data[16:], uint64(len(data)-snapHdr))
	data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(data[snapHdr:]))
	return publish(fsys, dir, snapshotName(seq), data)
}

// parseSnapshot validates and decodes one snapshot file.
func parseSnapshot(data []byte) (*sizelos.EngineState, uint64, error) {
	if len(data) < snapHdr+4 {
		return nil, 0, fmt.Errorf("durable: snapshot truncated at %d bytes", len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return nil, 0, fmt.Errorf("durable: bad snapshot magic %q", data[:len(snapMagic)])
	}
	seq := binary.LittleEndian.Uint64(data[8:])
	n := binary.LittleEndian.Uint64(data[16:])
	if n != uint64(len(data)-snapHdr-4) {
		return nil, 0, fmt.Errorf("durable: snapshot payload length %d, have %d", n, len(data)-snapHdr-4)
	}
	payload := data[snapHdr : snapHdr+int(n)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[snapHdr+int(n):]) {
		return nil, 0, fmt.Errorf("durable: snapshot checksum mismatch")
	}
	var st sizelos.EngineState
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
		return nil, 0, fmt.Errorf("durable: decode snapshot: %w", err)
	}
	return &st, seq, nil
}

// loadNewestSnapshot returns the newest snapshot in dir that validates, its
// covered seq, and — when every candidate is damaged or none exists —
// (nil, 0, nil): the caller then recovers from scratch by full WAL replay.
// Only provable damage (missing file, bad checksum, failed parse) triggers
// fallback; any other read error aborts the recovery.
func loadNewestSnapshot(fsys FS, dir string) (*sizelos.EngineState, uint64, error) {
	snaps, err := seqFiles(fsys, dir, snapPrefix, snapSuffix)
	if err != nil {
		return nil, 0, err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		s := snaps[i]
		data, err := fsys.ReadFile(path.Join(dir, s.name))
		if err != nil {
			if isNotExist(err) {
				continue // pruned between listing and read
			}
			// A transient I/O error is NOT a damaged snapshot: falling back
			// would silently regress to an older state (whose covering WAL
			// segments may be pruned). Fail the recovery loudly instead.
			return nil, 0, fmt.Errorf("durable: read snapshot %s: %w", s.name, err)
		}
		st, seq, err := parseSnapshot(data)
		if err != nil || seq != s.seq {
			continue // damaged or mislabeled: fall back to the next-newest
		}
		return st, seq, nil
	}
	return nil, 0, nil
}

// pruneSnapshots removes all but the keep newest snapshots, and the .tmp
// file an interrupted write orphaned, and returns the snapshots it kept.
func pruneSnapshots(fsys FS, dir string, keep int) ([]seqFile, error) {
	snaps, err := seqFiles(fsys, dir, snapPrefix, snapSuffix)
	if err != nil {
		return nil, err
	}
	orphans, err := seqFiles(fsys, dir, snapPrefix, snapSuffix+".tmp")
	if err != nil {
		return nil, err
	}
	cut := max(len(snaps)-keep, 0)
	doomed := append(snaps[:cut:cut], orphans...)
	for _, s := range doomed {
		if err := fsys.Remove(path.Join(dir, s.name)); err != nil {
			return nil, fmt.Errorf("durable: prune %s: %w", s.name, err)
		}
	}
	if len(doomed) > 0 {
		if err := fsys.SyncDir(dir); err != nil {
			return nil, fmt.Errorf("durable: sync dir after prune: %w", err)
		}
	}
	return snaps[cut:], nil
}
