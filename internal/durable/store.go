package durable

import (
	"encoding/json"
	"fmt"
	"path"
	"sort"
	"sync"

	"sizelos"
)

// Options tunes a Store. Every WAL append is fsynced before it returns.
type Options struct {
	// KeepSnapshots is how many snapshots survive pruning (default 2: the
	// newest plus one fallback should the newest be damaged). Retained
	// snapshots pin WAL segments — the log is pruned only through the
	// oldest retained snapshot's covered seq, so every fallback can still
	// replay to the present.
	KeepSnapshots int
}

// Store is a durability root directory: a manifest of tenants plus one
// subdirectory per tenant holding its WAL segments and snapshots.
type Store struct {
	fs   FS
	opts Options

	mu sync.Mutex // serializes manifest read-modify-write
}

// Open prepares a store over fsys. The layout is created lazily.
func Open(fsys FS, opts Options) (*Store, error) {
	if opts.KeepSnapshots <= 0 {
		opts.KeepSnapshots = 2
	}
	if err := fsys.MkdirAll("tenants"); err != nil {
		return nil, fmt.Errorf("durable: create store layout: %w", err)
	}
	return &Store{fs: fsys, opts: opts}, nil
}

const manifestName = "manifest.json"

// TenantSpec is one manifest entry: everything needed to rebuild a tenant
// from scratch (its dataset recipe) or recover it (its directory). It is
// also the tenancy registry's tenant recipe (tenancy.TenantSpec): a Seed
// <= 0 means the deployment default (the manifest records it resolved),
// and Cache is the summary-cache budget in entries (0: the deployment
// default, < 0: off).
type TenantSpec struct {
	Name    string `json:"name"`
	Dataset string `json:"dataset"`
	Seed    int64  `json:"seed"`
	Cache   int    `json:"cache,omitempty"`
}

type manifestWire struct {
	Version int          `json:"version"`
	Tenants []TenantSpec `json:"tenants"`
}

// LoadManifest returns the recorded tenant set (empty when none recorded).
func (s *Store) LoadManifest() ([]TenantSpec, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loadManifestLocked()
}

func (s *Store) loadManifestLocked() ([]TenantSpec, error) {
	data, err := s.fs.ReadFile(manifestName)
	if err != nil {
		if isNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("durable: read manifest: %w", err)
	}
	var m manifestWire
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("durable: parse manifest: %w", err)
	}
	return m.Tenants, nil
}

// RecordTenant upserts one tenant into the manifest, durably.
func (s *Store) RecordTenant(spec TenantSpec) error {
	return s.rewriteManifest(spec.Name, &spec)
}

// ForgetTenant removes a tenant from the manifest and deletes its
// directory. Safe to call for tenants never recorded.
func (s *Store) ForgetTenant(name string) error {
	if err := s.rewriteManifest(name, nil); err != nil {
		return err
	}
	if err := s.fs.RemoveAll(path.Join("tenants", name)); err != nil {
		return fmt.Errorf("durable: remove tenant dir %s: %w", name, err)
	}
	return nil
}

// rewriteManifest drops name's entry from the manifest and, when spec is
// non-nil, adds spec in its place, then publishes the result sorted by
// name so the bytes are deterministic. Dropping a name the manifest lacks
// writes nothing.
func (s *Store) rewriteManifest(name string, spec *TenantSpec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	specs, err := s.loadManifestLocked()
	if err != nil {
		return err
	}
	out := specs[:0]
	for _, t := range specs {
		if t.Name != name {
			out = append(out, t)
		}
	}
	if spec != nil {
		out = append(out, *spec)
	} else if len(out) == len(specs) {
		return nil
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	data, err := json.MarshalIndent(manifestWire{Version: 1, Tenants: out}, "", "  ")
	if err != nil {
		return fmt.Errorf("durable: encode manifest: %w", err)
	}
	return publish(s.fs, ".", manifestName, append(data, '\n'))
}

// Tenant returns the durability handle for one tenant's directory. The
// handle is inert until Recover attaches it to an engine.
func (s *Store) Tenant(name string) *TenantStore {
	return &TenantStore{fs: s.fs, dir: path.Join("tenants", name), opts: s.opts}
}

// TenantStore manages one tenant's WAL and snapshots.
type TenantStore struct {
	fs   FS
	dir  string
	opts Options

	mu          sync.Mutex
	wal         *WAL
	lastSnapSeq uint64
	hasSnapshot bool
}

// RecoveryInfo summarizes one recovery.
type RecoveryInfo struct {
	// SnapshotSeq is the covered seq of the snapshot used (0: none valid).
	SnapshotSeq uint64
	// Replayed is how many WAL records were re-applied past the snapshot.
	Replayed int
	// Seq is the last committed sequence number after recovery.
	Seq uint64
}

// Recover rebuilds the tenant's engine from disk and leaves this store
// attached: the WAL open for appending and installed as the engine's
// mutation log, so every later Mutate is logged before acknowledgement.
//
// restore builds an engine from a snapshot's state; fresh builds the
// engine the tenant started from (same dataset recipe) for the
// no-valid-snapshot case. Replay drives the engine's own incremental write
// path (Mutate / CompactNow), so recovered derived state carries the same
// proof of equivalence with a from-scratch build that live mutations do.
func (t *TenantStore) Recover(
	restore func(*sizelos.EngineState) (*sizelos.Engine, error),
	fresh func() (*sizelos.Engine, error),
) (*sizelos.Engine, RecoveryInfo, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wal != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("durable: tenant %s already recovered", t.dir)
	}
	if err := t.fs.MkdirAll(t.dir); err != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("durable: create %s: %w", t.dir, err)
	}
	st, snapSeq, err := loadNewestSnapshot(t.fs, t.dir)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	var eng *sizelos.Engine
	if st != nil {
		eng, err = restore(st)
		if err != nil {
			return nil, RecoveryInfo{}, fmt.Errorf("durable: restore snapshot %d: %w", snapSeq, err)
		}
	} else {
		snapSeq = 0
		eng, err = fresh()
		if err != nil {
			return nil, RecoveryInfo{}, fmt.Errorf("durable: rebuild fresh engine: %w", err)
		}
	}
	wal, records, err := openWAL(t.fs, t.dir, snapSeq)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	for _, rec := range records {
		switch rec.Kind {
		case recMutation:
			if _, err := eng.Mutate(rec.batch()); err != nil {
				_ = wal.Close()
				return nil, RecoveryInfo{}, fmt.Errorf("durable: replay record %d: %w", rec.Seq, err)
			}
		case recCompact:
			if _, err := eng.CompactNow(); err != nil {
				_ = wal.Close()
				return nil, RecoveryInfo{}, fmt.Errorf("durable: replay compaction %d: %w", rec.Seq, err)
			}
		default:
			_ = wal.Close()
			return nil, RecoveryInfo{}, fmt.Errorf("durable: record %d has unknown kind %d", rec.Seq, rec.Kind)
		}
	}
	eng.SetMutationLog(wal)
	t.wal = wal
	t.lastSnapSeq = snapSeq
	t.hasSnapshot = st != nil
	return eng, RecoveryInfo{SnapshotSeq: snapSeq, Replayed: len(records), Seq: wal.Seq()}, nil
}

// Snapshot durably captures eng's committed state, rotates the WAL, and
// prunes segments and snapshots the new snapshot obsoletes. A no-op when
// nothing was committed since the last snapshot. Returns the covered seq.
// A detached store — before Recover or after Close — refuses: the
// directory may already belong to the tenant's next owner.
func (t *TenantStore) Snapshot(eng *sizelos.Engine) (uint64, error) {
	st, seq, err := eng.ExportState()
	if err != nil {
		return 0, fmt.Errorf("durable: export state: %w", err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wal == nil {
		return 0, fmt.Errorf("durable: snapshot of detached tenant store %s", t.dir)
	}
	if t.hasSnapshot && seq == t.lastSnapSeq {
		return seq, nil
	}
	// A snapshot claims coverage of every record <= seq, which licenses
	// segment pruning. Every append was fsynced before it returned; a log
	// poisoned by a failed write or fsync may miss a batch the engine holds.
	if err := t.wal.failed(); err != nil {
		return 0, err
	}
	if err := writeSnapshot(t.fs, t.dir, seq, st); err != nil {
		return 0, err
	}
	kept, err := pruneSnapshots(t.fs, t.dir, t.opts.KeepSnapshots)
	if err != nil {
		return 0, err
	}
	// WAL pruning is licensed by the OLDEST retained snapshot, not the one
	// just written: recovery falls back to older snapshots when the newest
	// is damaged, and every fallback's replay chain must still start inside
	// the surviving segments (openWAL refuses otherwise).
	covered := seq
	if len(kept) > 0 {
		covered = kept[0].seq
	}
	if err := t.wal.rotate(covered); err != nil {
		return 0, err
	}
	t.lastSnapSeq = seq
	t.hasSnapshot = true
	return seq, nil
}

// Seq returns the last committed sequence number (0 before Recover).
func (t *TenantStore) Seq() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wal == nil {
		return 0
	}
	return t.wal.Seq()
}

// Close closes the WAL and detaches the store: a later Snapshot refuses.
func (t *TenantStore) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wal == nil {
		return nil
	}
	err := t.wal.Close()
	t.wal = nil
	return err
}
