package sizelos

// This file is the engine's durability seam. The engine itself stays
// storage-agnostic: it appends every committed mutation to a MutationLog
// (when one is installed) before acknowledging, and it can export and
// re-import the minimal state a recovery needs. The actual WAL, snapshot
// files and crash-safety protocol live in internal/durable; keeping only
// the interface here means the root package never imports the durability
// tier and an engine without a log runs exactly as before — no extra
// branches on the read path, one nil check on the write path.
//
// What gets persisted is deliberately minimal: the relational store in
// layout-preserving form (relational.EncodeState), the epochs, and what a
// re-rank reads that nothing derives (EngineState). Everything else
// the engine holds — data graph, keyword postings, compiled push plans,
// score scales, G_DS annotations — is derived state whose
// from-scratch construction the mutation-equivalence harnesses already
// prove identical to the incrementally-maintained original, so recovery
// rebuilds it instead of trusting bytes on disk.

import (
	"bytes"
	"fmt"
	"maps"
	"slices"

	"sizelos/internal/rank"
	"sizelos/internal/relational"
)

// MutationLog is the durability hook Engine.Mutate appends to: a redo log
// of committed mutation batches. Append is called with the engine's write
// lock held — after the batch is fully applied in memory, before Mutate
// returns — so records land in exactly commit order and the acknowledgement
// the caller receives implies the record is logged (and, for
// internal/durable's WAL, fsynced). Seq returns the sequence number of the
// last appended record (0 before any); Engine.ExportState reads it under
// the same lock so a snapshot can name precisely which log prefix it covers.
type MutationLog interface {
	// AppendMutation logs one committed mutation batch.
	AppendMutation(b MutationBatch) error
	// AppendCompact logs an explicit CompactNow call, which mutates physical
	// layout outside any batch and must replay at the same point.
	AppendCompact() error
	// Seq returns the sequence number of the last appended record.
	Seq() uint64
}

// SetMutationLog installs (or, with nil, removes) the engine's durability
// log. Install it either on a fresh engine before the first mutation or on
// a recovered engine after WAL replay — never mid-stream, or the log would
// miss batches. Takes the write lock, so it serializes against in-flight
// mutations and searches.
func (e *Engine) SetMutationLog(log MutationLog) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mlog = log
}

// appendLogLocked runs one MutationLog append under the write lock and
// wraps a failure in ErrMutationInternal: the batch is committed in memory
// but not durably logged, so the caller must not retry it (a retry would
// double-apply). The engine remembers the failure (e.logErr), and every
// later Mutate and CompactNow returns it before touching the store; only a
// restart, which recovers from what the log holds, writes again.
func (e *Engine) appendLogLocked(append func() error, what string) error {
	if e.mlog == nil {
		return nil
	}
	if err := append(); err != nil {
		e.logErr = fmt.Errorf("%w: durability log (%s): %v", ErrMutationInternal, what, err)
		return e.logErr
	}
	return nil
}

// EngineState is the snapshot payload of one engine: the relational store
// in layout-preserving form plus the non-derivable ranking state. It is
// gob-encodable; internal/durable frames and checksums it on disk.
type EngineState struct {
	// DB holds the relational.EncodeState bytes: every physical slot,
	// tombstone mask and version counter, so TupleIDs mean the same thing
	// after recovery.
	DB []byte
	// RawScores are the unnormalized converged score vectors per setting:
	// what queries are served through each setting's scale and the next
	// re-rank repairs. The scale is derived (one pass for the maxima) and
	// not persisted.
	RawScores map[string]relational.DBScores
	// Epochs are the per-relation cache-invalidation counters.
	Epochs map[string]uint64
	// ConvergedSlots is each relation's slot count when RawScores last
	// became a fixed point, so the first re-rank after a restore rescales
	// exactly. A snapshot without it takes the restored arena's counts.
	ConvergedSlots []int32
	// Captured holds each G_A's rows captured since the last re-rank, under
	// its first setting's name. RowsCover says they cover every batch since
	// (false after a compaction and in older snapshots: the next re-rank
	// sweeps); gob writes an empty Captured and a nil one alike.
	Captured  map[string][]map[relational.TupleID]rank.Row
	RowsCover bool
	// ResidualRuns is the refresh counter (Engine.residualRuns).
	ResidualRuns int
}

// ExportState captures the engine's durable state and the log sequence
// number it corresponds to, atomically with respect to mutations: both are
// read under one lock acquisition, so the returned seq names exactly the
// log prefix whose effects the state contains. seq is 0 when no log is
// installed.
func (e *Engine) ExportState() (st *EngineState, seq uint64, err error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var buf bytes.Buffer
	if err := e.db.EncodeState(&buf); err != nil {
		return nil, 0, fmt.Errorf("sizelos: export state: %w", err)
	}
	st = &EngineState{
		DB:             buf.Bytes(),
		RawScores:      copyScoreTable(e.rawScores),
		Epochs:         maps.Clone(e.epochs),
		ConvergedSlots: e.convergedSlots,
		Captured:       make(map[string][]map[relational.TupleID]rank.Row, len(e.pending)),
		RowsCover:      e.pending != nil,
		ResidualRuns:   e.residualRuns,
	}
	filed := make(map[*rank.GA]bool, len(e.pending))
	for _, s := range e.settings {
		if p, ok := e.pending[s.GA]; ok && !filed[s.GA] {
			filed[s.GA], st.Captured[s.Name] = true, p.Rows()
		}
	}
	if e.mlog != nil {
		seq = e.mlog.Seq()
	}
	return st, seq, nil
}

// copyScoreTable deep-copies a per-setting score table: a later Mutate
// extends the live vectors in place, so an exported snapshot must not alias
// them.
func copyScoreTable(t map[string]relational.DBScores) map[string]relational.DBScores {
	out := make(map[string]relational.DBScores, len(t))
	for setting, sc := range t {
		cp := make(relational.DBScores, len(sc))
		for rel, s := range sc {
			cp[rel] = append(relational.Scores(nil), s...)
		}
		out[setting] = cp
	}
	return out
}

// NewEngineFromState reconstructs an engine from an exported snapshot: the
// relational store is decoded layout-preserving, every derived structure
// (data graph, keyword index, push plans, each setting's scale and relation
// maxima) is rebuilt from it, and the raw score vectors and epochs are
// restored verbatim. The rebuilt derived state is identical to what the
// snapshotted engine was serving — that is the mutation-equivalence
// harnesses' proven contract, and the crash-recovery harness re-asserts it
// end to end.
//
// The raw vectors replace the cold-start power iterations: st must hold,
// for every setting, a table positionally aligned with the store's physical
// slots (tombstones included); they are deep-copied. With the captured rows
// (checked against the rebuilt plans) and the refresh counter, the next
// re-rank seeds as the snapshotted engine's would have. Register the same
// G_DSs as the original engine, replay any WAL tail with Mutate, and only
// then install the mutation log.
func NewEngineFromState(settings []Setting, st *EngineState) (*Engine, error) {
	db, err := relational.ReadDBState(bytes.NewReader(st.DB))
	if err != nil {
		return nil, fmt.Errorf("sizelos: restore state: %w", err)
	}
	e, err := newUnrankedEngine(db, settings)
	if err != nil {
		return nil, err
	}
	for _, s := range settings {
		sc, ok := st.RawScores[s.Name]
		if !ok {
			return nil, fmt.Errorf("sizelos: restore: no raw scores for setting %s", s.Name)
		}
		cp := make(relational.DBScores, len(sc))
		for rel, v := range sc {
			r := db.Relation(rel)
			if r == nil {
				return nil, fmt.Errorf("sizelos: restore: scores for unknown relation %s", rel)
			}
			if len(v) != r.Len() {
				return nil, fmt.Errorf("sizelos: restore: setting %s relation %s has %d scores for %d slots",
					s.Name, rel, len(v), r.Len())
			}
			cp[rel] = append(relational.Scores(nil), v...)
		}
		e.rawScores[s.Name], e.scales[s.Name] = cp, newScale(db, cp, nil)
	}
	maps.Copy(e.epochs, st.Epochs)
	switch slots := st.ConvergedSlots; {
	case slots == nil:
		// A snapshot from before the field: the restored arena is the best
		// known geometry.
		e.convergedSlots = e.arenaSlots()
	case len(slots) != len(db.Relations):
		return nil, fmt.Errorf("sizelos: restore: converged geometry has %d relations, store %d",
			len(slots), len(db.Relations))
	default:
		for ri, rel := range db.Relations {
			if n := slots[ri]; n < 0 || int(n) > rel.Len() {
				return nil, fmt.Errorf("sizelos: restore: converged geometry has %d slots for %s's %d", n, rel.Name, rel.Len())
			}
		}
		e.convergedSlots = slices.Clone(slots)
	}
	if st.ResidualRuns < 0 || st.ResidualRuns > residualRefreshInterval {
		return nil, fmt.Errorf("sizelos: restore: refresh counter %d outside [0, %d]", st.ResidualRuns, residualRefreshInterval)
	}
	e.residualRuns = st.ResidualRuns
	if !st.RowsCover {
		return e, nil
	}
	e.pending = make(map[*rank.GA]*rank.Pending, len(st.Captured))
	for _, s := range settings {
		if rows, ok := st.Captured[s.Name]; ok {
			e.pending[s.GA] = rank.Geometry(e.convergedSlots)
			if err := e.pending[s.GA].Attach(e.plans[s.GA], rows); err != nil {
				return nil, fmt.Errorf("sizelos: restore: captured rows for %s: %w", s.Name, err)
			}
		}
	}
	if len(e.pending) != len(st.Captured) {
		return nil, fmt.Errorf("sizelos: restore: captured rows under %d names for %d G_As", len(st.Captured), len(e.pending))
	}
	return e, nil
}

// RestoreDBLP reconstructs a DBLP-schema engine from an exported snapshot,
// with OpenDBLP's settings and G_DS registrations.
func RestoreDBLP(st *EngineState) (*Engine, error) {
	return dblpRecipe.register(NewEngineFromState(dblpRecipe.settings(), st))
}

// RestoreTPCH reconstructs a TPC-H-schema engine from an exported snapshot,
// with OpenTPCH's settings and G_DS registrations.
func RestoreTPCH(st *EngineState) (*Engine, error) {
	return tpchRecipe.register(NewEngineFromState(tpchRecipe.settings(), st))
}
