package relational

import (
	"encoding/gob"
	"fmt"
	"io"
)

// relationStateWire is the layout-preserving persisted form of a Relation:
// every physical slot (tombstones included, content retained), the
// tombstone mask, and the mutation counter. Decoding reproduces the exact
// physical layout — TupleID for TupleID — which the durability tier needs so
// that a recovered engine's score vectors, data-graph node ids and keyword
// postings line up bit-for-bit with the snapshotted ones. Indexes are
// derivable and rebuilt on load.
type relationStateWire struct {
	Name    string
	Columns []Column
	PKCol   string
	FKs     []ForeignKey
	Tuples  []Tuple
	// Deleted lists the tombstoned slot ids, ascending.
	Deleted []TupleID
	Version uint64
}

type dbStateWire struct {
	Name      string
	Relations []relationStateWire
}

// EncodeState serializes the database preserving physical layout: tombstoned
// slots keep their position and content, and each relation's mutation
// counter rides along. The encoding is deterministic (the wire structs hold
// no maps), so byte-equality of two EncodeState outputs implies physically
// identical databases — the crash-recovery harness uses exactly that as its
// equality oracle.
func (db *DB) EncodeState(w io.Writer) error {
	wire := dbStateWire{Name: db.Name}
	for _, r := range db.Relations {
		rw := relationStateWire{
			Name:    r.Name,
			Columns: r.Columns,
			PKCol:   r.Columns[r.PKCol].Name,
			FKs:     r.FKs,
			Tuples:  r.Tuples,
			Version: r.version,
		}
		if r.tombstones > 0 {
			rw.Deleted = make([]TupleID, 0, r.tombstones)
			for id := range r.Tuples {
				if r.deleted[id] {
					rw.Deleted = append(rw.Deleted, TupleID(id))
				}
			}
		}
		wire.Relations = append(wire.Relations, rw)
	}
	return gob.NewEncoder(w).Encode(&wire)
}

// ReadDBState deserializes a database written by EncodeState, reproducing
// the exact physical layout: slot order, tombstone mask and per-relation
// version counters. Indexes are rebuilt by replaying each slot in order —
// insert, then tombstone if the slot was deleted. The interleaving matters:
// a tombstoned slot may share its primary key with a later live slot (the
// original history deleted then re-inserted that key), so the tombstone's
// key must leave the PK index before the live slot claims it.
func ReadDBState(rd io.Reader) (*DB, error) {
	var wire dbStateWire
	if err := gob.NewDecoder(rd).Decode(&wire); err != nil {
		return nil, fmt.Errorf("decode db state: %w", err)
	}
	db := NewDB(wire.Name)
	for _, rw := range wire.Relations {
		rel, err := NewRelation(rw.Name, rw.Columns, rw.PKCol, rw.FKs)
		if err != nil {
			return nil, fmt.Errorf("rebuild relation %s: %w", rw.Name, err)
		}
		next := 0 // cursor into rw.Deleted (ascending)
		for id, t := range rw.Tuples {
			if _, err := rel.Insert(t); err != nil {
				return nil, fmt.Errorf("reload relation %s slot %d: %w", rw.Name, id, err)
			}
			if next < len(rw.Deleted) && rw.Deleted[next] == TupleID(id) {
				if err := rel.Delete(TupleID(id)); err != nil {
					return nil, fmt.Errorf("reload relation %s tombstone %d: %w", rw.Name, id, err)
				}
				next++
			}
		}
		if next != len(rw.Deleted) {
			return nil, fmt.Errorf("reload relation %s: %d tombstone ids out of range or out of order",
				rw.Name, len(rw.Deleted)-next)
		}
		// The replay above bumped the counter once per insert/delete; the
		// persisted counter also covers compactions, rollbacks and restores
		// from the original history, so restore it verbatim.
		rel.version = rw.Version
		if err := db.AddRelation(rel); err != nil {
			return nil, err
		}
	}
	return db, nil
}
