package datagraph

import (
	"fmt"

	"sizelos/internal/relational"
)

// Hop is one foreign-key join of the schema, bound to relation and FK
// ordinals: the one description of an edge that G_DS steps (OS extraction)
// and G_A flows (ranking) both walk through Graph.Cross. A direct hop
// crosses FK fk of relation owner, forward from an owner tuple to the tuple
// it references or backward from a referenced tuple to its owners. A
// junction hop goes backward across the junction owner's FK fk to its rows
// and forward across its FK out from each row, so junction tuples are
// stepped over, never reached.
type Hop struct {
	owner, fk, out int32
	from, to       int32
	forward        bool
	junction       bool
}

// FKHop binds the direct hop across FK fk of relation rel: forward from
// rel's tuples to those they reference, or backward.
func FKHop(db *relational.DB, rel string, fk int, forward bool) (Hop, error) {
	owner := db.RelIndex(rel)
	if owner < 0 {
		return Hop{}, fmt.Errorf("unknown relation %s", rel)
	}
	fks := db.Relations[owner].FKs
	if fk < 0 || fk >= len(fks) {
		return Hop{}, fmt.Errorf("%s: FK ordinal %d out of range", rel, fk)
	}
	ref := db.RelIndex(fks[fk].Ref)
	h := Hop{owner: int32(owner), fk: int32(fk), forward: forward, from: int32(ref), to: int32(owner)}
	if forward {
		h.from, h.to = h.to, h.from
	}
	return h, nil
}

// JunctionHop binds the hop through junction relation junction from the
// tuple its FK in references to the tuples its FK out references, over
// every junction row that holds both.
func JunctionHop(db *relational.DB, junction string, in, out int) (Hop, error) {
	j := db.RelIndex(junction)
	if j < 0 {
		return Hop{}, fmt.Errorf("unknown junction %s", junction)
	}
	fks := db.Relations[j].FKs
	if in < 0 || in >= len(fks) || out < 0 || out >= len(fks) {
		return Hop{}, fmt.Errorf("junction %s: FK ordinals (%d,%d) out of range", junction, in, out)
	}
	return Hop{
		owner: int32(j), fk: int32(in), out: int32(out), junction: true,
		from: int32(db.RelIndex(fks[in].Ref)), to: int32(db.RelIndex(fks[out].Ref)),
	}, nil
}

// Reverse returns the same join walked the other way: t ∈ Cross(h, s)
// exactly when s ∈ Cross(h.Reverse(), t), with multiplicity.
func (h Hop) Reverse() Hop {
	h.from, h.to = h.to, h.from
	if h.junction {
		h.fk, h.out = h.out, h.fk
	} else {
		h.forward = !h.forward
	}
	return h
}

// From is the relation ordinal whose tuples h leaves.
func (h Hop) From() int { return int(h.from) }

// To is the relation ordinal whose tuples h reaches.
func (h Hop) To() int { return int(h.to) }

// Owner is the relation ordinal that holds h's foreign key(s): the FK
// owner of a direct hop, the junction of a junction hop.
func (h Hop) Owner() int { return int(h.owner) }

// Forward reports a direct hop from owner tuples to the tuples they
// reference (M:1): the only kind whose From tuples own its edges.
func (h Hop) Forward() bool { return h.forward }

// ChangedFrom calls fn, deleted owners first, with the From tuple each
// owner tuple of h that the committed batch res deleted or inserted names
// in h's first FK: the tuples whose Cross(h) res changed through an owner
// (none on a Forward hop, whose From tuples are its owners). A tombstoned
// owner's slot keeps the value; an end no longer live is skipped, since
// its own deletion is what changed.
func (h Hop) ChangedFrom(db *relational.DB, res relational.BatchResult, fn func(relational.TupleID)) {
	if h.forward {
		return
	}
	r := db.Relations[h.owner]
	col, from := r.ColIndex(r.FKs[h.fk].Column), db.Relations[h.from]
	for _, owners := range [][]relational.TupleID{res.Deleted[r.Name], res.Inserted[r.Name]} {
		for _, t := range owners {
			if end, live := from.LookupPK(r.Tuples[t][col].Int); live {
				fn(end)
			}
		}
	}
}

// Cross returns t's neighbours across h, in edge order: owner insertion
// order backward, junction rows in insertion order and then each row's far
// tuple on a junction hop. A direct hop returns the graph's own list
// (read-only, valid until the next Apply, appending to it never reaches
// another list) and leaves *buf alone; a junction hop writes its result
// over *buf, growing it, and returns that. h must be bound to g's schema;
// a t out of range panics.
func (g *Graph) Cross(h Hop, t relational.TupleID, buf *[]relational.TupleID) []relational.TupleID {
	if !h.junction {
		return g.along(int(h.owner), int(h.fk), h.forward, t)
	}
	rows := g.along(int(h.owner), int(h.fk), false, t)
	if len(rows) == 0 {
		return nil
	}
	out := (*buf)[:0]
	for _, row := range rows {
		out = append(out, g.along(int(h.owner), int(h.out), true, row)...)
	}
	*buf = out
	return out
}
