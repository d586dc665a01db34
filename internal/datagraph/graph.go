package datagraph

import (
	"fmt"

	"sizelos/internal/relational"
)

// fkEdges is one foreign key's edges in both directions, editable in place
// by Apply. fwd[t] is the tuple owner tuple t references (M:1), or -1 once t
// is tombstoned; bwd[t] lists, ascending, the live owner tuples referencing
// tuple t (1:M). Every list has cap == len as Build cuts it, so appending
// to one never writes into its neighbour's storage.
type fkEdges struct {
	fwd []relational.TupleID
	bwd [][]relational.TupleID
}

// fkRef names one foreign key by its owner's relation ordinal and its
// ordinal in the owner's Relation.FKs.
type fkRef struct{ owner, fk int }

// Graph is the tuple-level data graph. Build constructs it from scratch;
// Apply folds a committed mutation batch in incrementally. Reads and
// mutations are not synchronized here — the engine serializes Apply against
// traversals under its write lock.
type Graph struct {
	DB *relational.DB
	// fks[owner][fk] holds FK fk of relation ordinal owner, both directions.
	fks [][]fkEdges
	// refs[rel] lists the foreign keys referencing relation ordinal rel, in
	// schema order: the backward lists a deleted tuple of rel must clear.
	refs [][]fkRef
	// counts of nodes per relation, cached.
	sizes []int
}

// Build constructs the data graph from the database's foreign keys. Cost is
// linear in tuples+edges; the experiments report this as the data-graph
// construction time of Fig. 10f.
func Build(db *relational.DB) (*Graph, error) {
	g := &Graph{
		DB:    db,
		fks:   make([][]fkEdges, len(db.Relations)),
		refs:  make([][]fkRef, len(db.Relations)),
		sizes: make([]int, len(db.Relations)),
	}
	for owner, r := range db.Relations {
		g.sizes[owner] = r.Len()
		g.fks[owner] = make([]fkEdges, len(r.FKs))
		for fi, fk := range r.FKs {
			ref := db.Relation(fk.Ref)
			if ref == nil {
				return nil, fmt.Errorf("datagraph: %s.%s references unknown relation %s", r.Name, fk.Column, fk.Ref)
			}
			fwd, err := buildForward(r, fi, ref)
			if err != nil {
				return nil, err
			}
			g.fks[owner][fi] = fkEdges{fwd: fwd, bwd: buildBackward(fwd, ref.Len())}
			dst := db.RelIndex(fk.Ref)
			g.refs[dst] = append(g.refs[dst], fkRef{owner, fi})
		}
	}
	return g, nil
}

// buildForward maps each live tuple of owner to the single referenced
// tuple. Tombstoned owners map to -1 — their node stays (ids are positional)
// but is disconnected, so no traversal reaches them.
func buildForward(owner *relational.Relation, fkOrd int, ref *relational.Relation) ([]relational.TupleID, error) {
	col := owner.ColIndex(owner.FKs[fkOrd].Column)
	fwd := make([]relational.TupleID, owner.Len())
	for i := range fwd {
		fwd[i] = -1
		if owner.Deleted(relational.TupleID(i)) {
			continue
		}
		key := owner.Tuples[i][col].Int
		id, ok := ref.LookupPK(key)
		if !ok {
			return nil, fmt.Errorf("datagraph: %s tuple %d: dangling FK %s=%d into %s",
				owner.Name, i, owner.FKs[fkOrd].Column, key, ref.Name)
		}
		fwd[i] = id
	}
	return fwd, nil
}

// buildBackward inverts fwd into the owner lists of n referenced tuples, in
// owner insertion order. The lists are cut from one backing array with a
// full slice expression, so each has cap == len.
func buildBackward(fwd []relational.TupleID, n int) [][]relational.TupleID {
	counts := make([]int, n)
	for _, d := range fwd {
		if d >= 0 {
			counts[d]++
		}
	}
	backing := make([]relational.TupleID, len(fwd))
	bwd := make([][]relational.TupleID, n)
	for i, c := range counts {
		if c > 0 {
			bwd[i] = backing[:0:c]
			backing = backing[c:]
		}
	}
	for owner, d := range fwd {
		if d >= 0 {
			bwd[d] = append(bwd[d], relational.TupleID(owner))
		}
	}
	return bwd
}

// NumNodes returns the total node count.
func (g *Graph) NumNodes() int {
	n := 0
	for _, s := range g.sizes {
		n += s
	}
	return n
}

// RelSize returns the node count of relation ordinal rel.
func (g *Graph) RelSize(rel int) int { return g.sizes[rel] }

// along returns t's neighbors across FK fk of relation ordinal owner:
// forward, t is an owner tuple and the result the tuple it references;
// backward, t is a referenced tuple and the result its owners, in owner
// insertion order. The returned slice aliases internal storage and must not
// be modified (appending to it never reaches another tuple's list); it
// stays valid until the next Apply. An owner, fk or t out of range panics.
func (g *Graph) along(owner, fk int, forward bool, t relational.TupleID) []relational.TupleID {
	e := &g.fks[owner][fk]
	if !forward {
		return e.bwd[t]
	}
	if e.fwd[t] < 0 {
		return nil
	}
	return e.fwd[t : t+1 : t+1]
}
