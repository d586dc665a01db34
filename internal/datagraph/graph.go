package datagraph

import (
	"fmt"
	"sort"

	"sizelos/internal/relational"
)

// adjacency holds, for one foreign key in one direction, the
// CSR-style neighbor lists of every tuple, plus a mutation overlay: Apply
// splices per-tuple deltas into patch instead of rewriting the packed
// arrays, so a small batch costs work proportional to the tuples it
// touches, not to the graph.
type adjacency struct {
	// offsets has len(tuples)+1 entries (as of the last full build);
	// neighbors[offsets[i]:offsets[i+1]] are tuple i's neighbors along this
	// foreign key and direction, unless patch overrides tuple i.
	offsets   []int32
	neighbors []relational.TupleID
	// patch maps a tuple to its current neighbor list when it diverged from
	// the packed arrays — tuples inserted after the build (beyond offsets),
	// tombstoned tuples (empty list), and live tuples whose neighborhood a
	// mutation changed. A present key with a nil value means "no neighbors".
	patch map[relational.TupleID][]relational.TupleID
}

// list returns t's current neighbor list: the overlay entry if one exists,
// the packed CSR range if t predates the last build, empty otherwise
// (tuples inserted since the build start with no edges until patched).
func (a *adjacency) list(t relational.TupleID) []relational.TupleID {
	if a.patch != nil {
		if l, ok := a.patch[t]; ok {
			return l
		}
	}
	if int(t)+1 < len(a.offsets) {
		return a.neighbors[a.offsets[t]:a.offsets[t+1]]
	}
	return nil
}

// override installs list as t's neighbor list in the overlay (nil = none).
func (a *adjacency) override(t relational.TupleID, list []relational.TupleID) {
	if a.patch == nil {
		a.patch = make(map[relational.TupleID][]relational.TupleID)
	}
	a.patch[t] = list
}

// owned returns t's overlay list when one exists. Every overlay slice is
// allocated by this adjacency (never aliased into the packed arrays), so an
// owned list may be mutated in place — the caller (the engine, under its
// write lock) has exclusive access, and Along results are documented
// valid only until the next Apply. Mutating in place keeps a hot tuple's
// repeated edge changes linear instead of copying its whole list per splice.
func (a *adjacency) owned(t relational.TupleID) ([]relational.TupleID, bool) {
	if a.patch == nil {
		return nil, false
	}
	l, ok := a.patch[t]
	return l, ok
}

// empty clears t's neighbor list. An already-empty list gets no overlay
// entry, so Patched() counts only real splices and the overlay-fold
// heuristic does not fire early on delete churn over sparsely connected
// tuples.
func (a *adjacency) empty(t relational.TupleID) {
	if len(a.list(t)) > 0 {
		a.override(t, nil)
	}
}

// retract removes id from t's ascending neighbor list — in place when the
// list is already an owned overlay copy, copy-on-write off the packed
// arrays otherwise; a no-op when id is absent (the far end may already have
// been cleared wholesale by its own delete).
func (a *adjacency) retract(t, id relational.TupleID) {
	if cur, ok := a.owned(t); ok {
		i := sort.Search(len(cur), func(i int) bool { return cur[i] >= id })
		if i == len(cur) || cur[i] != id {
			return
		}
		a.patch[t] = append(cur[:i], cur[i+1:]...)
		return
	}
	cur := a.list(t)
	i := sort.Search(len(cur), func(i int) bool { return cur[i] >= id })
	if i == len(cur) || cur[i] != id {
		return
	}
	out := make([]relational.TupleID, 0, len(cur)-1)
	out = append(out, cur[:i]...)
	out = append(out, cur[i+1:]...)
	a.override(t, out)
}

// extend appends id to t's neighbor list — in place when the list is
// already an owned overlay copy, copy-on-write off the packed arrays
// otherwise. Callers append in ascending id order (fresh inserts always
// carry the largest ids), which keeps the list in the owner-insertion order
// a full build produces.
func (a *adjacency) extend(t, id relational.TupleID) {
	if cur, ok := a.owned(t); ok {
		a.patch[t] = append(cur, id)
		return
	}
	cur := a.list(t)
	out := make([]relational.TupleID, 0, len(cur)+1)
	out = append(out, cur...)
	out = append(out, id)
	a.override(t, out)
}

// fkEdges is one foreign key's edges in both directions: fwd maps each
// owner tuple to the tuple it references (M:1), bwd maps each referenced
// tuple to the owners referencing it (1:M).
type fkEdges struct{ fwd, bwd adjacency }

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
			g.fks[owner][fi] = fkEdges{fwd: fwd, bwd: buildBackward(r, fi, ref)}
			dst := db.RelIndex(fk.Ref)
			g.refs[dst] = append(g.refs[dst], fkRef{owner, fi})
		}
	}
	return g, nil
}

// buildForward maps each live tuple of owner to the single referenced
// tuple. Tombstoned owners get an empty neighbor range — their node stays
// (ids are positional) but is disconnected, so no traversal reaches them.
func buildForward(owner *relational.Relation, fkOrd int, ref *relational.Relation) (adjacency, error) {
	col := owner.ColIndex(owner.FKs[fkOrd].Column)
	n := owner.Len()
	adj := adjacency{
		offsets:   make([]int32, n+1),
		neighbors: make([]relational.TupleID, 0, n),
	}
	for i := 0; i < n; i++ {
		adj.offsets[i] = int32(len(adj.neighbors))
		if owner.Deleted(relational.TupleID(i)) {
			continue
		}
		key := owner.Tuples[i][col].Int
		if id, ok := ref.LookupPK(key); ok {
			adj.neighbors = append(adj.neighbors, id)
		} else {
			return adjacency{}, fmt.Errorf("datagraph: %s tuple %d: dangling FK %s=%d into %s",
				owner.Name, i, owner.FKs[fkOrd].Column, key, ref.Name)
		}
	}
	adj.offsets[n] = int32(len(adj.neighbors))
	return adj, nil
}

// buildBackward maps each tuple of ref to the live owner tuples referencing
// it, in owner insertion order. Tombstoned owners are skipped; tombstoned
// refs collect no edges because their PK-index entry is gone.
func buildBackward(owner *relational.Relation, fkOrd int, ref *relational.Relation) adjacency {
	col := owner.ColIndex(owner.FKs[fkOrd].Column)
	n := ref.Len()
	counts := make([]int32, n)
	for i := 0; i < owner.Len(); i++ {
		if owner.Deleted(relational.TupleID(i)) {
			continue
		}
		key := owner.Tuples[i][col].Int
		if id, ok := ref.LookupPK(key); ok {
			counts[id]++
		}
	}
	adj := adjacency{offsets: make([]int32, n+1)}
	total := int32(0)
	for i := 0; i < n; i++ {
		adj.offsets[i] = total
		total += counts[i]
	}
	adj.offsets[n] = total
	adj.neighbors = make([]relational.TupleID, total)
	fill := make([]int32, n)
	copy(fill, adj.offsets[:n])
	for i := 0; i < owner.Len(); i++ {
		if owner.Deleted(relational.TupleID(i)) {
			continue
		}
		key := owner.Tuples[i][col].Int
		if id, ok := ref.LookupPK(key); ok {
			adj.neighbors[fill[id]] = relational.TupleID(i)
			fill[id]++
		}
	}
	return adj
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

// Along returns t's neighbors across FK fk of relation ordinal owner:
// forward, t is an owner tuple and the result the tuple it references;
// backward, t is a referenced tuple and the result its owners, in owner
// insertion order. The returned slice aliases internal storage and must not
// be modified; it stays valid until the next Apply. An owner or fk out of
// range panics.
func (g *Graph) Along(owner, fk int, forward bool, t relational.TupleID) []relational.TupleID {
	e := &g.fks[owner][fk]
	if forward {
		return e.fwd.list(t)
	}
	return e.bwd.list(t)
}
