package datagraph

// Incremental maintenance: Apply edits a committed mutation batch's FK
// edges into the graph's lists in place instead of rebuilding them. The
// relational layer's stable TupleID slots are what make this sound — a
// tombstoned tuple keeps its slot (and its forward entries name the
// targets whose lists it must leave) and an inserted tuple always takes a
// fresh slot larger than every existing id of its relation.
//
// After Apply the graph answers every Cross query exactly as a
// from-scratch Build over the mutated database would; the randomized
// mutation-equivalence harness (TestMutationEquivalence) asserts this edge
// for edge.

import (
	"fmt"
	"slices"
	"sort"

	"sizelos/internal/relational"
)

// Apply folds one committed relational batch into the graph in place. The
// batch must already be applied to g's database (Apply reads the relation
// sizes, the inserted tuples and the PK index of the post-commit state),
// and the per-relation id lists must be ascending — exactly the contract of
// relational.BatchResult.
//
// Cost is O(Δ) list edits for a batch touching Δ tuples, plus growing the
// lists of each inserted relation: each deleted tuple leaves its targets'
// backward lists and clears its own; each inserted tuple sets its forward
// entry per FK and appends itself to its targets' backward lists. An error
// means the batch references a relation the graph was not built over; the
// graph is then unspecified and the caller must rebuild.
func (g *Graph) Apply(res relational.BatchResult) error {
	db := g.DB
	// Deterministic relation order keeps the edit sequence reproducible.
	for _, rel := range sortedKeys(res.Deleted) {
		ri := db.RelIndex(rel)
		if ri < 0 {
			return fmt.Errorf("datagraph: apply: unknown relation %q", rel)
		}
		for _, d := range res.Deleted[rel] {
			// Leave each target's backward list. A target deleted in the
			// same batch has had — or will have — its lists cleared
			// wholesale, where the search finds nothing.
			for fi := range g.fks[ri] {
				e := &g.fks[ri][fi]
				if target := e.fwd[d]; target >= 0 {
					l := e.bwd[target]
					if i, ok := slices.BinarySearch(l, d); ok {
						e.bwd[target] = slices.Delete(l, i, i+1)
					}
					e.fwd[d] = -1
				}
			}
			// Referential integrity guarantees every owner that pointed at
			// the tuple is deleted too, so the lists it heads simply empty.
			for _, ref := range g.refs[ri] {
				g.fks[ref.owner][ref.fk].bwd[d] = nil
			}
		}
	}
	inserted := sortedKeys(res.Inserted)
	// Grow every list indexed by an inserted relation first: a tuple may
	// reference one inserted into a relation that sorts later in the batch.
	for _, rel := range inserted {
		ri := db.RelIndex(rel)
		if ri < 0 {
			return fmt.Errorf("datagraph: apply: unknown relation %q", rel)
		}
		n := db.Relations[ri].Len()
		for fi := range g.fks[ri] {
			e := &g.fks[ri][fi]
			for len(e.fwd) < n {
				e.fwd = append(e.fwd, -1)
			}
		}
		for _, ref := range g.refs[ri] {
			e := &g.fks[ref.owner][ref.fk]
			e.bwd = append(e.bwd, make([][]relational.TupleID, n-len(e.bwd))...)
		}
		g.sizes[ri] = n
	}
	for _, rel := range inserted {
		ri := db.RelIndex(rel)
		r := db.Relations[ri]
		for _, id := range res.Inserted[rel] {
			for fi, fk := range r.FKs {
				key := r.Tuples[id][r.ColIndex(fk.Column)].Int
				target, ok := db.Relation(fk.Ref).LookupPK(key)
				if !ok {
					// Unreachable after a committed batch: inserts passed the
					// FK check and nothing deleted the target afterwards
					// (deletes precede inserts within a batch).
					return fmt.Errorf("datagraph: apply: %s tuple %d: dangling FK %s=%d into %s",
						rel, id, fk.Column, key, fk.Ref)
				}
				e := &g.fks[ri][fi]
				e.fwd[id] = target
				// Ascending insert ids appended in order keep the backward
				// list in owner-insertion order, matching buildBackward.
				e.bwd[target] = append(e.bwd[target], id)
			}
		}
	}
	return nil
}

// EquivalentTo reports the first edge-level difference between g and other
// ("" when none): same relation sizes, and the same neighbor list on every
// (foreign key, direction, tuple). It is the "edge-exact" relation the
// mutation-equivalence harness asserts between an incrementally maintained
// graph and a from-scratch rebuild. Both graphs must be built over the same
// schema.
func (g *Graph) EquivalentTo(other *Graph) string {
	for ri := range g.sizes {
		if g.sizes[ri] != other.sizes[ri] {
			return fmt.Sprintf("%s size %d vs %d", g.DB.Relations[ri].Name, g.sizes[ri], other.sizes[ri])
		}
	}
	for rel, refs := range g.refs {
		for _, ref := range refs {
			if msg := g.diffList(other, ref, true, ref.owner); msg != "" {
				return msg
			}
			if msg := g.diffList(other, ref, false, rel); msg != "" {
				return msg
			}
		}
	}
	return ""
}

// diffList compares one direction of one foreign key on every tuple of the
// relation ordinal its lists are indexed by.
func (g *Graph) diffList(other *Graph, ref fkRef, forward bool, rel int) string {
	for t := 0; t < g.sizes[rel]; t++ {
		ga := g.along(ref.owner, ref.fk, forward, relational.TupleID(t))
		gb := other.along(ref.owner, ref.fk, forward, relational.TupleID(t))
		if !slices.Equal(ga, gb) {
			r := g.DB.Relations[ref.owner]
			dir := "backward"
			if forward {
				dir = "forward"
			}
			return fmt.Sprintf("%s.%s %s, %s tuple %d: %v vs %v",
				r.Name, r.FKs[ref.fk].Column, dir, g.DB.Relations[rel].Name, t, ga, gb)
		}
	}
	return ""
}

func sortedKeys(m map[string][]relational.TupleID) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
