package datagraph

// Incremental maintenance: Apply splices a committed mutation batch's FK
// edges into the graph instead of rebuilding the CSR arrays. The relational
// layer's stable TupleID slots are what make this sound — a tombstoned
// tuple keeps its slot (and its content, so its outgoing FK values can
// still be read to retract the mirror edges) and an inserted tuple always
// takes a fresh slot larger than every existing id of its relation.
//
// After Apply the graph answers every Along query exactly as a
// from-scratch Build over the mutated database would; the randomized
// mutation-equivalence harness (TestMutationEquivalence) asserts this edge
// for edge. The overlay grows with the number of touched tuples, never with
// database size; the engine folds it away when it rebuilds on compaction.

import (
	"fmt"
	"slices"
	"sort"

	"sizelos/internal/relational"
)

// Apply folds one committed relational batch into the graph in place. The
// batch must already be applied to g's database (Apply reads the tombstone
// flags, retained slot contents and PK index of the post-commit state), and
// the per-relation id lists must be ascending — exactly the contract of
// relational.BatchResult.
//
// Cost is O(Δ) list splices for a batch touching Δ tuples: each deleted
// tuple clears its own lists and retracts itself from its FK targets'
// mirror lists; each inserted tuple gains a single-target list per FK and
// appends itself to the mirror lists. An error means the batch references a
// relation the graph was not built over; the graph is then unspecified and
// the caller must rebuild.
func (g *Graph) Apply(res relational.BatchResult) error {
	db := g.DB
	// Deterministic relation order keeps the splice sequence reproducible
	// (map iteration order must not leak into patch allocation patterns).
	for _, rel := range sortedKeys(res.Deleted) {
		ri := db.RelIndex(rel)
		if ri < 0 {
			return fmt.Errorf("datagraph: apply: unknown relation %q", rel)
		}
		r := db.Relations[ri]
		for _, d := range res.Deleted[rel] {
			// The tuple leaves every list it heads wholesale: its forward
			// lists (it no longer references anyone), and its backward lists
			// (referential integrity guarantees every owner that pointed at
			// it is deleted too — those owners retract their own forward
			// edges below, and a retract against a cleared list is a no-op).
			for fi := range g.fks[ri] {
				g.fks[ri][fi].fwd.empty(d)
			}
			for _, ref := range g.refs[ri] {
				g.fks[ref.owner][ref.fk].bwd.empty(d)
			}
			// Retract the mirror edge from each still-live FK target's
			// backward list. The tombstoned slot retains its content, so the
			// FK values are still readable; a target deleted in the same
			// batch fails the PK lookup and needs nothing (its lists were —
			// or will be — cleared wholesale). A target deleted and
			// re-inserted under the same PK resolves to the fresh slot,
			// where the retract is a harmless no-op.
			for fi, fk := range r.FKs {
				key := r.Tuples[d][r.ColIndex(fk.Column)].Int
				if target, ok := db.Relation(fk.Ref).LookupPK(key); ok {
					g.fks[ri][fi].bwd.retract(target, d)
				}
			}
		}
	}
	for _, rel := range sortedKeys(res.Inserted) {
		ri := db.RelIndex(rel)
		if ri < 0 {
			return fmt.Errorf("datagraph: apply: unknown relation %q", rel)
		}
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
				e.fwd.override(id, []relational.TupleID{target})
				// Ascending insert ids appended in order keep the backward
				// list in owner-insertion order, matching buildBackward.
				e.bwd.extend(target, id)
			}
		}
		g.sizes[ri] = r.Len()
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
		ga := g.Along(ref.owner, ref.fk, forward, relational.TupleID(t))
		gb := other.Along(ref.owner, ref.fk, forward, relational.TupleID(t))
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

// Patched reports how many per-tuple overlay entries the graph currently
// carries across all adjacencies — the memory the incremental path has
// accumulated since the last full build. The engine reads it to decide when
// folding the overlay into fresh CSR arrays (a rebuild) pays for itself.
func (g *Graph) Patched() int {
	n := 0
	for _, fks := range g.fks {
		for _, e := range fks {
			n += len(e.fwd.patch) + len(e.bwd.patch)
		}
	}
	return n
}

func sortedKeys(m map[string][]relational.TupleID) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
