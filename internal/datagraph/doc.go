// Package datagraph builds and serves the tuple-level data graph of a
// relational database: one node per tuple, one edge per foreign-key pair.
// The paper (§6.3, Fig. 10f) uses exactly such an in-memory graph as an
// index to accelerate OS generation — "data-graph nodes correspond to the
// database tuples and edges to tuples relationships (through their primary
// and foreign keys) ... the data-graph is only an index and does not contain
// actual data as nodes capture only keys and global importance".
//
// The same graph is the substrate for ObjectRank/ValueRank power iteration
// (package rank), which needs typed edges: authority transfer rates are
// declared per schema edge and direction.
//
// An edge is named by a Hop: one foreign-key join bound to relation and FK
// ordinals — direct (forward from an owner tuple to the tuple it
// references, or backward from a referenced tuple to its owners) or through
// a junction relation, whose rows are stepped over. FKHop and JunctionHop
// bind one against a schema, schemagraph.GDS.Bind binds every G_DS step and
// rank.Compile every G_A flow, and Graph.Cross(h, t, buf) is the one code
// that crosses an edge, in O(1) per list read. h.Reverse() walks the same
// join the other way, so an OS extraction and its inverse (the footprint
// walk) read the same lists.
//
// Each foreign key holds one editable form per direction: a dense forward
// array (an owner tuple's referenced tuple, -1 once tombstoned) and one
// ascending backward list per referenced tuple. Build constructs them from
// scratch; Graph.Apply edits a committed mutation batch into them in
// place, in work proportional to the tuples touched.
//
// # Invariants
//
//   - Build cuts every backward list from one backing array with a full
//     slice expression (cap == len), and Cross returns a forward edge as
//     fwd[t:t+1:t+1]: appending to a list never writes into another
//     tuple's list.
//   - A forward entry is -1 exactly when its owner tuple is tombstoned;
//     Cross then returns nil.
//   - Apply requires the batch to be already committed to the graph's
//     database — it reads the post-commit relation sizes, the inserted
//     tuples' FK values and the PK index — and the per-relation id lists
//     must be ascending: exactly the relational.BatchResult contract.
//   - Apply edits lists in place, so Cross results are valid only until
//     the next Apply; callers that retain a list must copy it.
//   - After any Apply the graph is edge-exact with a from-scratch Build
//     over the mutated store — same relation sizes, same neighbor list on
//     every (foreign key, direction, tuple).
//     EquivalentTo is that relation; the randomized mutation-equivalence
//     harness (mutation_equiv_test.go at the repo root) asserts it after
//     every seeded batch.
//   - Node ids are positional and stable across Apply: a tombstoned tuple
//     keeps its (disconnected) node, an inserted tuple takes a fresh id
//     larger than every existing id of its relation. Only a physical
//     compaction (which rebuilds the graph) moves ids.
package datagraph
