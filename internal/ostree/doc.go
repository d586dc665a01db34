// Package ostree materializes Object Summaries: the tree of tuples around a
// data-subject tuple t_DS, produced by traversing a G_DS breadth-first
// (paper §2.1 and Algorithm 5). It provides
//
//   - the OS tree representation consumed by the size-l algorithms,
//   - two extraction sources — directly against the relational database and
//     against the in-memory data graph — matching the two generation paths
//     whose costs Figure 10f compares, and
//   - the indented rendering used in the paper's Examples 4 and 5.
//
// One hop rule: Build walks only a bound G_DS (schemagraph.GDS.Bind).
// GraphSource crosses each node's datagraph.Hop (reversed for Parents) and
// reads scores by relation ordinal, resolved once per source: no name is
// looked up per extraction. It reads them at a scale
// (NewScaledGraphSource), so the engine extracts from its raw vectors, and
// walks a TOP-l extraction off the hop's score-ordered lists (Ordered).
// DBSource reads the name-based Step instead.
//
// # Invariants
//
//   - The two sources (database joins and data graph) must produce
//     identical trees for the same (G_DS, t_DS) — Figure 10f compares
//     their cost, not their output. Junction tuples are traversed but
//     never appear as OS nodes; tombstoned junction rows are skipped by
//     both sources.
//   - Trees hold TupleIDs, not copies: they are snapshots of one mutation
//     quiescence and must not be traversed across an Engine.Mutate that can
//     reach their subject (the engine's summary cache keys them by stamp).
//   - An Ordered family lists, per parent, a permutation of Graph.Cross
//     non-increasing in raw score, repaired or dropped by every write: the
//     walk returns what filtering and sorting every child would.
//   - GraphSource.Parents is the exact inverse of Children; Subjects lists
//     every subject whose OS a batch changed (the engine keeps the rest).
//   - An extraction result (Children, ChildrenTopL) is read-only and may
//     alias the source's scratch: it is valid until the next extraction on
//     that source. Parents returns the caller's own slice, since Subjects
//     recurses while it iterates one.
//   - Complete and prelim-l OSs grow through one breadth-first builder
//     (Build) whose node arena is its queue and can be reused tree after
//     tree. A node's child list is a read-only sub-slice of the shared Iota
//     ids: never written through, and valid for as long as the tree is.
package ostree
