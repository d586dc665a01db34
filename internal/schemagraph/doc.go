// Package schemagraph implements Data Subject Schema Graphs (G_DS): the
// "treealization" of a database schema around a data-subject relation R_DS
// (paper §2.1, Figures 2 and 12). A G_DS is a directed labeled tree whose
// root is R_DS; child nodes are the relations reachable through foreign
// keys, with looped and many-to-many relationships replicated under role
// labels (Co-Author, PaperCites, PaperCitedBy, ...).
//
// Each node carries an affinity Af(Ri) to R_DS (Eq. 1) and, once annotated
// against a ranking setting, the statistics max(Ri) and mmax(Ri) that drive
// the prelim-l avoidance conditions (Def. 2, §5.3).
//
// Two construction paths are provided, mirroring the paper's note that
// affinity can be computed from metrics or set by a domain expert:
//
//   - Expert: Build* methods assemble a G_DS with explicit affinities; the
//     experiments use presets equal to the paper's Figures 2 and 12.
//   - Automatic: Treealize derives the tree from the schema and computes
//     affinities from distance/connectivity/cardinality metrics.
//
// GDS.Bind checks every step against a database and records each node's
// relation ordinal and datagraph.Hop from its parent: Step is read once,
// there, and extraction (package ostree) refuses an unbound G_DS. Clone and
// Threshold keep the binding.
//
// # Invariants
//
//   - Annotation mutates nodes in place: clone before annotating against a
//     different ranking setting (the engine keeps one annotated clone per
//     (DS relation, setting) pair).
//   - Max/MMax are UPPER bounds consumed by the prelim-l avoidance
//     conditions: an understated bound can prune a tuple that belonged in
//     the summary, an overstated one only costs work. AnnotateMax is the
//     one annotation path: it reads each relation's largest served score,
//     and the engine re-annotates every G_DS whenever those maxima can
//     move (a re-rank, a compaction, a restore).
//   - Threshold(theta) keeps a node only if all its ancestors are kept —
//     affinity decreases along paths, so G_DS(θ) is a subtree.
package schemagraph
