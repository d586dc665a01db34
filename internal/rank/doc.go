// Package rank computes global tuple-importance scores over the data graph.
// It implements the two scoring schemes the paper uses (§2.2, §6):
//
//   - ObjectRank (Balmin et al., VLDB 2004): PageRank generalized with an
//     Authority Transfer Schema Graph G_A that assigns an authority transfer
//     rate to each schema edge and direction. Used for DBLP.
//   - ValueRank (Fakas & Cai, DBRank 2009): ObjectRank extended so that the
//     authority a tuple passes along an edge is distributed proportionally
//     to the values of the receiving tuples (e.g. a $100 order receives more
//     of its customer's authority than a $10 one). Used for TPC-H.
//
// The size-l algorithms are orthogonal to the scheme (§2.2 note); they only
// consume the resulting per-tuple scores.
//
// Authority flows are declared on the *conceptual* schema graph, where an
// M:N relationship (Paper—Author through the Writes junction) is a single
// edge. A junction flow pushes authority through the junction rows to the
// far side in one step, so junction tuples neither hold nor echo authority
// for that flow — matching how G_A figures like the paper's Figure 13 are
// drawn.
//
// Execution model: Compile binds each flow of a G_A to a datagraph.Hop —
// the same edge description G_DS steps bind to — and crosses it from every
// source tuple into *Plans: per-flow push rows, the one form of the flows,
// and one contiguous score arena. Each source's row is a span of its
// flow's one append-only store; one row builder makes every row, for every
// source at Compile and for the sources a batch changed (Hop.ChangedFrom
// finds those through the hop's owner) at Plans.Apply, so no flow kind is
// switched on anywhere. Plans.Run is the power iteration (cold or warm),
// scattering along those rows: Compile and Run are the one way to rank.
// Plans.Apply appends a committed mutation batch's rebuilt rows;
// Plans.RunResidual repairs the prior fixed point, in the caller's own
// vectors, with a localized Gauss–Southwell residual push seeded from the
// captured rows or one exact sweep (residual.go has the math, push.go the
// one push loop) and has one safety net: when the seeded residual is too
// large or the push budget runs out, the same call returns Plans.Run
// warm-started from what the repair left in those vectors instead. What
// one entry of a source row transfers is written once (split, in rank.go);
// the full iteration, the seeding and the push all read it there.
//
// # Invariants
//
//   - Options.Warm — and the prior RunResidual repairs — must be RAW
//     scores (NormalizeMax == 0 output). Normalize's presentation rescale
//     moves a vector far from the fixed point; feeding it back as a warm
//     start squanders the head start, and feeding it to RunResidual breaks
//     the residual-seeding identity outright. Callers keep the raw table
//     and serve it at a scale (relational.Scaled).
//   - RunResidual repairs Options.Warm in place: it rescales the prior
//     there and adds every push into it as it is made. A completed repair
//     returns Options.Warm itself; a fallback returns exactly Plans.Run
//     warm-started from what the repair left in it. It allocates, clears
//     and copies nothing of arena size: the residual vector and the node
//     marks are a scratch of the Plans', all-zero between repairs and
//     zeroed by walking the nodes the repair wrote. It reports each
//     relation's maximum (Stats.Max) from the rescale and the pushed
//     nodes, rescanning a relation only when the node that held its
//     maximum was pushed below it.
//   - Plans.Run has one canonical order: each destination's contributions
//     are summed plan ordinal, source ascending, target position, by the
//     one goroutine that runs the iteration, so equal plans and options
//     give bit-for-bit equal scores. RunResidual is as deterministic: one
//     walker drains one FIFO queue seeded in ascending order, adding each
//     push's contributions in plan-ordinal, row order, and the budget is
//     checked per push, so a repair — fallback decision included — is a
//     pure function of the prior, the pending delta and the options.
//   - Plans.Apply requires the batch to be already applied to the plans'
//     database AND data graph (it rebuilds changed rows from both), and
//     must be serialized against Run/RunResidual by the caller. The engine
//     does all three under its write lock, in that order.
//   - A row is only ever appended to its store, never written over, and a
//     store that has to grow moves its live rows into new arrays (dropping
//     the dead ones) without writing the old arrays again; rows are handed
//     out capped at their end. So a row read before a batch stays valid
//     after it. A Pending pairs the prior scores with the FIRST
//     pre-mutation row of every changed source, read that way; it is
//     invalidated by anything that remaps TupleIDs (physical compaction):
//     the caller drops it, recompiles, and seeds the next repair from a
//     sweep under the compacted arena's Geometry.
//   - Run and RunResidual stop on the same criterion — max per-node
//     residual below Options.Epsilon (the full iteration's per-node delta
//     IS its residual) — so both land in the same fixed-point tolerance
//     class, which is what lets the engine serve either result
//     interchangeably.
package rank
