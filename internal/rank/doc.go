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
// Execution model: Compile resolves a G_A against one data graph into
// *Plans — per-flow CSR push rows, the one form of the flows, and one
// contiguous score arena — and Plans.Run is the power iteration (cold or
// warm), scattering along those rows: the two are the one way to rank.
// Plans.Apply splices a committed mutation batch into the compiled rows;
// Plans.RunResidual repairs the prior fixed point, in the caller's own
// vectors, with a localized Gauss–Southwell residual push (residual.go has
// the math, push.go the round schedule) and has one safety net: when the
// seeded residual is too large or the push budget runs out, the same call
// returns Plans.Run warm-started from the prior instead. What one entry of
// a source row transfers is written once (split, in rank.go); the full
// iteration, the residual seeding and the push all read it there.
//
// # Invariants
//
//   - Options.Warm — and the prior RunResidual repairs — must be RAW
//     scores (NormalizeMax == 0 output). Normalize's presentation rescale
//     moves a vector far from the fixed point; feeding it back as a warm
//     start squanders the head start, and feeding it to RunResidual breaks
//     the residual-seeding identity outright. Callers keep two tables.
//   - RunResidual writes no score until its push has drained: a completed
//     repair returns Options.Warm itself, rewritten in place, and a
//     fallback returns exactly Plans.Run over the untouched prior. It
//     allocates, clears and copies nothing of arena size: the residual
//     vector and the node marks are a scratch of the Plans', all-zero
//     between repairs and zeroed by walking the nodes the repair wrote.
//   - Plans.Run has one canonical order: each destination's contributions
//     are summed plan ordinal, source ascending (overlaid rows merged in),
//     target position, by the one goroutine that runs the iteration, so
//     equal plans and options give bit-for-bit equal scores. RunResidual is as deterministic: its rounds
//     are frozen-value, one walker applies a round's contributions in
//     source-ascending order, and the budget is checked per round, so a
//     repair — fallback decision included — is a pure function of the
//     prior, the pending delta and the options.
//   - Plans.Apply requires the batch to be already applied to the plans'
//     database AND data graph (it recomputes changed rows from both), and
//     must be serialized against Run/RunResidual by the caller. The engine
//     does all three under its write lock, in that order.
//   - A Pending pairs the prior scores with the FIRST pre-mutation row of
//     every changed source; it is invalidated by anything that remaps
//     TupleIDs (physical compaction). After a remap the caller must drop
//     the Pending, recompile, and take one warm full re-rank before
//     resuming residual repairs.
//   - Run and RunResidual stop on the same criterion — max per-node
//     residual below Options.Epsilon (the full iteration's per-node delta
//     IS its residual) — so both land in the same fixed-point tolerance
//     class, which is what lets the engine serve either result
//     interchangeably.
package rank
