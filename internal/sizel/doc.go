// Package sizel implements the paper's primary contribution: computing a
// size-l Object Summary — the connected, root-containing subtree of exactly
// l tuples with maximum total local importance (Problem 1) — from a
// complete or preliminary OS tree.
//
// Four algorithms are provided:
//
//   - DP (Algorithm 1): exact dynamic programming over the tree, a
//     tree knapsack whose merges only try budgets a subtree can fill,
//     O(n·min(n, l)). Every budget it leaves out holds no candidate, so it
//     returns the nodes and Im(S) bits of the unbounded O(n·l²) merge
//     (TestDPMatchesReference keeps that merge as its oracle).
//   - BruteForce: exhaustive enumeration of candidate size-l OSs, feasible
//     only on tiny trees; used to verify DP in tests.
//   - BottomUp (Algorithm 2): greedy leaf pruning with a priority queue,
//     O(n log n); optimal whenever local importance is monotone
//     non-increasing with depth (Lemma 2).
//   - TopPath (Algorithm 3): greedy path insertion by maximum average path
//     importance AI(p_i), with the subtree-champion optimization the paper
//     sketches (s(v)).
//
// PrelimL (Algorithm 4) generates the preliminary partial OS with the two
// avoidance conditions, on which any of the above can run. Select is the
// one dispatch from an algorithm's name ("dp", "bottom-up", "top-path") to
// its function: the engine and the evaluation harness both go through it.
//
// # Invariants
//
//   - All four algorithms select from the SAME tree object and return node
//     sets that always include the root and induce a connected subtree of
//     exactly min(l, tree size) nodes.
//   - DP is the ground truth: BruteForce verifies it on tiny trees, and
//     the greedy methods are measured against it (Figure 9). Changes to
//     tree generation must keep DP ≡ BruteForce exact.
//   - PrelimL's avoidance conditions consume the G_DS Max/MMax bounds;
//     they assume those are upper bounds on local importance (see package
//     schemagraph).
package sizel
