package sizel

import (
	"context"

	"sizelos/internal/ostree"
)

// DP computes the optimal size-l OS (Algorithm 1). For every node v at
// depth d(v) it computes the best subtree of i nodes rooted at v for all
// i ≤ l−d(v), combining children with a grouped knapsack and reconstructing
// the winning selection from recorded choices.
//
// The paper's analysis treats the child-combination step as exhaustive
// (O(n^l) overall); the knapsack merge here explores the same solution
// space exactly. A merge only tries budgets the subtrees can fill: child c,
// holding size(c) usable nodes, joins the acc nodes merged before it at
// budgets j ≤ min(cap−1, acc+size(c)) with shares
// max(1, j−acc) ≤ k ≤ min(size(c), j), so the whole DP costs
// O(n·min(n, l)) time and table space. Every (j, k) left out is one where
// the merged children hold no j−k-node selection or the child no k-node
// subtree — a candidate the unbounded O(n·l²) merge skips too — so the
// candidates that remain are compared in the same ascending-k order under
// the same strict >, and the selection and its Im(S) are bit-identical to
// that merge's (TestDPMatchesReference). Figure 10 times it against the
// greedy heuristics (see docs/EXPERIMENTS.md).
//
// The context lets callers abort long runs (the paper stopped DP after 30
// minutes on large OSs); on cancellation DP returns ctx.Err().
func DP(ctx context.Context, t *ostree.Tree, l int) (Result, error) {
	const name = "dp"
	if err := checkArgs(t, l); err != nil {
		return Result{}, err
	}
	if l >= t.Len() {
		return wholeTree(t, name), nil
	}

	// Generate appends in BFS order, so children always have higher ids
	// than parents: reverse arena order is a valid bottom-up schedule.
	// The pre-pass sizes the arenas. size is the usable nodes (depth < l,
	// footnote 1) of a node's subtree, 0 for an unusable node; best is the
	// offset of its row best[i], i ≤ min(cap, size) with cap = l − depth:
	// the max importance of an i-node subtree rooted at it. take is the
	// offset of the row, indexed by budget j, of how many nodes the winning
	// combination of its parent assigned to it when it was merged.
	n := t.Len()
	meta := make([]struct{ size, best, take int }, n)
	nBest, nTake := 0, 0
	for v := n - 1; v >= 0; v-- {
		capV := l - int(t.Nodes[v].Depth)
		if capV <= 0 {
			continue
		}
		acc := 0
		for _, c := range t.Nodes[v].Children {
			if meta[c].size > 0 {
				acc += meta[c].size
				meta[c].take, nTake = nTake, nTake+min(capV-1, acc)+1
			}
		}
		meta[v].size, meta[v].best = 1+acc, nBest
		nBest += min(capV, 1+acc) + 1
	}
	best := make([]float64, nBest)
	take := make([]int16, nTake)
	// comb[j] = best importance of j nodes drawn from the children merged
	// so far; only j ≤ acc is ever read.
	comb := make([]float64, min(l, meta[0].size))

	for v := n - 1; v >= 0; v-- {
		if ctx.Err() != nil {
			return Result{}, ctx.Err()
		}
		m := meta[v]
		if m.size == 0 {
			continue
		}
		node := &t.Nodes[v]
		capV := l - int(node.Depth)
		comb[0] = 0
		acc := 0
		for _, c := range node.Children {
			s := meta[c].size
			if s == 0 {
				continue
			}
			childBest, tk := best[meta[c].best:], take[meta[c].take:]
			// Iterate budgets downward so each child is counted once.
			for j := min(capV-1, acc+s); j >= 0; j-- {
				bestVal, bestTake := negInf, int16(0)
				if j <= acc {
					bestVal = comb[j]
				}
				for k, hi := max(1, j-acc), min(s, j); k <= hi; k++ {
					if val := comb[j-k] + childBest[k]; val > bestVal {
						bestVal, bestTake = val, int16(k)
					}
				}
				comb[j], tk[j] = bestVal, bestTake
			}
			acc += s
		}
		row := best[m.best : m.best+min(capV, m.size)+1]
		for i := 1; i < len(row); i++ {
			row[i] = node.Weight + comb[i-1]
		}
	}

	// Fewer than l usable nodes (depth exclusions): the largest feasible
	// size is all of them.
	l = min(l, meta[0].size)
	chosen := make([]ostree.NodeID, 0, l)
	var rec func(v, budget int)
	rec = func(v, budget int) {
		chosen = append(chosen, ostree.NodeID(v))
		remaining := budget - 1
		children := t.Nodes[v].Children
		for ci := len(children) - 1; ci >= 0 && remaining > 0; ci-- {
			c := children[ci]
			if meta[c].size == 0 {
				continue
			}
			if k := int(take[meta[c].take+remaining]); k > 0 {
				rec(int(c), k)
				remaining -= k
			}
		}
	}
	rec(0, l)
	return normalize(t, chosen, name), nil
}

var negInf = float64(-1 << 60)
