package sizel

import (
	"context"
	"fmt"

	"sizelos/internal/ostree"
)

// DP computes the optimal size-l OS (Algorithm 1). For every node v at
// depth d(v) it computes the best subtree of i nodes rooted at v for all
// i ≤ l−d(v), combining children with a grouped knapsack and reconstructing
// the winning selection from recorded choices.
//
// The paper's analysis treats the child-combination step as exhaustive
// (O(n^l) overall); the knapsack merge here explores the same solution
// space exactly in O(n·l²) — still far costlier than the greedy heuristics,
// preserving the efficiency ordering of Figure 10 (see
// docs/EXPERIMENTS.md).
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

	n := t.Len()
	// best[v] has length cap(v)+1 where cap(v) = l - depth(v):
	// best[v][i] = max importance of an i-node subtree rooted at v
	// (i=0 → 0, i>=1 includes v). take[v] records, per child position and
	// node budget, how many nodes the winning combination assigned to that
	// child.
	best := make([][]float64, n)
	take := make([][][]int16, n)

	// Process nodes in reverse arena order: Generate appends in BFS order,
	// so children always have higher ids than parents — reverse order is a
	// valid bottom-up schedule.
	for v := n - 1; v >= 0; v-- {
		if ctx.Err() != nil {
			return Result{}, ctx.Err()
		}
		node := &t.Nodes[v]
		capV := l - int(node.Depth)
		if capV <= 0 {
			continue // deeper than l-1: unusable (footnote 1)
		}
		row := make([]float64, capV+1)
		for i := 1; i <= capV; i++ {
			row[i] = negInf
		}
		// comb[j] = best importance using the first c children with j
		// selected nodes in total.
		comb := make([]float64, capV) // at most capV-1 child nodes used
		for j := 1; j < len(comb); j++ {
			comb[j] = negInf
		}
		usable := usableChildren(t, node, l)
		takeV := make([][]int16, len(usable))
		for ci, c := range usable {
			childBest := best[c]
			tk := make([]int16, len(comb))
			for i := range tk {
				tk[i] = -1
			}
			// Merge child c into comb, iterating budgets downward so each
			// child is counted once.
			for j := len(comb) - 1; j >= 0; j-- {
				bestVal := comb[j]
				bestTake := int16(0)
				maxFromChild := len(childBest) - 1
				if maxFromChild > j {
					maxFromChild = j
				}
				for k := 1; k <= maxFromChild; k++ {
					if comb[j-k] == negInf || childBest[k] == negInf {
						continue
					}
					if val := comb[j-k] + childBest[k]; val > bestVal {
						bestVal = val
						bestTake = int16(k)
					}
				}
				comb[j] = bestVal
				tk[j] = bestTake
			}
			takeV[ci] = tk
		}
		for i := 1; i <= capV; i++ {
			if i-1 < len(comb) && comb[i-1] != negInf {
				row[i] = node.Weight + comb[i-1]
			}
		}
		best[v] = row
		take[v] = takeV
	}

	if best[0] == nil || l >= len(best[0]) || best[0][l] == negInf {
		// Fewer than l usable nodes (depth exclusions): fall back to the
		// largest feasible size.
		feasible := l
		for feasible > 0 && (feasible >= len(best[0]) || best[0][feasible] == negInf) {
			feasible--
		}
		if feasible == 0 {
			return Result{}, fmt.Errorf("sizel: no feasible size-%d OS", l)
		}
		l = feasible
	}

	// Reconstruct the chosen selection.
	var chosen []ostree.NodeID
	var rec func(v int, budget int)
	rec = func(v int, budget int) {
		chosen = append(chosen, ostree.NodeID(v))
		remaining := budget - 1
		usable := usableChildren(t, &t.Nodes[v], l)
		for ci := len(usable) - 1; ci >= 0 && remaining > 0; ci-- {
			k := int(take[v][ci][remaining])
			if k > 0 {
				rec(int(usable[ci]), k)
				remaining -= k
			}
		}
	}
	rec(0, l)
	return normalize(t, chosen, name), nil
}

// usableChildren filters children that can contribute at least one node
// (depth < l).
func usableChildren(t *ostree.Tree, n *ostree.Node, l int) []ostree.NodeID {
	out := make([]ostree.NodeID, 0, len(n.Children))
	for _, c := range n.Children {
		if int(t.Nodes[c].Depth) < l {
			out = append(out, c)
		}
	}
	return out
}

var negInf = float64(-1 << 60)
