package sizel

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sizelos/internal/ostree"
	"sizelos/internal/relational"
)

// dpReference is DP's merge before it was bounded by subtree sizes: every
// child merged for every budget j < cap and every share k ≤ j, the empty
// ones skipped by the negInf test. O(n·l²); kept only as the oracle of
// TestDPMatchesReference.
func dpReference(ctx context.Context, t *ostree.Tree, l int) (Result, error) {
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

// sameDP fails t unless DP and dpReference agree on (tree, l) bit for bit:
// both err or neither, equal Nodes, equal Importance bits.
func sameDP(t *testing.T, ctx context.Context, tree *ostree.Tree, l int, what string) {
	t.Helper()
	got, gotErr := DP(ctx, tree, l)
	want, wantErr := dpReference(ctx, tree, l)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s l=%d: DP err %v, reference err %v", what, l, gotErr, wantErr)
	}
	if !slices.Equal(got.Nodes, want.Nodes) || math.Float64bits(got.Importance) != math.Float64bits(want.Importance) {
		t.Fatalf("%s l=%d: DP %v Im=%v, reference %v Im=%v", what, l, got.Nodes, got.Importance, want.Nodes, want.Importance)
	}
}

// deepTree builds a chain-biased random tree of n nodes: most nodes hang
// under one of the last three, so depths run past l and the cap = l − depth
// cut decides which nodes are usable.
func deepTree(r *rand.Rand, n int) *ostree.Tree {
	parents, weights := make([]int, n), make([]float64, n)
	parents[0] = -1
	for i := 1; i < n; i++ {
		parents[i] = i - 1 - r.Intn(min(i, 3))
		if r.Intn(8) == 0 {
			parents[i] = r.Intn(i)
		}
		weights[i] = r.Float64() * 10
	}
	return buildTree(nil, parents, weights)
}

// tieWeights redraws every weight from {0, 0.25, 0.5}, so many budgets have
// several equal-valued combinations and the first-wins tie order decides.
func tieWeights(r *rand.Rand, tree *ostree.Tree) *ostree.Tree {
	for i := range tree.Nodes {
		tree.Nodes[i].Weight = 0.25 * float64(r.Intn(3))
	}
	return tree
}

// TestDPMatchesReference: the size-bounded merge is the unbounded one with
// only never-taken iterations removed, so its selection and the bits of its
// Im(S) equal dpReference's on random, tie-heavy and deep trees and on real
// prelim-l and complete OSs of DBLP Author and TPC-H Customer/Supplier, and
// both error on the same inputs.
func TestDPMatchesReference(t *testing.T) {
	ctx := context.Background()
	ls := []int{1, 2, 3, 5, 10, 17, 30, 50}
	r := rand.New(rand.NewSource(34))
	for trial := 0; trial < 3200; trial++ {
		n := 1 + r.Intn(400)
		if trial%3 == 0 {
			n = 1 + r.Intn(40)
		}
		l := ls[r.Intn(len(ls))]
		var tree *ostree.Tree
		switch trial % 4 {
		case 0:
			tree = randomTree(r, n, false)
		case 1:
			tree = tieWeights(r, randomTree(r, n, false))
		case 2:
			tree = deepTree(r, n)
		default:
			tree = tieWeights(r, deepTree(r, n))
		}
		sameDP(t, ctx, tree, l, fmt.Sprintf("trial %d (n=%d, shape %d)", trial, n, trial%4))
	}

	for _, fx := range boundFixtures(t) {
		src := ostree.NewGraphSource(fx.graph, fx.scores)
		for _, root := range []relational.TupleID{0, 1, relational.TupleID(fx.roots / 3), relational.TupleID(fx.roots / 2), relational.TupleID(fx.roots - 1)} {
			complete := mustGenerate(t, src, fx.gds, root)
			for _, l := range []int{3, 17, 50} {
				prelim, _, err := PrelimL(src, fx.gds, root, l, PrelimOptions{})
				if err != nil {
					t.Fatalf("%s: PrelimL: %v", fx.name, err)
				}
				sameDP(t, ctx, prelim, l, fmt.Sprintf("%s root %d prelim", fx.name, root))
				sameDP(t, ctx, complete, l, fmt.Sprintf("%s root %d complete (%d nodes)", fx.name, root, complete.Len()))
			}
		}
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	tree := randomTree(r, 50, false)
	for _, tc := range []struct {
		ctx  context.Context
		tree *ostree.Tree
		l    int
	}{
		{ctx, nil, 5}, {ctx, &ostree.Tree{}, 5}, {ctx, tree, 0}, {ctx, tree, -1},
		{cancelled, tree, 10}, {cancelled, tree, 50},
	} {
		sameDP(t, tc.ctx, tc.tree, tc.l, "argument check")
	}
}

// TestDPAllocsIndependentOfSize: DP's tables are a fixed number of arenas,
// so a 2,000-node tree allocates as often as a 200-node one, and no more
// than the ceiling.
func TestDPAllocsIndependentOfSize(t *testing.T) {
	const ceiling, l = 5, 50
	r := rand.New(rand.NewSource(7))
	var counts []float64
	for _, n := range []int{200, 2000} {
		tree := randomTree(r, n, false)
		counts = append(counts, testing.AllocsPerRun(10, func() {
			if _, err := DP(context.Background(), tree, l); err != nil {
				t.Fatal(err)
			}
		}))
	}
	t.Logf("DP at l=%d allocates %v times on 200 and 2,000 nodes", l, counts)
	if counts[0] != counts[1] || counts[1] > ceiling {
		t.Fatalf("DP at l=%d allocates %v times on 200 and 2,000 nodes; want equal and at most %d", l, counts, ceiling)
	}
}
