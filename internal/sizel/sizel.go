package sizel

import (
	"context"
	"fmt"
	"slices"

	"sizelos/internal/ostree"
)

// Result is a computed size-l OS.
type Result struct {
	// Nodes are the selected tree node ids, in ascending id order. They
	// always form a connected subtree containing the root (Definition 1).
	Nodes []ostree.NodeID
	// Importance is Im(S): the sum of selected local importances (Eq. 2).
	Importance float64
	// Algorithm names the method that produced the result.
	Algorithm string
}

// Select computes the size-l OS of t with the named algorithm — "dp" (DP,
// the optimum), "bottom-up" (BottomUp) or "top-path" (TopPath) — the one
// dispatch every caller names an algorithm through. ctx bounds DP only.
func Select(ctx context.Context, algorithm string, t *ostree.Tree, l int) (Result, error) {
	switch algorithm {
	case "dp":
		return DP(ctx, t, l)
	case "bottom-up":
		return BottomUp(t, l)
	case "top-path":
		return TopPath(t, l, TopPathOptions{})
	}
	return Result{}, fmt.Errorf("sizel: unknown algorithm %q", algorithm)
}

// normalize sorts and sums a selection.
func normalize(t *ostree.Tree, nodes []ostree.NodeID, algorithm string) Result {
	slices.Sort(nodes)
	return Result{Nodes: nodes, Importance: t.ImportanceOf(nodes), Algorithm: algorithm}
}

// wholeTree returns every node: the answer whenever l >= |OS|.
func wholeTree(t *ostree.Tree, algorithm string) Result {
	nodes := make([]ostree.NodeID, t.Len())
	for i := range nodes {
		nodes[i] = ostree.NodeID(i)
	}
	return normalize(t, nodes, algorithm)
}

func checkArgs(t *ostree.Tree, l int) error {
	if t == nil || t.Len() == 0 {
		return fmt.Errorf("sizel: empty OS")
	}
	if l < 1 {
		return fmt.Errorf("sizel: l must be >= 1, got %d", l)
	}
	return nil
}
