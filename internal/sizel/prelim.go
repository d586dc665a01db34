package sizel

import (
	"fmt"
	"slices"

	"sizelos/internal/ostree"
	"sizelos/internal/relational"
	"sizelos/internal/schemagraph"
)

// PrelimOptions configures prelim-l OS generation (Algorithm 4). The two
// avoidance conditions can be disabled independently for ablation studies;
// with both disabled, PrelimL degenerates to complete-OS generation.
type PrelimOptions struct {
	// DisableAC1 turns off Avoidance Condition 1 (skipping provably
	// fruitless G_DS subtrees).
	DisableAC1 bool
	// DisableAC2 turns off Avoidance Condition 2 (TOP-l-with-threshold
	// extraction from fruitful-l relations).
	DisableAC2 bool
	// MaxDepth mirrors ostree.GenOptions.MaxDepth (footnote 1); pass l-1
	// when generating for a size-l query. Zero means unbounded.
	MaxDepth int
	// Into, when non-nil, is the tree PrelimL returns, its node arena reused
	// (ostree.Build); whatever it held before is overwritten. The engine
	// reuses its arenas and keeps only ostree.Tree.Compact copies.
	Into *ostree.Tree
}

// PrelimStats reports what the avoidance conditions saved.
type PrelimStats struct {
	// Extracted is the number of tuples placed in the prelim-l OS.
	Extracted int
	// AC1Skips counts G_DS subtrees skipped by Avoidance Condition 1.
	AC1Skips int
	// AC2TopL counts extractions served as TOP-l joins by Avoidance
	// Condition 2.
	AC2TopL int
	// Accesses is the number of extraction operations charged.
	Accesses int64
	// TopWeights is the final content of the top-l PQ, descending: the l
	// largest local importances of the OS (all of them when it holds fewer
	// than l tuples). Their sum bounds Im(S) of every size-l selection from
	// above, connected or not.
	TopWeights []float64
}

// PrelimL generates the top-l prelim-l OS (Definition 2, Algorithm 4): a
// partial OS guaranteed to contain the l tuples of the complete OS with the
// largest local importance, built by breadth-first G_DS traversal with two
// pruning rules driven by the max(Ri)/mmax(Ri) annotations:
//
//   - AC1: if the current largest-l watermark already dominates both
//     max(Ri) and mmax(Ri), the whole G_DS subtree rooted at Ri is
//     fruitless and is not traversed.
//   - AC2: if the watermark dominates mmax(Ri) only, Ri is fruitful-l: at
//     most l tuples above the watermark can matter, so the extraction is a
//     TOP-l join instead of a full join.
//
// The G_DS must have been annotated (GDS.AnnotateMax) with the same
// ranking setting as src. Any size-l algorithm can then run on the returned
// tree; by Lemma 3 the result is optimal whenever local importance is
// monotone with depth.
func PrelimL(src ostree.Source, gds *schemagraph.GDS, root relational.TupleID, l int, opts PrelimOptions) (*ostree.Tree, PrelimStats, error) {
	if l < 1 {
		return nil, PrelimStats{}, fmt.Errorf("sizel: l must be >= 1, got %d", l)
	}
	if gds.Root.Max == 0 && gds.Root.MMax == 0 {
		// Annotations default to zero; a zero root max means AnnotateMax
		// was not run (the root relation always has some positive score).
		return nil, PrelimStats{}, fmt.Errorf("sizel: G_DS not annotated with max/mmax statistics")
	}

	stats := PrelimStats{}
	src.ResetAccesses()
	tree := opts.Into
	if tree == nil {
		tree = &ostree.Tree{}
	}

	// top-l PQ: an l-sized min-heap over extracted local importances.
	// largest-l is its minimum once full, else 0 (Alg. 4 lines 20-23). Each
	// decision first offers the weights extracted since the last one.
	topl := newTopL(l)
	offered := 0
	offer := func() {
		for ; offered < tree.Len(); offered++ {
			topl.offer(tree.Nodes[offered].Weight)
		}
	}
	err := ostree.Build(tree, src, gds, root, ostree.GenOptions{MaxDepth: opts.MaxDepth},
		func(gchild *schemagraph.Node, parent relational.TupleID) []relational.TupleID {
			offer()
			watermark := topl.largestL()
			// Avoidance Condition 1: fruitless G_DS subtree.
			if !opts.DisableAC1 && watermark >= gchild.Max && watermark >= gchild.MMax && topl.full() {
				stats.AC1Skips++
				return nil
			}
			if !opts.DisableAC2 && watermark >= gchild.MMax {
				// Avoidance Condition 2: fruitful-l relation. Convert the
				// local-importance watermark to a global-score threshold.
				stats.AC2TopL++
				return src.ChildrenTopL(gchild, parent, watermark/gchild.Affinity, l)
			}
			return src.Children(gchild, parent)
		})
	if err != nil {
		return nil, PrelimStats{}, err
	}
	offer()
	stats.Extracted = tree.Len()
	stats.Accesses = src.Accesses()
	stats.TopWeights = topl.descending()
	return tree, stats, nil
}

// topL is the top-l PQ: the l largest weights offered so far, in a leafHeap
// (ids unused) whose minimum is largest-l once l were offered.
type topL struct {
	l  int
	pq leafHeap
}

func newTopL(l int) *topL {
	// Presized for the l values queries use; a larger l just grows.
	return &topL{l: l, pq: leafHeap{items: make([]leafItem, 0, min(l, 64))}}
}

func (h *topL) full() bool { return len(h.pq.items) >= h.l }

// largestL is the l-th largest weight offered so far, 0 until l were.
func (h *topL) largestL() float64 {
	if !h.full() {
		return 0
	}
	return h.pq.items[0].w
}

// offer keeps w if it is among the l largest weights offered so far.
func (h *topL) offer(w float64) {
	switch {
	case !h.full():
		h.pq.push(leafItem{w: w})
	case w > h.pq.items[0].w:
		h.pq.items[0].w = w
		h.pq.down(0)
	}
}

// descending returns the kept weights, largest first.
func (h *topL) descending() []float64 {
	out := make([]float64, len(h.pq.items))
	for i, it := range h.pq.items {
		out[i] = it.w
	}
	slices.Sort(out)
	slices.Reverse(out)
	return out
}
