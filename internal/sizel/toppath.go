package sizel

import (
	"slices"

	"sizelos/internal/ostree"
)

// TopPathOptions tunes the Update Top-Path-l algorithm.
type TopPathOptions struct {
	// NoChampionCache disables the s(v) subtree-champion optimization the
	// paper sketches (§5.2) and recomputes every AI(p_i) from scratch after
	// each path selection. Used by the ablation benchmarks; results are
	// identical.
	NoChampionCache bool
}

// TopPath computes a size-l OS with the Update Top-Path-l heuristic
// (Algorithm 3): repeatedly select the path (from the current forest root
// down) with the largest average importance per tuple AI(p_i), append it to
// the summary, split the forest at the removed path, and update AI for the
// affected subtrees. If fewer slots remain than the path length, only the
// top nodes of the path are taken (they are the ones connected to the
// current summary).
func TopPath(t *ostree.Tree, l int, opts TopPathOptions) (Result, error) {
	const name = "top-path"
	if err := checkArgs(t, l); err != nil {
		return Result{}, err
	}
	n := t.Len()
	if l >= n {
		return wholeTree(t, name), nil
	}

	selected := make([]bool, n)
	count := 0
	chosen := make([]ostree.NodeID, 0, l)

	// The forest starts as the single tree root. For each forest root we
	// track its champion: the node with max AI in its subtree, where AI is
	// the average weight along the path from the forest root. Roots wait in
	// a leafHeap keyed (-AI, -root): its minimum is the largest AI, ties to
	// the smaller root. Buffers are presized for the l values queries use.
	w := walker{t: t, stack: make([]frame, 0, 64), path: make([]ostree.NodeID, 0, l)}
	champ := make([]ostree.NodeID, n)
	pq := leafHeap{items: make([]leafItem, 0, 64)}
	push := func(root ostree.NodeID) {
		var ai float64
		champ[root], ai = w.champion(root)
		pq.push(leafItem{-ai, -root})
	}
	push(t.Root())

	for count < l && len(pq.items) > 0 {
		root := -pq.pop().id
		if opts.NoChampionCache {
			// Ablation mode: recompute this root's champion at pop time
			// instead of trusting the value cached at push time. Results
			// are identical (a root's subtree never changes while it waits
			// in the queue); the flag measures the recomputation cost.
			champ[root], _ = w.champion(root)
		}
		// Collect the path from the forest root down to the champion.
		path := w.pathDown(root, champ[root])
		// Take the top nodes first; stop when the summary is full.
		took := path
		if len(path) > l-count {
			took = path[:l-count]
		}
		for _, id := range took {
			selected[id] = true
			chosen = append(chosen, id)
		}
		count += len(took)
		if count >= l {
			break
		}
		// Split the forest: every unselected child of a removed path node
		// roots a new tree.
		for _, id := range took {
			for _, c := range t.Nodes[id].Children {
				if !selected[c] {
					push(c)
				}
			}
		}
	}
	return normalize(t, chosen, name), nil
}

// walker holds what TopPath reuses across forest roots: the depth-first
// stack of champion and the path pathDown returns.
type walker struct {
	t     *ostree.Tree
	stack []frame
	path  []ostree.NodeID
}

type frame struct {
	id    ostree.NodeID
	sum   float64
	depth int
}

// champion finds, in the subtree rooted at root (within the live forest),
// the node maximizing AI = average weight along the path from root, and its
// AI. Ties go to the smaller node id for determinism.
//
// This is the s(v) computation of §5.2: the champion of a subtree stays
// valid however the forest above it changes, so each subtree is scanned
// once, when it becomes a forest root.
func (w *walker) champion(root ostree.NodeID) (ostree.NodeID, float64) {
	t := w.t
	bestID, bestAI := root, t.Nodes[root].Weight
	stack := append(w.stack[:0], frame{root, t.Nodes[root].Weight, 1})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ai := f.sum / float64(f.depth)
		if ai > bestAI || (ai == bestAI && f.id < bestID) {
			bestID, bestAI = f.id, ai
		}
		for _, c := range t.Nodes[f.id].Children {
			stack = append(stack, frame{c, f.sum + t.Nodes[c].Weight, f.depth + 1})
		}
	}
	w.stack = stack
	return bestID, bestAI
}

// pathDown returns the nodes from root down to target, inclusive, in
// root-first order; the slice is overwritten by the next call.
func (w *walker) pathDown(root, target ostree.NodeID) []ostree.NodeID {
	path := w.path[:0]
	for id := target; ; id = w.t.Nodes[id].Parent {
		path = append(path, id)
		if id == root {
			break
		}
	}
	slices.Reverse(path)
	w.path = path
	return path
}
