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
// The G_DS must have been annotated (schemagraph.Annotate) with the same
// ranking setting as src. Any size-l algorithm can then run on the returned
// tree; by Lemma 3 the result is optimal whenever local importance is
// monotone with depth.
func PrelimL(src ostree.Source, gds *schemagraph.GDS, root relational.TupleID, l int, opts PrelimOptions) (*ostree.Tree, PrelimStats, error) {
	if l < 1 {
		return nil, PrelimStats{}, fmt.Errorf("sizel: l must be >= 1, got %d", l)
	}
	db := src.DB()
	rootRel := db.Relation(gds.DSName)
	if rootRel == nil {
		return nil, PrelimStats{}, fmt.Errorf("sizel: unknown data subject relation %s", gds.DSName)
	}
	if int(root) < 0 || int(root) >= rootRel.Len() {
		return nil, PrelimStats{}, fmt.Errorf("sizel: root tuple %d out of range for %s", root, gds.DSName)
	}
	if gds.Root.Max == 0 && gds.Root.MMax == 0 {
		// Annotations default to zero; a zero root max means Annotate was
		// not run (the root relation always has some positive score).
		return nil, PrelimStats{}, fmt.Errorf("sizel: G_DS not annotated with max/mmax statistics")
	}

	scores := src.Scores()
	stats := PrelimStats{}
	src.ResetAccesses()

	tree := &ostree.Tree{GDS: gds, DB: db}
	rootWeight := relScores(scores, gds.DSName)[root] * gds.Root.Affinity
	addNode(tree, ostree.Node{
		GDS:    gds.Root,
		Rel:    int32(db.RelIndex(gds.DSName)),
		Tuple:  root,
		Weight: rootWeight,
		Parent: ostree.None,
		Depth:  0,
	})

	// top-l PQ: an l-sized min-heap over extracted local importances.
	// largest-l is its minimum once full, else 0 (Alg. 4 lines 20-23).
	topl := newTopL(l)
	topl.offer(rootWeight)

	queue := []ostree.NodeID{0}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		curNode := tree.Nodes[cur]
		if opts.MaxDepth > 0 && int(curNode.Depth) >= opts.MaxDepth {
			continue
		}
		for _, gchild := range curNode.GDS.Children {
			watermark := topl.largestL()
			// Avoidance Condition 1: fruitless G_DS subtree.
			if !opts.DisableAC1 && watermark >= gchild.Max && watermark >= gchild.MMax && topl.full() {
				stats.AC1Skips++
				continue
			}
			var children []relational.TupleID
			if !opts.DisableAC2 && watermark >= gchild.MMax {
				// Avoidance Condition 2: fruitful-l relation. Convert the
				// local-importance watermark to a global-score threshold.
				minScore := watermark / gchild.Affinity
				children = src.ChildrenTopL(gchild, curNode.Tuple, minScore, l)
				stats.AC2TopL++
			} else {
				children = src.Children(gchild, curNode.Tuple)
			}
			childScores := relScores(scores, gchild.Rel)
			childRel := int32(db.RelIndex(gchild.Rel))
			for _, ct := range children {
				if skipBacktrackPrelim(tree, cur, childRel, ct) {
					continue
				}
				w := childScores[ct] * gchild.Affinity
				id := addNode(tree, ostree.Node{
					GDS:    gchild,
					Rel:    childRel,
					Tuple:  ct,
					Weight: w,
					Parent: cur,
					Depth:  curNode.Depth + 1,
				})
				queue = append(queue, id)
				topl.offer(w)
			}
		}
	}
	stats.Extracted = tree.Len()
	stats.Accesses = src.Accesses()
	stats.TopWeights = topl.descending()
	return tree, stats, nil
}

// TopWeights returns the l >= 1 largest local importances of t, descending
// — what PrelimStats.TopWeights reports for a prelim-l OS, for a tree that
// was generated without the PQ (a complete OS).
func TopWeights(t *ostree.Tree, l int) []float64 {
	topl := newTopL(l)
	for i := range t.Nodes {
		topl.offer(t.Nodes[i].Weight)
	}
	return topl.descending()
}

// relScores resolves the scores of a relation, panicking on configuration
// errors (a G_DS naming a relation the ranking setting never scored).
func relScores(scores relational.DBScores, rel string) relational.Scores {
	s, ok := scores[rel]
	if !ok {
		panic(fmt.Sprintf("sizel: no scores for relation %s", rel))
	}
	return s
}

// addNode mirrors ostree's internal arena append; it lives here because the
// prelim generator builds trees incrementally outside the ostree package.
func addNode(t *ostree.Tree, n ostree.Node) ostree.NodeID {
	id := ostree.NodeID(len(t.Nodes))
	t.Nodes = append(t.Nodes, n)
	if n.Parent != ostree.None {
		p := &t.Nodes[n.Parent]
		p.Children = append(p.Children, id)
	}
	return id
}

func skipBacktrackPrelim(t *ostree.Tree, parent ostree.NodeID, rel int32, tuple relational.TupleID) bool {
	gp := t.Nodes[parent].Parent
	if gp == ostree.None {
		return false
	}
	g := &t.Nodes[gp]
	return g.Rel == rel && g.Tuple == tuple
}

// topL is the top-l PQ: a min-heap of at most l float64s kept directly on
// the slice, so an offer neither boxes the weight nor allocates.
type topL struct {
	l     int
	items []float64
}

func newTopL(l int) *topL {
	// Presized for the l values queries use; a larger l just grows.
	return &topL{l: l, items: make([]float64, 0, min(l, 64))}
}

func (h *topL) full() bool { return len(h.items) >= h.l }

// largestL is the l-th largest weight offered so far, 0 until l were.
func (h *topL) largestL() float64 {
	if !h.full() {
		return 0
	}
	return h.items[0]
}

// offer keeps w if it is among the l largest weights offered so far.
func (h *topL) offer(w float64) {
	it := h.items
	if !h.full() {
		it = append(it, w)
		h.items = it
		for i := len(it) - 1; i > 0; {
			p := (i - 1) / 2
			if it[p] <= it[i] {
				break
			}
			it[p], it[i] = it[i], it[p]
			i = p
		}
		return
	}
	if w <= it[0] {
		return
	}
	it[0] = w
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(it) {
			break
		}
		if c+1 < len(it) && it[c+1] < it[c] {
			c++
		}
		if it[i] <= it[c] {
			break
		}
		it[i], it[c] = it[c], it[i]
		i = c
	}
}

// descending sorts the kept weights largest first and returns them; the
// heap must not be offered to afterwards.
func (h *topL) descending() []float64 {
	slices.Sort(h.items)
	slices.Reverse(h.items)
	return h.items
}
