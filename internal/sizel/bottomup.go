package sizel

import (
	"sizelos/internal/ostree"
)

// BottomUp computes a size-l OS by iteratively pruning the leaf with the
// smallest local importance until l nodes remain (Algorithm 2). A priority
// queue holds the current leaves; pruning a node's last remaining child
// makes the parent a leaf and enqueues it. O(n log n), and in practice the
// fastest method (the paper: "consistently the fastest"), so the heap is
// hand-rolled over a flat slice rather than going through container/heap's
// interface indirection.
//
// By Lemma 2 the result is optimal whenever local importance is monotone
// non-increasing from parent to child (true for Paper OSs in §6.2).
func BottomUp(t *ostree.Tree, l int) (Result, error) {
	const name = "bottom-up"
	if err := checkArgs(t, l); err != nil {
		return Result{}, err
	}
	n := t.Len()
	if l >= n {
		return wholeTree(t, name), nil
	}

	alive := make([]bool, n)
	liveChildren := make([]int32, n)
	for i := range t.Nodes {
		alive[i] = true
		liveChildren[i] = int32(len(t.Nodes[i].Children))
	}

	pq := leafHeap{items: make([]leafItem, 0, n/2+1)}
	for i := range t.Nodes {
		if liveChildren[i] == 0 {
			pq.items = append(pq.items, leafItem{t.Nodes[i].Weight, ostree.NodeID(i)})
		}
	}
	pq.init()

	remaining := n
	for remaining > l {
		item := pq.pop()
		if item.id == t.Root() {
			// Unreachable while remaining > l (the root only becomes a
			// leaf when it is the sole survivor), kept as a guard.
			break
		}
		alive[item.id] = false
		remaining--
		p := t.Nodes[item.id].Parent
		liveChildren[p]--
		if liveChildren[p] == 0 {
			pq.push(leafItem{t.Nodes[p].Weight, p})
		}
	}

	nodes := make([]ostree.NodeID, 0, remaining)
	for i := range alive {
		if alive[i] {
			nodes = append(nodes, ostree.NodeID(i))
		}
	}
	return normalize(t, nodes, name), nil
}

// leafItem is one heap entry: the node's local importance and its id.
type leafItem struct {
	w  float64
	id ostree.NodeID
}

// leafHeap is a min-heap by weight; ties prefer the higher node id (deeper,
// later-extracted tuples prune first), keeping results deterministic. It is
// the package's one heap: TopPath keeps forest roots in it under negated
// keys, PrelimL's top-l PQ its weights.
type leafHeap struct {
	items []leafItem
}

func (h *leafHeap) less(a, b leafItem) bool {
	if a.w != b.w {
		return a.w < b.w
	}
	return a.id > b.id
}

func (h *leafHeap) init() {
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *leafHeap) push(x leafItem) {
	h.items = append(h.items, x)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *leafHeap) pop() leafItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

func (h *leafHeap) down(i int) {
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && h.less(h.items[right], h.items[left]) {
			smallest = right
		}
		if !h.less(h.items[smallest], h.items[i]) {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
