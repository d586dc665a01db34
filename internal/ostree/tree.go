package ostree

import (
	"fmt"
	"slices"
	"sync/atomic"

	"sizelos/internal/relational"
	"sizelos/internal/schemagraph"
)

// NodeID indexes a node within a Tree's arena.
type NodeID int32

// None marks the absence of a node (the root's parent).
const None NodeID = -1

// Node is one tuple occurrence in an OS tree.
type Node struct {
	// GDS is the G_DS node this tuple was extracted under; it fixes the
	// node's role label and affinity.
	GDS *schemagraph.Node
	// Rel is the relation ordinal in the database.
	Rel int32
	// Tuple is the tuple id within the relation.
	Tuple relational.TupleID
	// Weight is the local importance Im(OS, t_i) = Im(t_i)·Af(t_i) (Eq. 3).
	Weight float64
	Parent NodeID
	// Children are the node's children in ascending id order. Build's
	// breadth-first order makes them consecutive ids, cut from Iota (nil
	// for a leaf), so they are never written through.
	Children []NodeID
	Depth    int32
}

// Tree is an Object Summary: an arena of nodes with Nodes[0] as the t_DS
// root. Complete OSs and prelim-l OSs share this representation.
type Tree struct {
	Nodes []Node
	// GDS is the schema graph the tree was generated from.
	GDS *schemagraph.GDS
	// DB is the database the tuples live in (needed for rendering).
	DB *relational.DB
}

// Len returns the number of tuples in the OS.
func (t *Tree) Len() int { return len(t.Nodes) }

// Root returns the root node id (always 0 for a non-empty tree).
func (t *Tree) Root() NodeID { return 0 }

// TotalImportance sums the local importance of all nodes: Im(S) of the
// complete OS (Eq. 2 applied to the full tree).
func (t *Tree) TotalImportance() float64 {
	sum := 0.0
	for i := range t.Nodes {
		sum += t.Nodes[i].Weight
	}
	return sum
}

// ImportanceOf sums the local importance of a node subset.
func (t *Tree) ImportanceOf(ids []NodeID) float64 {
	sum := 0.0
	for _, id := range ids {
		sum += t.Nodes[id].Weight
	}
	return sum
}

// IsConnectedSubtree reports whether the node set contains the root and
// every member's parent: the stand-alone requirement of Definition 1.
func (t *Tree) IsConnectedSubtree(ids []NodeID) bool {
	if len(ids) == 0 {
		return false
	}
	in := make(map[NodeID]bool, len(ids))
	for _, id := range ids {
		if id < 0 || int(id) >= len(t.Nodes) {
			return false
		}
		in[id] = true
	}
	if !in[t.Root()] {
		return false
	}
	for _, id := range ids {
		if id == t.Root() {
			continue
		}
		if !in[t.Nodes[id].Parent] {
			return false
		}
	}
	return true
}

// Compact returns the partial OS that keep selects from t as a tree of its
// own: the i-th kept node becomes node i, its parent remapped and its kept
// children its child list; G_DS node, relation, tuple, weight and depth are
// copied. keep must be ascending and hold the root and every member's parent
// (a size-l selection's nodes), and t must be breadth-first, as Build makes
// it: each node's children hold consecutive ids, so its kept children are
// consecutive in keep and their new ids one Iota cut; Compact panics on a
// tree where they are not. Kept nodes keep their order, so the result
// renders as t does under RenderOptions{Keep: keep} and its TotalImportance
// is t.ImportanceOf(keep), bit for bit. It shares no memory with t's arena.
func (t *Tree) Compact(keep []NodeID) *Tree {
	out := &Tree{Nodes: make([]Node, len(keep)), GDS: t.GDS, DB: t.DB}
	ids := Iota(len(keep))
	for i, id := range keep {
		n := t.Nodes[id]
		n.Children = nil
		if i > 0 {
			p, _ := slices.BinarySearch(keep, n.Parent)
			n.Parent = NodeID(p)
			// Each kept child extends its parent's cut by one.
			c := &out.Nodes[p].Children
			if k := len(*c); k > 0 && (*c)[k-1] != NodeID(i-1) {
				panic(fmt.Sprintf("ostree: Compact: kept children of node %d are not consecutive", keep[p]))
			}
			*c = ids[i-len(*c) : i+1 : i+1]
		}
		out.Nodes[i] = n
	}
	return out
}

// iotaIDs backs Iota; a published slice is never written.
var iotaIDs atomic.Pointer[[]NodeID]

// Iota returns the ids 0, 1, 2, … in order, at least n of them: the one
// read-only slice child lists are cut from. Outgrowing it publishes a longer
// one; lists cut from an older one stay valid.
func Iota(n int) []NodeID {
	if p := iotaIDs.Load(); p != nil && len(*p) >= n {
		return *p
	}
	s := make([]NodeID, max(2*n, 1024))
	for i := range s {
		s[i] = NodeID(i)
	}
	iotaIDs.Store(&s)
	return s
}

// Validate checks arena invariants: parent links, child links, and depths.
// It exists for tests and debugging.
func (t *Tree) Validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("ostree: empty tree")
	}
	if t.Nodes[0].Parent != None || t.Nodes[0].Depth != 0 {
		return fmt.Errorf("ostree: malformed root")
	}
	for i := 1; i < len(t.Nodes); i++ {
		n := &t.Nodes[i]
		if n.Parent < 0 || int(n.Parent) >= len(t.Nodes) {
			return fmt.Errorf("ostree: node %d has invalid parent %d", i, n.Parent)
		}
		p := &t.Nodes[n.Parent]
		if n.Depth != p.Depth+1 {
			return fmt.Errorf("ostree: node %d depth %d, parent depth %d", i, n.Depth, p.Depth)
		}
		found := false
		for _, c := range p.Children {
			if c == NodeID(i) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("ostree: node %d missing from parent's child list", i)
		}
	}
	return nil
}
