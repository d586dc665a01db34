package ostree

import (
	"fmt"
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
	// Children are the node's children in ascending id order; Build cuts
	// them from Iota (nil for a leaf), so they are never written through.
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
