package ostree

import (
	"fmt"

	"sizelos/internal/relational"
	"sizelos/internal/schemagraph"
)

// GenOptions controls complete-OS generation.
type GenOptions struct {
	// MaxDepth excludes tuples deeper than this from the OS. Zero means
	// unbounded, and a negative depth keeps the root alone; generating for a
	// size-l query passes SizeLDepth(l).
	MaxDepth int
}

// SizeLDepth is the MaxDepth of a size-l query, the paper's footnote 1
// ("any tuples or subtrees which have distance at least l from the root are
// excluded"): l-1, and the root alone at l = 1, where l-1 would read
// unbounded.
func SizeLDepth(l int) int {
	if l <= 1 {
		return -1
	}
	return l - 1
}

// Root resets t, over its node arena, to the data subject tuple root alone:
// the node Build grows the OS from, and the whole of any size-1 OS. Its
// errors are Build's.
func Root(t *Tree, src Source, gds *schemagraph.GDS, root relational.TupleID) error {
	if !gds.Bound() {
		return fmt.Errorf("ostree: G_DS of %s is not bound to a database (GDS.Bind)", gds.DSName)
	}
	db := src.DB()
	if n := db.Relations[gds.Root.RelOrd].Len(); int(root) < 0 || int(root) >= n {
		return fmt.Errorf("ostree: root tuple %d out of range for %s", root, gds.DSName)
	}
	*t = Tree{Nodes: t.Nodes[:0], GDS: gds, DB: db}
	t.Nodes = append(t.Nodes, Node{
		GDS:    gds.Root,
		Rel:    int32(gds.Root.RelOrd),
		Tuple:  root,
		Weight: src.Scores(gds.Root.RelOrd).At(root) * gds.Root.Affinity,
		Parent: None,
	})
	return nil
}

// Generate materializes the complete OS for the data subject tuple root
// (identified within the G_DS root relation): Algorithm 5, Build extracting
// every child.
func Generate(src Source, gds *schemagraph.GDS, root relational.TupleID, opts GenOptions) (*Tree, error) {
	t := &Tree{}
	if err := Build(t, src, gds, root, opts, src.Children); err != nil {
		return nil, err
	}
	return t, nil
}

// Build grows into t, over its node arena, the OS of the data subject tuple
// root: a breadth-first G_DS traversal whose queue is the arena. For each node
// above opts.MaxDepth and each G_DS child gn of its G_DS node, extract names
// the tuples that become its children (read before the next call, so a
// Source's result can be passed through) — every child for a complete OS, the
// avoidance conditions' choice for a prelim-l one (Algorithm 4). Each node
// carries its local importance Im(OS, t_i) = Im(t_i)·Af(R_i), and its child
// list is cut from Iota. gds must be bound (GDS.Bind): an unbound G_DS, or a
// root out of range, is an error before t is touched.
//
// A child tuple identical to its grandparent node (same relation and tuple)
// is skipped: hopping Author -> Paper -> Co-Author must not re-list the
// author we came from, matching Example 4 where Christos never appears as
// his own co-author.
func Build(t *Tree, src Source, gds *schemagraph.GDS, root relational.TupleID, opts GenOptions,
	extract func(gn *schemagraph.Node, parent relational.TupleID) []relational.TupleID) error {
	if err := Root(t, src, gds, root); err != nil {
		return err
	}
	var ids []NodeID
	for cur := 0; cur < len(t.Nodes); cur++ {
		n := t.Nodes[cur]
		if opts.MaxDepth < 0 || opts.MaxDepth > 0 && int(n.Depth) >= opts.MaxDepth {
			continue
		}
		gpRel, gpTuple := int32(-1), relational.TupleID(0) // the children's grandparent
		if n.Parent != None {
			gpRel, gpTuple = t.Nodes[n.Parent].Rel, t.Nodes[n.Parent].Tuple
		}
		first := len(t.Nodes)
		for _, gchild := range n.GDS.Children {
			children := extract(gchild, n.Tuple)
			if len(children) == 0 {
				continue
			}
			rel, scores := int32(gchild.RelOrd), src.Scores(gchild.RelOrd)
			for _, ct := range children {
				if rel == gpRel && ct == gpTuple {
					continue
				}
				t.Nodes = append(t.Nodes, Node{
					GDS:    gchild,
					Rel:    rel,
					Tuple:  ct,
					Weight: scores.At(ct) * gchild.Affinity,
					Parent: NodeID(cur),
					Depth:  n.Depth + 1,
				})
			}
		}
		if last := len(t.Nodes); last > first {
			if len(ids) < last {
				ids = Iota(last)
			}
			t.Nodes[cur].Children = ids[first:last:last]
		}
	}
	return nil
}
