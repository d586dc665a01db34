package ostree

import (
	"fmt"

	"sizelos/internal/relational"
	"sizelos/internal/schemagraph"
)

// GenOptions controls complete-OS generation.
type GenOptions struct {
	// MaxDepth excludes tuples deeper than this from the OS; generating for
	// a size-l query passes l-1, implementing the paper's footnote 1 ("any
	// tuples or subtrees which have distance at least l from the root are
	// excluded"). Zero means unbounded.
	MaxDepth int
	// MaxNodes aborts generation beyond this many tuples (safety valve for
	// pathological G_DS configurations). Zero means unbounded.
	MaxNodes int
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
// list is cut from Iota. On error t holds a partial tree.
//
// A child tuple identical to its grandparent node (same relation and tuple)
// is skipped: hopping Author -> Paper -> Co-Author must not re-list the
// author we came from, matching Example 4 where Christos never appears as
// his own co-author.
func Build(t *Tree, src Source, gds *schemagraph.GDS, root relational.TupleID, opts GenOptions,
	extract func(gn *schemagraph.Node, parent relational.TupleID) []relational.TupleID) error {
	db := src.DB()
	rootRel := db.Relation(gds.DSName)
	if rootRel == nil {
		return fmt.Errorf("ostree: unknown data subject relation %s", gds.DSName)
	}
	if int(root) < 0 || int(root) >= rootRel.Len() {
		return fmt.Errorf("ostree: root tuple %d out of range for %s", root, gds.DSName)
	}
	// A G_DS node's relation ordinal and scores, resolved at its first use.
	type resolved struct {
		gn     *schemagraph.Node
		rel    int32
		scores relational.Scores
	}
	steps := make([]resolved, 0, 8)
	resolve := func(gn *schemagraph.Node) *resolved {
		for i := range steps {
			if steps[i].gn == gn {
				return &steps[i]
			}
		}
		steps = append(steps, resolved{gn, int32(db.RelIndex(gn.Rel)), relScores(src.Scores(), gn.Rel)})
		return &steps[len(steps)-1]
	}

	rs := resolve(gds.Root)
	*t = Tree{Nodes: t.Nodes[:0], GDS: gds, DB: db}
	t.Nodes = append(t.Nodes, Node{
		GDS:    gds.Root,
		Rel:    rs.rel,
		Tuple:  root,
		Weight: rs.scores[root] * gds.Root.Affinity,
		Parent: None,
	})
	var ids []NodeID
	for cur := 0; cur < len(t.Nodes); cur++ {
		n := t.Nodes[cur]
		if opts.MaxDepth > 0 && int(n.Depth) >= opts.MaxDepth {
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
			st := resolve(gchild)
			for _, ct := range children {
				if st.rel == gpRel && ct == gpTuple {
					continue
				}
				t.Nodes = append(t.Nodes, Node{
					GDS:    gchild,
					Rel:    st.rel,
					Tuple:  ct,
					Weight: st.scores[ct] * gchild.Affinity,
					Parent: NodeID(cur),
					Depth:  n.Depth + 1,
				})
			}
			if opts.MaxNodes > 0 && len(t.Nodes) > opts.MaxNodes {
				return fmt.Errorf("ostree: OS exceeds %d nodes", opts.MaxNodes)
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
