package ostree

import (
	"cmp"
	"slices"
	"strconv"
	"strings"

	"sizelos/internal/relational"
)

// RenderOptions controls OS rendering.
type RenderOptions struct {
	// AttrTheta is the attribute-affinity threshold θ′ (§2.1): columns with
	// affinity below it are not displayed. Key columns are never displayed.
	AttrTheta float64
	// Keep restricts rendering to a node subset (a size-l OS); nil renders
	// the whole tree. The subset must contain the root to render anything;
	// ids outside the tree are ignored.
	Keep []NodeID
	// ShowWeights appends each node's local importance, as in the paper's
	// Figure 3.
	ShowWeights bool
}

// Render prints the OS in the indented style of the paper's Examples 4 and
// 5: one tuple per line, children indented under their parent, each line
// "Label: attr, attr, ...".
func (t *Tree) Render(opts RenderOptions) string {
	r := renderer{t: t, opts: opts, cols: make([][]int, len(t.DB.Relations))}
	if opts.Keep != nil {
		r.keep = make([]bool, t.Len())
		for _, id := range opts.Keep {
			if id >= 0 && int(id) < len(r.keep) {
				r.keep[id] = true
			}
		}
		if len(r.keep) == 0 || !r.keep[t.Root()] {
			return ""
		}
	}
	// A relation displays its non-key columns whose attribute affinity
	// passes θ′.
	var all []int
	for ri, rel := range t.DB.Relations {
		lo := len(all)
		for ci, col := range rel.Columns {
			if ci != rel.PKCol && rel.FKIndexOf(col.Name) < 0 && col.Affinity >= opts.AttrTheta {
				all = append(all, ci)
			}
		}
		r.cols[ri] = all[lo:]
	}
	r.node(t.Root())
	return r.b.String()
}

// renderer is one Render call: the text, each relation's display columns
// and the stack every node's children are sorted on.
type renderer struct {
	t     *Tree
	opts  RenderOptions
	keep  []bool
	b     strings.Builder
	num   [32]byte
	cols  [][]int
	stack []NodeID
}

func (r *renderer) node(id NodeID) {
	b, n := &r.b, &r.t.Nodes[id]
	for i := int32(0); i < 2*n.Depth; i++ {
		b.WriteByte('.')
	}
	if n.Depth > 0 {
		b.WriteByte(' ')
	}
	b.WriteString(n.GDS.Label)
	b.WriteString(": ")
	rel, cols := r.t.DB.Relations[n.Rel], r.cols[n.Rel]
	for i, ci := range cols {
		if i > 0 {
			b.WriteString(", ")
		}
		if v := rel.Tuples[n.Tuple][ci]; v.Kind == relational.KindString {
			b.WriteString(v.Str)
		} else {
			b.Write(v.Append(r.num[:0]))
		}
	}
	if len(cols) == 0 {
		// Fall back to the primary key so every tuple renders something.
		b.WriteByte('#')
		b.Write(strconv.AppendInt(r.num[:0], rel.PK(n.Tuple), 10))
	}
	if r.opts.ShowWeights {
		b.WriteString("  [")
		b.Write(strconv.AppendFloat(r.num[:0], n.Weight, 'f', 2, 64))
		b.WriteByte(']')
	}
	b.WriteByte('\n')
	// Children are rendered grouped by G_DS role, highest-weight first
	// within a role, which mirrors the paper's examples (papers first, then
	// details): children of two roles compare equal, and the sort is stable.
	lo := len(r.stack)
	for _, c := range n.Children {
		if r.keep == nil || r.keep[c] {
			r.stack = append(r.stack, c)
		}
	}
	hi := len(r.stack)
	slices.SortStableFunc(r.stack[lo:hi], func(a, b NodeID) int {
		if na, nb := &r.t.Nodes[a], &r.t.Nodes[b]; na.GDS == nb.GDS {
			return cmp.Compare(nb.Weight, na.Weight)
		}
		return 0
	})
	for i := lo; i < hi; i++ {
		r.node(r.stack[i])
	}
	r.stack = r.stack[:lo]
}
