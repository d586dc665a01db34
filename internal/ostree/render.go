package ostree

import (
	"sort"
	"strconv"
	"strings"
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
	var keep []bool
	if opts.Keep != nil {
		keep = make([]bool, t.Len())
		for _, id := range opts.Keep {
			if id >= 0 && int(id) < len(keep) {
				keep[id] = true
			}
		}
		if len(keep) == 0 || !keep[t.Root()] {
			return ""
		}
	}
	var b strings.Builder
	t.renderNode(&b, t.Root(), keep, opts)
	return b.String()
}

func (t *Tree) renderNode(b *strings.Builder, id NodeID, keep []bool, opts RenderOptions) {
	n := &t.Nodes[id]
	for i := int32(0); i < 2*n.Depth; i++ {
		b.WriteByte('.')
	}
	if n.Depth > 0 {
		b.WriteByte(' ')
	}
	b.WriteString(n.GDS.Label)
	b.WriteString(": ")
	t.describe(b, id, opts.AttrTheta)
	if opts.ShowWeights {
		var num [32]byte
		b.WriteString("  [")
		b.Write(strconv.AppendFloat(num[:0], n.Weight, 'f', 2, 64))
		b.WriteByte(']')
	}
	b.WriteByte('\n')
	// Children are rendered grouped by G_DS role, highest-weight first
	// within a role, which mirrors the paper's examples (papers first, then
	// details).
	var children []NodeID
	for _, c := range n.Children {
		if keep == nil || keep[c] {
			children = append(children, c)
		}
	}
	if len(children) > 1 {
		sort.SliceStable(children, func(a, b int) bool {
			ca, cb := &t.Nodes[children[a]], &t.Nodes[children[b]]
			if ca.GDS != cb.GDS {
				return false // preserve role grouping as generated
			}
			return ca.Weight > cb.Weight
		})
	}
	for _, c := range children {
		t.renderNode(b, c, keep, opts)
	}
}

// describe writes the displayable attributes of a node's tuple: non-key
// columns whose attribute affinity passes θ′, comma-separated.
func (t *Tree) describe(b *strings.Builder, id NodeID, attrTheta float64) {
	n := &t.Nodes[id]
	rel := t.DB.Relations[n.Rel]
	tup := rel.Tuples[n.Tuple]
	wrote := false
	for ci, col := range rel.Columns {
		if ci == rel.PKCol || rel.FKIndexOf(col.Name) >= 0 {
			continue
		}
		if col.Affinity < attrTheta {
			continue
		}
		if wrote {
			b.WriteString(", ")
		}
		b.WriteString(tup[ci].String())
		wrote = true
	}
	if !wrote {
		// Fall back to the primary key so every tuple renders something.
		var num [24]byte
		b.WriteByte('#')
		b.Write(strconv.AppendInt(num[:0], rel.PK(n.Tuple), 10))
	}
}
