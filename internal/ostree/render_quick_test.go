package ostree

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"sizelos/internal/datagen"
)

// Property: subset rendering prints exactly the kept nodes whose whole
// root path is kept (the connected component of the root within the keep
// set) — never disconnected fragments.
func TestRenderSubsetConnectivityProperty(t *testing.T) {
	f := getFixture(t)
	gds := datagen.AuthorGDS()
	tree, err := Generate(f.graphSource(), gds, authorRoot(t, f, 1), GenOptions{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	r := rand.New(rand.NewSource(555))
	for trial := 0; trial < 30; trial++ {
		keep := []NodeID{tree.Root()}
		inKeep := map[NodeID]bool{tree.Root(): true}
		for i := 1; i < tree.Len(); i++ {
			if r.Intn(3) == 0 {
				keep = append(keep, NodeID(i))
				inKeep[NodeID(i)] = true
			}
		}
		// Expected visible set: kept nodes whose entire ancestor chain is
		// kept.
		want := 0
		for _, id := range keep {
			visible := true
			for cur := id; cur != tree.Root(); cur = tree.Nodes[cur].Parent {
				if !inKeep[tree.Nodes[cur].Parent] {
					visible = false
					break
				}
			}
			if visible {
				want++
			}
		}
		out := tree.Render(RenderOptions{Keep: keep})
		if got := strings.Count(out, "\n"); got != want {
			t.Fatalf("trial %d: rendered %d lines, want %d (keep size %d)",
				trial, got, want, len(keep))
		}
	}
}

// TestRenderMatchesReference: Render writes, byte for byte, what the
// map-and-fmt renderer it replaced wrote (renderReference), on DBLP and
// TPC-H OSs, for random keep sets (out-of-range ids included), attribute
// thresholds and weight annotations.
func TestRenderMatchesReference(t *testing.T) {
	f := getFixture(t)
	trees := []*Tree{}
	for _, pk := range []int64{1, 2, 7} {
		tree, err := Generate(f.graphSource(), datagen.AuthorGDS(), authorRoot(t, f, pk), GenOptions{})
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		trees = append(trees, tree)
	}
	for _, wf := range walkFixtures(t) {
		for _, gds := range wf.gdss {
			tree, err := Generate(wf.source(), gds, 3, GenOptions{MaxDepth: 4})
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			trees = append(trees, tree)
		}
	}
	r := rand.New(rand.NewSource(25))
	for i, tree := range trees {
		for trial := 0; trial < 20; trial++ {
			opts := RenderOptions{AttrTheta: []float64{0, 0.5, 0.9, 2}[r.Intn(4)], ShowWeights: r.Intn(2) == 0}
			if trial > 0 {
				opts.Keep = []NodeID{NodeID(tree.Len() + r.Intn(3)), -1}
				for id := 0; id < tree.Len(); id++ {
					if id == 0 && trial%5 == 0 || r.Intn(4) == 0 {
						continue
					}
					opts.Keep = append(opts.Keep, NodeID(id))
				}
			}
			if got, want := tree.Render(opts), renderReference(tree, opts); got != want {
				t.Fatalf("tree %d trial %d (%+v): Render\n%s\nwant\n%s", i, trial, opts, clip(got), clip(want))
			}
		}
	}
}

func renderReference(t *Tree, opts RenderOptions) string {
	var keep map[NodeID]bool
	if opts.Keep != nil {
		keep = make(map[NodeID]bool, len(opts.Keep))
		for _, id := range opts.Keep {
			keep[id] = true
		}
		if !keep[t.Root()] {
			return ""
		}
	}
	var b strings.Builder
	var node func(id NodeID)
	node = func(id NodeID) {
		n := &t.Nodes[id]
		indent := strings.Repeat(".", int(n.Depth)*2)
		if n.Depth > 0 {
			indent += " "
		}
		rel := t.DB.Relations[n.Rel]
		var parts []string
		for ci, col := range rel.Columns {
			if ci != rel.PKCol && rel.FKIndexOf(col.Name) < 0 && col.Affinity >= opts.AttrTheta {
				parts = append(parts, rel.Tuples[n.Tuple][ci].String())
			}
		}
		desc := strings.Join(parts, ", ")
		if len(parts) == 0 {
			desc = fmt.Sprintf("#%d", rel.PK(n.Tuple))
		}
		fmt.Fprintf(&b, "%s%s: %s", indent, n.GDS.Label, desc)
		if opts.ShowWeights {
			fmt.Fprintf(&b, "  [%.2f]", n.Weight)
		}
		b.WriteByte('\n')
		children := make([]NodeID, 0, len(n.Children))
		for _, c := range n.Children {
			if keep == nil || keep[c] {
				children = append(children, c)
			}
		}
		sort.SliceStable(children, func(a, b int) bool {
			ca, cb := &t.Nodes[children[a]], &t.Nodes[children[b]]
			if ca.GDS != cb.GDS {
				return false
			}
			return ca.Weight > cb.Weight
		})
		for _, c := range children {
			node(c)
		}
	}
	node(t.Root())
	return b.String()
}
