package schemagraph

import (
	"testing"
)

func autoOpts() AutoOptions {
	return AutoOptions{
		Junctions: map[string]bool{"Writes": true, "Cites": true},
		MaxDepth:  3,
	}
}

func TestTreealizeAuthor(t *testing.T) {
	db := miniDBLP(t)
	g, err := Treealize(db, "Author", autoOpts())
	if err != nil {
		t.Fatalf("Treealize: %v", err)
	}
	if err := g.Bind(db); err != nil {
		t.Fatalf("auto GDS invalid: %v", err)
	}
	// Root -> Paper via Writes.
	if len(g.Root.Children) != 1 {
		t.Fatalf("Author root children = %d, want 1 (Paper)", len(g.Root.Children))
	}
	paper := g.Root.Children[0]
	if paper.Rel != "Paper" || paper.Step.Kind != StepJunction || paper.Step.Junction != "Writes" {
		t.Fatalf("first child = %+v, want Paper via Writes", paper)
	}
	// Paper must have the replicated roles: a co-author hop (Author via
	// Writes), both citation hops (Paper via Cites twice), and Year.
	var gotAuthorHop, gotYear bool
	citeHops := 0
	for _, c := range paper.Children {
		switch {
		case c.Rel == "Author" && c.Step.Kind == StepJunction && c.Step.Junction == "Writes":
			gotAuthorHop = true
			if len(c.Children) != 0 {
				t.Errorf("replicated Author node must be a leaf, has %d children", len(c.Children))
			}
		case c.Rel == "Paper" && c.Step.Junction == "Cites":
			citeHops++
			if len(c.Children) != 0 {
				t.Errorf("replicated Paper node must be a leaf")
			}
		case c.Rel == "Year":
			gotYear = true
		}
	}
	if !gotAuthorHop {
		t.Error("missing Co-Author replication")
	}
	if citeHops != 2 {
		t.Errorf("cite hops = %d, want 2 (PaperCites + PaperCitedBy)", citeHops)
	}
	if !gotYear {
		t.Error("missing Year M:1 step")
	}
	// Year expands to Conference, but must not step back to Paper (exact
	// inverse exclusion).
	year := paper.childByRel(t, "Year")
	for _, c := range year.Children {
		if c.Rel == "Paper" && c.Step.Kind == StepChildFK {
			t.Error("Year expanded back into Paper (inverse step not excluded)")
		}
	}
	if year.childByRelOrNil("Conference") == nil {
		t.Error("Year missing Conference child")
	}
}

func (n *Node) childByRel(t *testing.T, rel string) *Node {
	t.Helper()
	c := n.childByRelOrNil(rel)
	if c == nil {
		t.Fatalf("node %s has no child with relation %s", n.Label, rel)
	}
	return c
}

func (n *Node) childByRelOrNil(rel string) *Node {
	for _, c := range n.Children {
		if c.Rel == rel {
			return c
		}
	}
	return nil
}

func TestTreealizeAffinityMonotone(t *testing.T) {
	db := miniDBLP(t)
	g, err := Treealize(db, "Author", autoOpts())
	if err != nil {
		t.Fatalf("Treealize: %v", err)
	}
	g.Walk(func(n *Node) bool {
		if n.Affinity <= 0 || n.Affinity > 1 {
			t.Errorf("node %s affinity %v outside (0,1]", n.Label, n.Affinity)
		}
		if n.Parent != nil && n.Affinity > n.Parent.Affinity {
			t.Errorf("node %s affinity %v exceeds parent %v", n.Label, n.Affinity, n.Parent.Affinity)
		}
		return true
	})
}

func TestTreealizeTheta(t *testing.T) {
	db := miniDBLP(t)
	opts := autoOpts()
	opts.Theta = 0.999 // only nodes with near-root affinity survive
	g, err := Treealize(db, "Author", opts)
	if err != nil {
		t.Fatalf("Treealize: %v", err)
	}
	if len(g.Root.Children) != 0 {
		t.Errorf("theta=0.999 should prune everything, got %d children", len(g.Root.Children))
	}
}

func TestTreealizeDepthCap(t *testing.T) {
	db := miniDBLP(t)
	opts := autoOpts()
	opts.MaxDepth = 1
	g, err := Treealize(db, "Author", opts)
	if err != nil {
		t.Fatalf("Treealize: %v", err)
	}
	g.Walk(func(n *Node) bool {
		if n.Depth > 1 {
			t.Errorf("node %s at depth %d exceeds cap", n.Label, n.Depth)
		}
		return true
	})
}

func TestTreealizeErrors(t *testing.T) {
	db := miniDBLP(t)
	if _, err := Treealize(db, "Ghost", autoOpts()); err == nil {
		t.Error("unknown relation accepted")
	}
	if _, err := Treealize(db, "Writes", autoOpts()); err == nil {
		t.Error("junction as data subject accepted")
	}
}

func TestTreealizeLabelsUnique(t *testing.T) {
	db := miniDBLP(t)
	g, err := Treealize(db, "Author", autoOpts())
	if err != nil {
		t.Fatalf("Treealize: %v", err)
	}
	// Labels must be unique among siblings so users can tell PaperCites
	// from PaperCitedBy.
	g.Walk(func(n *Node) bool {
		seen := map[string]bool{}
		for _, c := range n.Children {
			if seen[c.Label] {
				t.Errorf("node %s has duplicate child label %s", n.Label, c.Label)
			}
			seen[c.Label] = true
		}
		return true
	})
}

func TestTreealizePaperRoot(t *testing.T) {
	db := miniDBLP(t)
	g, err := Treealize(db, "Paper", autoOpts())
	if err != nil {
		t.Fatalf("Treealize: %v", err)
	}
	if err := g.Bind(db); err != nil {
		t.Fatalf("auto Paper GDS invalid: %v", err)
	}
	// Expect Author, Year and the two cite hops under the root.
	var rels []string
	for _, c := range g.Root.Children {
		rels = append(rels, c.Rel)
	}
	counts := map[string]int{}
	for _, r := range rels {
		counts[r]++
	}
	if counts["Author"] != 1 || counts["Year"] != 1 || counts["Paper"] != 2 {
		t.Errorf("Paper root children = %v", rels)
	}
}
