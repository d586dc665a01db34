package schemagraph

import (
	"fmt"
	"strings"

	"sizelos/internal/relational"
)

// StepKind discriminates how a G_DS node's tuples are reached from its
// parent node's tuples.
type StepKind uint8

const (
	// StepRoot marks the root node (no traversal).
	StepRoot StepKind = iota
	// StepChildFK: the node's relation owns a foreign key referencing the
	// parent's relation (a 1:M step, e.g. Customer -> Orders).
	StepChildFK
	// StepParentFK: the parent's relation owns a foreign key referencing
	// the node's relation (an M:1 step, e.g. Paper -> Year).
	StepParentFK
	// StepJunction: the node's relation is reached through a junction
	// relation holding one FK to the parent's relation and one to the
	// node's relation (an M:N step, e.g. Author -> Paper via Writes, or the
	// replicated Paper -> Co-Author and Paper -> PaperCites hops). Junction
	// tuples themselves never appear in an OS.
	StepJunction
)

// Step describes the traversal from a parent G_DS node to a child node.
type Step struct {
	Kind StepKind
	// FKOrd is the foreign-key ordinal: on the node's relation for
	// StepChildFK, on the parent's relation for StepParentFK.
	FKOrd int
	// Junction fields (StepJunction only): the junction relation and the
	// ordinals of its FKs pointing at the parent and child relations.
	Junction  string
	JFKParent int
	JFKChild  int
}

// Node is one relation occurrence in a G_DS.
type Node struct {
	// Label is the role name shown to users ("Co-Author", "PaperCites");
	// it equals Rel when the relation occurs once.
	Label string
	// Rel is the underlying relation name in the database.
	Rel      string
	Step     Step
	Affinity float64
	Depth    int
	Parent   *Node
	Children []*Node

	// Max is max(Ri): the maximum local importance (global score × this
	// node's affinity) over all tuples of Rel. MMax is mmax(Ri): the
	// maximum Max over all descendant nodes, 0 for leaves. Both are set by
	// Annotate for a specific ranking setting.
	Max  float64
	MMax float64
}

// GDS is a Data Subject Schema Graph: the treealized schema around R_DS.
type GDS struct {
	Root *Node
	// DSName names the data-subject relation (== Root.Rel).
	DSName string
}

// New creates a G_DS with only the root node (affinity 1, per the paper's
// Figures 2 and 12 where R_DS is annotated (1)).
func New(dsRel string) *GDS {
	return &GDS{
		Root:   &Node{Label: dsRel, Rel: dsRel, Step: Step{Kind: StepRoot}, Affinity: 1},
		DSName: dsRel,
	}
}

// AddChildFK attaches a 1:M child node reached through fkOrd on rel.
func (n *Node) AddChildFK(label, rel string, fkOrd int, affinity float64) *Node {
	return n.addChild(label, rel, Step{Kind: StepChildFK, FKOrd: fkOrd}, affinity)
}

// AddParentFK attaches an M:1 child node reached through fkOrd on the
// parent node's relation.
func (n *Node) AddParentFK(label, rel string, fkOrd int, affinity float64) *Node {
	return n.addChild(label, rel, Step{Kind: StepParentFK, FKOrd: fkOrd}, affinity)
}

// AddJunction attaches an M:N child node reached through the junction
// relation: jfkParent/jfkChild are the junction's FK ordinals referencing
// the parent and child relations respectively.
func (n *Node) AddJunction(label, rel, junction string, jfkParent, jfkChild int, affinity float64) *Node {
	return n.addChild(label, rel, Step{
		Kind: StepJunction, Junction: junction, JFKParent: jfkParent, JFKChild: jfkChild,
	}, affinity)
}

func (n *Node) addChild(label, rel string, step Step, affinity float64) *Node {
	c := &Node{
		Label:    label,
		Rel:      rel,
		Step:     step,
		Affinity: affinity,
		Depth:    n.Depth + 1,
		Parent:   n,
	}
	n.Children = append(n.Children, c)
	return c
}

// Walk visits every node in pre-order (root first, children in insertion
// order) until fn returns false.
func (g *GDS) Walk(fn func(*Node) bool) {
	var rec func(*Node) bool
	rec = func(n *Node) bool {
		if !fn(n) {
			return false
		}
		for _, c := range n.Children {
			if !rec(c) {
				return false
			}
		}
		return true
	}
	rec(g.Root)
}

// Nodes returns all nodes in pre-order.
func (g *GDS) Nodes() []*Node {
	var out []*Node
	g.Walk(func(n *Node) bool { out = append(out, n); return true })
	return out
}

// Find returns the first node with the given label, or nil.
func (g *GDS) Find(label string) *Node {
	var found *Node
	g.Walk(func(n *Node) bool {
		if n.Label == label {
			found = n
			return false
		}
		return true
	})
	return found
}

// Threshold returns a deep copy of g containing only nodes with affinity
// >= theta: the paper's G_DS(θ) (§2.1). A node is kept only if all its
// ancestors are kept (affinity decreases along paths, so this is the
// natural subtree semantics).
func (g *GDS) Threshold(theta float64) *GDS {
	out := New(g.DSName)
	out.Root.Affinity = g.Root.Affinity
	var rec func(src, dst *Node)
	rec = func(src, dst *Node) {
		for _, c := range src.Children {
			if c.Affinity < theta {
				continue
			}
			nc := dst.addChild(c.Label, c.Rel, c.Step, c.Affinity)
			rec(c, nc)
		}
	}
	rec(g.Root, out.Root)
	return out
}

// Clone returns a deep copy of the G_DS. Annotations (Max/MMax) are copied
// too; callers typically clone before annotating against a different
// ranking setting, since annotation mutates the nodes.
func (g *GDS) Clone() *GDS {
	out := New(g.DSName)
	out.Root.Affinity = g.Root.Affinity
	out.Root.Max, out.Root.MMax = g.Root.Max, g.Root.MMax
	var rec func(src, dst *Node)
	rec = func(src, dst *Node) {
		for _, c := range src.Children {
			nc := dst.addChild(c.Label, c.Rel, c.Step, c.Affinity)
			nc.Max, nc.MMax = c.Max, c.MMax
			rec(c, nc)
		}
	}
	rec(g.Root, out.Root)
	return out
}

// Validate checks that every node's relation and traversal exists in db and
// that the FK endpoints match the parent/child relations.
func (g *GDS) Validate(db *relational.DB) error {
	var err error
	g.Walk(func(n *Node) bool {
		err = validateNode(db, n)
		return err == nil
	})
	return err
}

func validateNode(db *relational.DB, n *Node) error {
	rel := db.Relation(n.Rel)
	if rel == nil {
		return fmt.Errorf("gds: node %s: unknown relation %s", n.Label, n.Rel)
	}
	switch n.Step.Kind {
	case StepRoot:
		if n.Parent != nil {
			return fmt.Errorf("gds: non-root node %s has root step", n.Label)
		}
	case StepChildFK:
		if n.Step.FKOrd < 0 || n.Step.FKOrd >= len(rel.FKs) {
			return fmt.Errorf("gds: node %s: FK ordinal %d out of range for %s", n.Label, n.Step.FKOrd, n.Rel)
		}
		if ref := rel.FKs[n.Step.FKOrd].Ref; ref != n.Parent.Rel {
			return fmt.Errorf("gds: node %s: FK references %s, parent is %s", n.Label, ref, n.Parent.Rel)
		}
	case StepParentFK:
		prel := db.Relation(n.Parent.Rel)
		if n.Step.FKOrd < 0 || n.Step.FKOrd >= len(prel.FKs) {
			return fmt.Errorf("gds: node %s: FK ordinal %d out of range for parent %s", n.Label, n.Step.FKOrd, n.Parent.Rel)
		}
		if ref := prel.FKs[n.Step.FKOrd].Ref; ref != n.Rel {
			return fmt.Errorf("gds: node %s: parent FK references %s, node is %s", n.Label, ref, n.Rel)
		}
	case StepJunction:
		j := db.Relation(n.Step.Junction)
		if j == nil {
			return fmt.Errorf("gds: node %s: unknown junction %s", n.Label, n.Step.Junction)
		}
		if n.Step.JFKParent < 0 || n.Step.JFKParent >= len(j.FKs) ||
			n.Step.JFKChild < 0 || n.Step.JFKChild >= len(j.FKs) {
			return fmt.Errorf("gds: node %s: junction FK ordinals out of range", n.Label)
		}
		if ref := j.FKs[n.Step.JFKParent].Ref; ref != n.Parent.Rel {
			return fmt.Errorf("gds: node %s: junction parent FK references %s, parent is %s", n.Label, ref, n.Parent.Rel)
		}
		if ref := j.FKs[n.Step.JFKChild].Ref; ref != n.Rel {
			return fmt.Errorf("gds: node %s: junction child FK references %s, node is %s", n.Label, ref, n.Rel)
		}
	default:
		return fmt.Errorf("gds: node %s: unknown step kind %d", n.Label, n.Step.Kind)
	}
	return nil
}

// AnnotateMax computes Max and MMax for every node from per-relation score
// maxima: max(Ri) is the maximum local importance of tuples in the node's
// relation (maximum global score in Ri × the node's affinity — a global
// statistic reused across queries, §5.3), and mmax(Ri) the maximum max(Rj)
// over the node's descendants (0 for leaves). One O(nodes) walk, no vector
// scans: the engine computes the maxima once per setting, in the pass it
// already pays for presentation scaling.
func (g *GDS) AnnotateMax(maxByRel map[string]float64) error {
	var rec func(n *Node) (float64, error)
	rec = func(n *Node) (float64, error) {
		m, ok := maxByRel[n.Rel]
		if !ok {
			return 0, fmt.Errorf("gds: no scores for relation %s", n.Rel)
		}
		n.Max = m * n.Affinity
		n.MMax = 0
		for _, c := range n.Children {
			cm, err := rec(c)
			if err != nil {
				return 0, err
			}
			if cm > n.MMax {
				n.MMax = cm
			}
		}
		m = n.Max
		if n.MMax > m {
			m = n.MMax
		}
		return m, nil
	}
	_, err := rec(g.Root)
	return err
}

// String renders the G_DS like the paper's figures: each node with its
// affinity, max and mmax annotations, indented by depth.
func (g *GDS) String() string {
	var b strings.Builder
	g.Walk(func(n *Node) bool {
		fmt.Fprintf(&b, "%s%s (%.2f) max=%.3f mmax=%.3f\n",
			strings.Repeat("  ", n.Depth), n.Label, n.Affinity, n.Max, n.MMax)
		return true
	})
	return b.String()
}
