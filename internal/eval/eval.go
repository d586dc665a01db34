package eval

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"sizelos"
	"sizelos/internal/ostree"
	"sizelos/internal/relational"
	"sizelos/internal/schemagraph"
	"sizelos/internal/sizel"
)

// Series is one plotted line: y value per x value.
type Series struct {
	Name string
	Y    []float64
}

// Figure is a reproduced table/figure: one row per x value, one column per
// series.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
	Notes  []string
}

// Format renders the figure as a fixed-width text table.
func (f *Figure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", f.Title)
	headers := make([]string, 0, len(f.Series)+1)
	headers = append(headers, f.XLabel)
	for _, s := range f.Series {
		headers = append(headers, s.Name)
	}
	width := make([]int, len(headers))
	for i, h := range headers {
		width[i] = len(h)
		if width[i] < 8 {
			width[i] = 8
		}
	}
	rows := make([][]string, len(f.X))
	for xi := range f.X {
		row := make([]string, len(headers))
		row[0] = trimFloat(f.X[xi])
		for si, s := range f.Series {
			if xi < len(s.Y) {
				row[si+1] = formatCell(s.Y[xi])
			} else {
				row[si+1] = "-"
			}
		}
		for i, c := range row {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
		rows[xi] = row
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s", width[i]+2, c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	for _, r := range rows {
		writeRow(r)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

func formatCell(v float64) string {
	if math.IsNaN(v) {
		return ">cap"
	}
	av := math.Abs(v)
	switch {
	case av != 0 && av < 0.01:
		return fmt.Sprintf("%.2e", v)
	case av >= 1000:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// tupleRef identifies a tuple occurrence across independently generated
// trees: relation ordinal, tuple id and the G_DS role label.
type tupleRef struct {
	rel   int32
	tuple relational.TupleID
	label string
}

func refsOf(tree *ostree.Tree, nodes []ostree.NodeID) map[tupleRef]bool {
	out := make(map[tupleRef]bool, len(nodes))
	for _, id := range nodes {
		n := tree.Nodes[id]
		out[tupleRef{n.Rel, n.Tuple, n.GDS.Label}] = true
	}
	return out
}

func overlap(a map[tupleRef]bool, tree *ostree.Tree, nodes []ostree.NodeID) int {
	c := 0
	for _, id := range nodes {
		n := tree.Nodes[id]
		if a[tupleRef{n.Rel, n.Tuple, n.GDS.Label}] {
			c++
		}
	}
	return c
}

// source is what a figure extracts dsRel's OSs from under one setting: the
// engine's annotated G_DS and a data-graph source over the setting's scores.
type source struct {
	scores relational.DBScores
	gds    *schemagraph.GDS
	graph  *ostree.GraphSource
}

func sourceOf(eng *sizelos.Engine, dsRel, setting string) (source, error) {
	scores, err := eng.Scores(setting)
	if err != nil {
		return source{}, err
	}
	gds, err := eng.GDS(dsRel, setting)
	if err != nil {
		return source{}, err
	}
	return source{scores, gds, ostree.NewGraphSource(eng.Graph(), scores)}, nil
}

// os generates root's OS down to maxDepth; 0 is the complete OS.
func (s source) os(root relational.TupleID, maxDepth int) (*ostree.Tree, error) {
	return ostree.Generate(s.graph, s.gds, root, ostree.GenOptions{MaxDepth: maxDepth})
}

// prelim generates root's prelim-l OS as a size-l query does.
func (s source) prelim(root relational.TupleID, l int) (*ostree.Tree, error) {
	tree, _, err := sizel.PrelimL(s.graph, s.gds, root, l, sizel.PrelimOptions{MaxDepth: l - 1})
	return tree, err
}

// PickRoots deterministically selects n data-subject tuples of dsRel whose
// complete OS has at least minOS tuples, scanning candidates in seeded
// random order. It mirrors the paper's "10 random OSs per G_DS" (§6.2),
// which were implicitly non-trivial OSs.
func PickRoots(eng *sizelos.Engine, dsRel string, n, minOS int, seed int64) ([]relational.TupleID, error) {
	src, err := sourceOf(eng, dsRel, sizelos.DefaultSetting)
	if err != nil {
		return nil, err
	}
	order := rand.New(rand.NewSource(seed)).Perm(eng.DB().Relation(dsRel).Len())
	var out []relational.TupleID
	for _, ti := range order {
		tree, err := src.os(relational.TupleID(ti), 0)
		if err != nil {
			return nil, err
		}
		if tree.Len() >= minOS {
			out = append(out, relational.TupleID(ti))
			if len(out) == n {
				return out, nil
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("eval: no %s OS reaches %d tuples", dsRel, minOS)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

// AvgOSSize reports the average complete-OS size over the given roots,
// matching the Aver|OS| annotations of Figures 9 and 10.
func AvgOSSize(eng *sizelos.Engine, dsRel string, roots []relational.TupleID) (float64, error) {
	src, err := sourceOf(eng, dsRel, sizelos.DefaultSetting)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, r := range roots {
		tree, err := src.os(r, 0)
		if err != nil {
			return 0, err
		}
		total += tree.Len()
	}
	return float64(total) / float64(len(roots)), nil
}
