package eval

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"sizelos"
	"sizelos/internal/ostree"
	"sizelos/internal/relational"
	"sizelos/internal/sizel"
)

// DPBudget caps one DP run during efficiency experiments; the paper
// likewise stopped DP "after 30 min of running". Runs beyond the budget
// report NaN, rendered as ">cap".
var DPBudget = 10 * time.Second

// Efficiency reproduces Figure 10 (a)-(d): size-l computation time per
// method (excluding OS generation, as the paper measures), averaged over
// roots, across l.
func Efficiency(eng *sizelos.Engine, dsRel string, roots []relational.TupleID, ls []int, setting string) (Figure, error) {
	avg, err := AvgOSSize(eng, dsRel, roots)
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{
		Title:  fmt.Sprintf("Figure 10: efficiency, %s (Aver|OS|=%.0f, setting %s)", dsRel, avg, setting),
		XLabel: "l",
		YLabel: "size-l computation time (s)",
	}
	for _, l := range ls {
		fig.X = append(fig.X, float64(l))
	}
	src, err := sourceOf(eng, dsRel, setting)
	if err != nil {
		return Figure{}, err
	}
	methods := figureMethods(true)
	times := make([][]float64, len(methods))
	for i := range times {
		times[i] = make([]float64, len(ls))
	}
	for _, root := range roots {
		for li, l := range ls {
			secs, err := timeMethods(src, root, l, methods)
			if err != nil {
				return Figure{}, err
			}
			for mi, sec := range secs {
				times[mi][li] += sec // a capped run's NaN sticks
			}
		}
	}
	for mi, m := range methods {
		s := Series{Name: m.name}
		for li := range ls {
			s.Y = append(s.Y, times[mi][li]/float64(len(roots)))
		}
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = append(fig.Notes, fmt.Sprintf("DP runs exceeding %v report >cap (paper: stopped after 30 min)", DPBudget))
	return fig, nil
}

// timeMethods times every method on root's complete and prelim-l trees for
// a size-l query, one entry per method.
func timeMethods(src source, root relational.TupleID, l int, methods []methodSpec) ([]float64, error) {
	complete, err := src.sizeL(src.graph, root, l)
	if err != nil {
		return nil, err
	}
	prelim, err := src.prelim(src.graph, root, l)
	if err != nil {
		return nil, err
	}
	secs := make([]float64, len(methods))
	for mi, m := range methods {
		tree := prelim
		if m.complete {
			tree = complete
		}
		if secs[mi], err = timeMethod(m.algo, tree, l); err != nil {
			return nil, err
		}
	}
	return secs, nil
}

// timeMethod times one size-l computation alone; a DP run past DPBudget is
// NaN.
func timeMethod(algo sizelos.Algorithm, tree *ostree.Tree, l int) (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), DPBudget)
	defer cancel()
	start := time.Now()
	if _, err := sizel.Select(ctx, string(algo), tree, l); err != nil {
		if ctx.Err() != nil {
			return math.NaN(), nil
		}
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// Scalability reproduces Figure 10(e): size-l computation time against OS
// size at a fixed l, one x-point per root (sorted ascending by OS size).
func Scalability(eng *sizelos.Engine, dsRel string, roots []relational.TupleID, l int, setting string) (Figure, error) {
	fig := Figure{
		Title:  fmt.Sprintf("Figure 10(e): scalability with |OS|, %s, size-%d OS", dsRel, l),
		XLabel: "|OS|",
		YLabel: "size-l computation time (s)",
	}
	src, err := sourceOf(eng, dsRel, setting)
	if err != nil {
		return Figure{}, err
	}
	methods := figureMethods(true)
	for _, m := range methods {
		fig.Series = append(fig.Series, Series{Name: m.name})
	}
	type sized struct {
		root relational.TupleID
		n    int
	}
	var order []sized
	for _, root := range roots {
		tree, err := src.os(root, 0)
		if err != nil {
			return Figure{}, err
		}
		order = append(order, sized{root, tree.Len()})
	}
	slices.SortStableFunc(order, func(a, b sized) int { return a.n - b.n })
	for _, o := range order {
		fig.X = append(fig.X, float64(o.n))
		secs, err := timeMethods(src, o.root, l, methods)
		if err != nil {
			return Figure{}, err
		}
		for mi, sec := range secs {
			fig.Series[mi].Y = append(fig.Series[mi].Y, sec)
		}
	}
	return fig, nil
}

// GenerationBreakdown reproduces Figure 10(f): the cost split between OS
// generation and size-l computation, for the data-graph and direct-database
// generation paths, plus the prelim-l vs complete OS sizes.
func GenerationBreakdown(eng *sizelos.Engine, dsRel string, roots []relational.TupleID, ls []int, setting string) (Figure, error) {
	fig := Figure{
		Title:  fmt.Sprintf("Figure 10(f): generation + size-l cost breakdown, %s", dsRel),
		XLabel: "l",
		YLabel: "seconds (averages per OS)",
		Series: []Series{
			{Name: "gen complete (graph)"},
			{Name: "gen complete (db)"},
			{Name: "gen prelim (graph)"},
			{Name: "gen prelim (db)"},
			{Name: "bottom-up on prelim"},
			{Name: "top-path on prelim"},
			{Name: "|complete|"},
			{Name: "|prelim|"},
		},
	}
	src, err := sourceOf(eng, dsRel, setting)
	if err != nil {
		return Figure{}, err
	}
	for _, l := range ls {
		fig.X = append(fig.X, float64(l))
		var tGenG, tGenD, tPreG, tPreD, tBU, tTP, szC, szP float64
		for _, root := range roots {
			start := time.Now()
			complete, err := src.sizeL(src.graph, root, l)
			if err != nil {
				return Figure{}, err
			}
			tGenG += time.Since(start).Seconds()

			// A fresh DB source per root so its lazy index builds are
			// charged, like a cold database path.
			dsrc := ostree.NewDBSource(eng.DB(), src.scores)
			start = time.Now()
			if _, err := src.sizeL(dsrc, root, l); err != nil {
				return Figure{}, err
			}
			tGenD += time.Since(start).Seconds()

			start = time.Now()
			prelim, err := src.prelim(src.graph, root, l)
			if err != nil {
				return Figure{}, err
			}
			tPreG += time.Since(start).Seconds()

			dsrc = ostree.NewDBSource(eng.DB(), src.scores)
			start = time.Now()
			if _, err := src.prelim(dsrc, root, l); err != nil {
				return Figure{}, err
			}
			tPreD += time.Since(start).Seconds()

			bu, err := timeMethod(sizelos.AlgoBottomUp, prelim, l)
			if err != nil {
				return Figure{}, err
			}
			tp, err := timeMethod(sizelos.AlgoTopPath, prelim, l)
			if err != nil {
				return Figure{}, err
			}
			tBU, tTP = tBU+bu, tTP+tp
			szC += float64(complete.Len())
			szP += float64(prelim.Len())
		}
		n := float64(len(roots))
		for i, v := range []float64{tGenG, tGenD, tPreG, tPreD, tBU, tTP, szC, szP} {
			fig.Series[i].Y = append(fig.Series[i].Y, v/n)
		}
	}
	fig.Notes = append(fig.Notes,
		"generation from the data graph should dominate direct database joins (paper: 0.2s vs 12.9s on Supplier OSs)",
		"|complete| and |prelim| rows are tuple counts, not seconds")
	return fig, nil
}
