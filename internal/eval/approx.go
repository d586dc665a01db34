package eval

import (
	"fmt"

	"sizelos"
	"sizelos/internal/relational"
)

// methodSpec names one (algorithm, input tree) combination of Figure 9/10.
type methodSpec struct {
	name     string
	algo     sizelos.Algorithm
	complete bool
}

func figureMethods(includeDP bool) []methodSpec {
	ms := []methodSpec{
		{"Bottom-Up (Complete OS)", sizelos.AlgoBottomUp, true},
		{"Bottom-Up (Prelim-l OS)", sizelos.AlgoBottomUp, false},
		{"Top-Path (Complete OS)", sizelos.AlgoTopPath, true},
		{"Top-Path (Prelim-l OS)", sizelos.AlgoTopPath, false},
	}
	if includeDP {
		ms = append(ms,
			methodSpec{"Optimal (Complete OS)", sizelos.AlgoDP, true},
			methodSpec{"Optimal (Prelim-l OS)", sizelos.AlgoDP, false},
		)
	}
	return ms
}

// Approximation reproduces Figure 9 (a)-(e): the importance of greedy
// size-l OSs relative to the optimal, averaged over the given roots, for
// each of the four method/input combinations. Every summary is the one
// Engine.SizeL serves for that algorithm and input tree.
func Approximation(eng *sizelos.Engine, dsRel string, roots []relational.TupleID, ls []int, setting string) (Figure, error) {
	avg, err := AvgOSSize(eng, dsRel, roots)
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{
		Title:  fmt.Sprintf("Figure 9: approximation quality, %s (Aver|OS|=%.0f, setting %s)", dsRel, avg, setting),
		XLabel: "l",
		YLabel: "approximation (% of optimal importance)",
	}
	for _, l := range ls {
		fig.X = append(fig.X, float64(l))
	}
	methods := figureMethods(false)
	sums := make([][]float64, len(methods))
	for i := range sums {
		sums[i] = make([]float64, len(ls))
	}
	for _, root := range roots {
		for li, l := range ls {
			req := sizelos.QueryRequest{Rel: dsRel, L: l, Setting: setting, Algorithm: sizelos.AlgoDP, Complete: true}
			opt, err := eng.SizeL(req, root)
			if err != nil {
				return Figure{}, err
			}
			for mi, m := range methods {
				req.Algorithm, req.Complete = m.algo, m.complete
				res, err := eng.SizeL(req, root)
				if err != nil {
					return Figure{}, err
				}
				ratio := 100.0
				if opt.Result.Importance > 0 {
					ratio = 100 * res.Result.Importance / opt.Result.Importance
				}
				sums[mi][li] += ratio
			}
		}
	}
	for mi, m := range methods {
		s := Series{Name: m.name}
		for li := range ls {
			s.Y = append(s.Y, sums[mi][li]/float64(len(roots)))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// ApproximationAcrossSettings reproduces Figure 9(f): average approximation
// quality per ranking setting at a fixed l.
func ApproximationAcrossSettings(eng *sizelos.Engine, dsRel string, roots []relational.TupleID, l int, settings []string) (Figure, error) {
	fig := Figure{
		Title:  fmt.Sprintf("Figure 9(f): approximation across importance settings, %s, l=%d", dsRel, l),
		XLabel: "setting#",
		YLabel: "approximation (% of optimal importance)",
	}
	methods := figureMethods(false)
	for _, m := range methods {
		fig.Series = append(fig.Series, Series{Name: m.name})
	}
	for si, setting := range settings {
		fig.X = append(fig.X, float64(si+1))
		sub, err := Approximation(eng, dsRel, roots, []int{l}, setting)
		if err != nil {
			return Figure{}, err
		}
		for mi := range methods {
			fig.Series[mi].Y = append(fig.Series[mi].Y, sub.Series[mi].Y[0])
		}
		fig.Notes = append(fig.Notes, fmt.Sprintf("setting#%d = %s", si+1, setting))
	}
	return fig, nil
}
