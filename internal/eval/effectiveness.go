package eval

import (
	"context"
	"fmt"

	"sizelos"
	"sizelos/internal/relational"
	"sizelos/internal/sizel"
	"sizelos/internal/snippet"
)

// Effectiveness reproduces one sub-figure of Figure 8: for each ranking
// setting and each l, the average fraction of tuples shared between the
// optimal size-l OS computed under that setting and the judges' size-l
// summaries. Because both summaries have l tuples, the overlap fraction is
// simultaneously recall and precision, as the paper notes. The optimal
// summary is the one Engine.SizeL serves for DP on the complete OS.
func Effectiveness(eng *sizelos.Engine, dsRel string, roots []relational.TupleID, ls []int, settings []string, cfg JudgeConfig) (Figure, error) {
	fig := Figure{
		Title:  fmt.Sprintf("Figure 8: effectiveness, %s (optimal size-l OS vs %d simulated judges)", dsRel, cfg.Judges),
		XLabel: "l",
		YLabel: "effectiveness (recall=precision, %)",
	}
	for _, l := range ls {
		fig.X = append(fig.X, float64(l))
	}
	for _, setting := range settings {
		series := Series{Name: setting}
		for _, l := range ls {
			req := sizelos.QueryRequest{Rel: dsRel, L: l, Setting: setting, Algorithm: sizelos.AlgoDP, Complete: true}
			sum, count := 0.0, 0
			for _, root := range roots {
				opt, err := eng.SizeL(req, root)
				if err != nil {
					return Figure{}, err
				}
				computed := refsOf(opt.Tree, opt.Result.Nodes)
				panels, err := JudgePanel(eng, dsRel, root, l, cfg)
				if err != nil {
					return Figure{}, err
				}
				for _, judge := range panels {
					inter := 0
					for ref := range judge {
						if computed[ref] {
							inter++
						}
					}
					denom := l
					if len(judge) < denom {
						denom = len(judge) // tiny OSs: judge summary may be smaller
					}
					if denom > 0 {
						sum += 100 * float64(inter) / float64(denom)
						count++
					}
				}
			}
			series.Y = append(series.Y, sum/float64(count))
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// SnippetComparison reproduces the §6.1 comparative evaluation against a
// Google-Desktop-style static snippet: how many of the judges' size-5
// tuples the first-three-tuples snippet recovers versus the optimal size-5
// OS. The paper found "in all cases Google snippets found zero and
// exceptionally one tuple".
func SnippetComparison(eng *sizelos.Engine, dsRel string, roots []relational.TupleID, cfg JudgeConfig) (Figure, error) {
	const l = 5
	fig := Figure{
		Title:  fmt.Sprintf("§6.1 comparison: static snippets vs size-5 OSs, %s", dsRel),
		XLabel: "DS#",
		YLabel: "judge tuples recovered (of 5)",
		Series: []Series{{Name: "snippet"}, {Name: "size-5 OS"}},
	}
	src, err := sourceOf(eng, dsRel, sizelos.DefaultSetting)
	if err != nil {
		return Figure{}, err
	}
	for i, root := range roots {
		fig.X = append(fig.X, float64(i+1))
		tree, err := src.os(root, 0)
		if err != nil {
			return Figure{}, err
		}
		_, picked := snippet.Static(tree, dsRel)
		res, err := sizel.DP(context.Background(), tree, l)
		if err != nil {
			return Figure{}, err
		}
		panels, err := JudgePanel(eng, dsRel, root, l, cfg)
		if err != nil {
			return Figure{}, err
		}
		var snipSum, osSum float64
		for _, judge := range panels {
			snipSum += float64(overlap(judge, tree, picked))
			osSum += float64(overlap(judge, tree, res.Nodes))
		}
		fig.Series[0].Y = append(fig.Series[0].Y, snipSum/float64(len(panels)))
		fig.Series[1].Y = append(fig.Series[1].Y, osSum/float64(len(panels)))
	}
	fig.Notes = append(fig.Notes,
		"snippet = boilerplate + first 3 document tuples (Google Desktop behaviour, §6.1)")
	return fig, nil
}
