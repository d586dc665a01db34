package eval

import (
	"context"
	"fmt"

	"sizelos"
	"sizelos/internal/ostree"
	"sizelos/internal/relational"
	"sizelos/internal/sizel"
)

// LStability quantifies the §7 observation that "optimal size-l OSs for
// different l could be very different", which blocks incremental
// computation: for each l it reports the average fraction of the optimal
// size-l OS that survives inside the optimal size-(l+1) OS. A value of 100
// would mean summaries only ever grow (incremental computation safe); the
// paper's conjecture predicts dips below 100.
func LStability(eng *sizelos.Engine, dsRel string, roots []relational.TupleID, ls []int, setting string) (Figure, error) {
	fig := Figure{
		Title:  fmt.Sprintf("§7 analysis: size-l vs size-(l+1) overlap, %s", dsRel),
		XLabel: "l",
		YLabel: "avg %% of size-l kept in size-(l+1)",
		Series: []Series{{Name: "overlap"}},
	}
	src, err := sourceOf(eng, dsRel, setting)
	if err != nil {
		return Figure{}, err
	}
	for _, l := range ls {
		fig.X = append(fig.X, float64(l))
		sum, count := 0.0, 0
		for _, root := range roots {
			tree, err := src.os(root, l)
			if err != nil {
				return Figure{}, err
			}
			if tree.Len() <= l+1 {
				continue // trivial: the whole OS is both summaries
			}
			a, err := sizel.DP(context.Background(), tree, l)
			if err != nil {
				return Figure{}, err
			}
			b, err := sizel.DP(context.Background(), tree, l+1)
			if err != nil {
				return Figure{}, err
			}
			inB := make(map[ostree.NodeID]bool, len(b.Nodes))
			for _, id := range b.Nodes {
				inB[id] = true
			}
			kept := 0
			for _, id := range a.Nodes {
				if inB[id] {
					kept++
				}
			}
			sum += 100 * float64(kept) / float64(len(a.Nodes))
			count++
		}
		if count == 0 {
			fig.Series[0].Y = append(fig.Series[0].Y, 100)
		} else {
			fig.Series[0].Y = append(fig.Series[0].Y, sum/float64(count))
		}
	}
	return fig, nil
}
