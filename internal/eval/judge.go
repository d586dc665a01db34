package eval

import (
	"math"
	"math/rand"

	"sizelos"
	"sizelos/internal/ostree"
	"sizelos/internal/relational"
	"sizelos/internal/sizel"
)

// JudgeConfig parameterizes the simulated human evaluators.
type JudgeConfig struct {
	// Judges is the panel size (the paper used 11 DBLP authors / 8
	// professors).
	Judges int
	// NoiseSigma is the standard deviation of the multiplicative log-normal
	// perturbation applied to the reference importance: how far a human's
	// judgement wanders from the reference ranking.
	NoiseSigma float64
	// Bias multiplies the perceived weight of nodes by G_DS label; the
	// paper reports evaluators picking Papers before co-authors/years
	// (§6.1), which a >1 multiplier on "Paper" models.
	Bias map[string]float64
	// ReferenceSetting names the ranking the judges' perception is anchored
	// to (default GA1-d1, which the paper found closest to the judges).
	ReferenceSetting string
	// Seed makes the panel deterministic.
	Seed int64
}

// DefaultJudgeConfig mirrors the evaluation scale of §6.1.
func DefaultJudgeConfig() JudgeConfig {
	return JudgeConfig{
		Judges:           8,
		NoiseSigma:       0.25,
		Bias:             map[string]float64{"Paper": 1.2, "Order": 1.2, "Partsupp": 1.1},
		ReferenceSetting: sizelos.DefaultSetting,
		Seed:             1001,
	}
}

// judgeSummary builds one judge's size-l OS of the given complete OS: the
// judge acts as a competent summarizer under their own *perceived*
// importance — we run the Top-Path heuristic on a weight-substituted copy
// of the tree. What separates a judge from the system is therefore exactly
// the perception gap (noise + relation bias), which is the variable
// Figure 8 studies.
func judgeSummary(tree *ostree.Tree, l int, perceived []float64) []ostree.NodeID {
	shadow := &ostree.Tree{Nodes: make([]ostree.Node, tree.Len()), GDS: tree.GDS, DB: tree.DB}
	copy(shadow.Nodes, tree.Nodes)
	for i := range shadow.Nodes {
		shadow.Nodes[i].Weight = perceived[i]
	}
	res, err := sizel.TopPath(shadow, l, sizel.TopPathOptions{})
	if err != nil {
		// The tree is non-empty and l >= 1 by construction; a failure here
		// is a programming error.
		panic(err)
	}
	return res.Nodes
}

// perceivedWeights computes one judge's perceived importance for every node
// of the reference tree: reference local importance × label bias ×
// log-normal noise.
func perceivedWeights(tree *ostree.Tree, cfg JudgeConfig, judge int) []float64 {
	r := rand.New(rand.NewSource(cfg.Seed + int64(judge)*7919))
	out := make([]float64, tree.Len())
	for i := range tree.Nodes {
		n := &tree.Nodes[i]
		w := n.Weight
		if b, ok := cfg.Bias[n.GDS.Label]; ok {
			w *= b
		}
		noise := math.Exp(r.NormFloat64() * cfg.NoiseSigma)
		out[i] = w * noise
	}
	return out
}

// JudgePanel produces the panel's size-l summaries for one data subject,
// as tuple-reference sets. The judges perceive importance anchored to the
// reference setting regardless of which setting the system under test uses
// — that asymmetry is exactly what Figure 8 probes.
func JudgePanel(eng *sizelos.Engine, dsRel string, root relational.TupleID, l int, cfg JudgeConfig) ([]map[tupleRef]bool, error) {
	src, err := sourceOf(eng, dsRel, cfg.ReferenceSetting)
	if err != nil {
		return nil, err
	}
	tree, err := src.os(root, 0)
	if err != nil {
		return nil, err
	}
	panels := make([]map[tupleRef]bool, cfg.Judges)
	for j := 0; j < cfg.Judges; j++ {
		perceived := perceivedWeights(tree, cfg, j)
		sel := judgeSummary(tree, l, perceived)
		panels[j] = refsOf(tree, sel)
	}
	return panels, nil
}
