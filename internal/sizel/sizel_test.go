package sizel

import (
	"context"
	"math/rand"
	"testing"

	"sizelos/internal/ostree"
)

// buildTree constructs a test tree from parent links and weights.
// parents[0] must be -1 (root); parents[i] < i for all i.
func buildTree(t *testing.T, parents []int, weights []float64) *ostree.Tree {
	if t != nil {
		t.Helper()
	}
	if len(parents) != len(weights) || len(parents) == 0 || parents[0] != -1 {
		panic("buildTree: malformed input")
	}
	tree := &ostree.Tree{}
	for i := range parents {
		n := ostree.Node{Weight: weights[i], Parent: ostree.NodeID(parents[i])}
		if parents[i] >= 0 {
			n.Depth = tree.Nodes[parents[i]].Depth + 1
		} else {
			n.Parent = ostree.None
		}
		tree.Nodes = append(tree.Nodes, n)
		if parents[i] >= 0 {
			p := &tree.Nodes[parents[i]]
			p.Children = append(p.Children, ostree.NodeID(i))
		}
	}
	return tree
}

// figure4Tree reproduces the OS of the paper's Figure 4 (node 1..14 become
// arena ids 0..13):
//
//	1(30) -> 2(20), 3(11), 4(31), 5(80), 6(35)
//	3 -> 7(10), 8(15), 9(5);  4 -> 10(13), 11(30);  6 -> 12(w12)
//	11 -> 13(60);  12 -> 14(40)
func figure4Tree(t *testing.T, w12 float64) *ostree.Tree {
	parents := []int{-1, 0, 0, 0, 0, 0, 2, 2, 2, 3, 3, 5, 10, 11}
	weights := []float64{30, 20, 11, 31, 80, 35, 10, 15, 5, 13, 30, w12, 60, 40}
	return buildTree(t, parents, weights)
}

func ids(vals ...int) []ostree.NodeID {
	out := make([]ostree.NodeID, len(vals))
	for i, v := range vals {
		out[i] = ostree.NodeID(v)
	}
	return out
}

func sameIDs(a, b []ostree.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[ostree.NodeID]bool{}
	for _, x := range a {
		seen[x] = true
	}
	for _, x := range b {
		if !seen[x] {
			return false
		}
	}
	return true
}

func TestDPFigure4(t *testing.T) {
	tree := figure4Tree(t, 12)
	res, err := DP(context.Background(), tree, 4)
	if err != nil {
		t.Fatalf("DP: %v", err)
	}
	// The paper's worked example: S1,4 = {1,4,5,6} (arena ids 0,3,4,5).
	want := ids(0, 3, 4, 5)
	if !sameIDs(res.Nodes, want) {
		t.Errorf("DP size-4 = %v, want %v", res.Nodes, want)
	}
	if !approx(res.Importance, 30+31+80+35) {
		t.Errorf("Importance = %v, want 176", res.Importance)
	}
}

func TestDPFigure4Intermediate(t *testing.T) {
	// S4,3 = {4,11,13}: force the root budget so the subtree decision shows
	// up — run DP on the subtree by re-rooting at node 4 (arena id 3).
	sub := buildTree(t, []int{-1, 0, 0, 2}, []float64{31, 13, 30, 60})
	// ids: 0=node4, 1=node10, 2=node11, 3=node13
	res, err := DP(context.Background(), sub, 3)
	if err != nil {
		t.Fatalf("DP: %v", err)
	}
	if !sameIDs(res.Nodes, ids(0, 2, 3)) {
		t.Errorf("DP = %v, want {4,11,13}", res.Nodes)
	}
	if !approx(res.Importance, 31+30+60) {
		t.Errorf("Importance = %v, want 121", res.Importance)
	}
}

func TestBottomUpSuboptimalOnFigure5Weights(t *testing.T) {
	// With w(12)=55 (the Figure 5 variant) the optimal size-5 OS is
	// {1,5,6,12,14}; Bottom-Up returns a suboptimal result (§5.1 notes the
	// algorithm "will not always return the optimal solution").
	tree := figure4Tree(t, 55)
	opt, err := DP(context.Background(), tree, 5)
	if err != nil {
		t.Fatalf("DP: %v", err)
	}
	if !sameIDs(opt.Nodes, ids(0, 4, 5, 11, 13)) {
		t.Errorf("optimal = %v, want {1,5,6,12,14}", opt.Nodes)
	}
	bu, err := BottomUp(tree, 5)
	if err != nil {
		t.Fatalf("BottomUp: %v", err)
	}
	if bu.Importance >= opt.Importance {
		t.Errorf("BottomUp %v should be strictly below optimal %v here", bu.Importance, opt.Importance)
	}
	if !tree.IsConnectedSubtree(bu.Nodes) {
		t.Error("BottomUp result disconnected")
	}
}

func TestTopPathFigure6FirstPick(t *testing.T) {
	// §5.2's example: the first selected path is {1,5} (AI 55).
	tree := figure4Tree(t, 12)
	res, err := TopPath(tree, 2, TopPathOptions{})
	if err != nil {
		t.Fatalf("TopPath: %v", err)
	}
	if !sameIDs(res.Nodes, ids(0, 4)) {
		t.Errorf("TopPath size-2 = %v, want {1,5}", res.Nodes)
	}
}

func TestAllAlgorithmsBasicInvariants(t *testing.T) {
	tree := figure4Tree(t, 12)
	algos := map[string]func(int) (Result, error){
		"dp":        func(l int) (Result, error) { return DP(context.Background(), tree, l) },
		"bottom-up": func(l int) (Result, error) { return BottomUp(tree, l) },
		"top-path":  func(l int) (Result, error) { return TopPath(tree, l, TopPathOptions{}) },
		"top-path-nocache": func(l int) (Result, error) {
			return TopPath(tree, l, TopPathOptions{NoChampionCache: true})
		},
		"brute": func(l int) (Result, error) { return BruteForce(tree, l) },
	}
	for name, algo := range algos {
		for l := 1; l <= tree.Len()+2; l++ {
			res, err := algo(l)
			if err != nil {
				t.Fatalf("%s(l=%d): %v", name, l, err)
			}
			wantLen := l
			if wantLen > tree.Len() {
				wantLen = tree.Len()
			}
			if len(res.Nodes) != wantLen {
				t.Fatalf("%s(l=%d): %d nodes, want %d", name, l, len(res.Nodes), wantLen)
			}
			if !tree.IsConnectedSubtree(res.Nodes) {
				t.Fatalf("%s(l=%d): disconnected result %v", name, l, res.Nodes)
			}
			if !approx(res.Importance, tree.ImportanceOf(res.Nodes)) {
				t.Fatalf("%s(l=%d): importance mismatch", name, l)
			}
		}
	}
}

func TestArgErrors(t *testing.T) {
	tree := figure4Tree(t, 12)
	if _, err := DP(context.Background(), tree, 0); err == nil {
		t.Error("DP accepted l=0")
	}
	if _, err := BottomUp(nil, 3); err == nil {
		t.Error("BottomUp accepted nil tree")
	}
	if _, err := TopPath(&ostree.Tree{}, 3, TopPathOptions{}); err == nil {
		t.Error("TopPath accepted empty tree")
	}
	if _, err := BruteForce(tree, -1); err == nil {
		t.Error("BruteForce accepted l=-1")
	}
}

func TestDPContextCancel(t *testing.T) {
	// A sizable random tree so DP runs long enough to observe the flag.
	tree := randomTree(rand.New(rand.NewSource(5)), 4000, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DP(ctx, tree, 30); err == nil {
		t.Fatal("cancelled DP returned no error")
	}
}

func TestBruteForceTooLarge(t *testing.T) {
	tree := randomTree(rand.New(rand.NewSource(1)), 70, false)
	if _, err := BruteForce(tree, 3); err == nil {
		t.Fatal("BruteForce accepted 70-node tree")
	}
}

// randomTree builds a random tree of n nodes. With monotone=true, weights
// decrease from parent to child (Lemma 2's precondition).
func randomTree(r *rand.Rand, n int, monotone bool) *ostree.Tree {
	parents := make([]int, n)
	weights := make([]float64, n)
	parents[0] = -1
	weights[0] = 50 + r.Float64()*50
	for i := 1; i < n; i++ {
		parents[i] = r.Intn(i)
		if monotone {
			weights[i] = weights[parents[i]] * (0.3 + 0.7*r.Float64())
		} else {
			weights[i] = heavyWeight(r)
		}
	}
	return buildTree(nil, parents, weights)
}

// heavyWeight draws a heavy-tailed weight: occasional gems under junk
// parents.
func heavyWeight(r *rand.Rand) float64 {
	if w := r.Float64() * 10; r.Intn(6) != 0 {
		return w
	}
	return 50 + r.Float64()*100
}

func TestDPMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		n := 2 + r.Intn(13)
		tree := randomTree(r, n, false)
		l := 1 + r.Intn(6)
		dp, err := DP(context.Background(), tree, l)
		if err != nil {
			t.Fatalf("trial %d: DP: %v", trial, err)
		}
		bf, err := BruteForce(tree, l)
		if err != nil {
			t.Fatalf("trial %d: BruteForce: %v", trial, err)
		}
		if !approx(dp.Importance, bf.Importance) {
			t.Fatalf("trial %d (n=%d, l=%d): DP=%v != brute=%v\nDP nodes %v, brute nodes %v",
				trial, n, l, dp.Importance, bf.Importance, dp.Nodes, bf.Nodes)
		}
	}
}

func TestGreedyNeverBeatsOptimal(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 80; trial++ {
		n := 5 + r.Intn(60)
		tree := randomTree(r, n, false)
		l := 1 + r.Intn(n)
		opt, err := DP(context.Background(), tree, l)
		if err != nil {
			t.Fatalf("DP: %v", err)
		}
		for name, res := range map[string]Result{
			"bottom-up": mustRun(t, func() (Result, error) { return BottomUp(tree, l) }),
			"top-path":  mustRun(t, func() (Result, error) { return TopPath(tree, l, TopPathOptions{}) }),
		} {
			if res.Importance > opt.Importance+1e-9 {
				t.Fatalf("trial %d: %s importance %v exceeds optimal %v", trial, name, res.Importance, opt.Importance)
			}
			if !tree.IsConnectedSubtree(res.Nodes) {
				t.Fatalf("trial %d: %s disconnected", trial, name)
			}
		}
	}
}

func mustRun(t *testing.T, f func() (Result, error)) Result {
	t.Helper()
	res, err := f()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Lemma 2: under monotone weights Bottom-Up is optimal.
func TestBottomUpOptimalUnderMonotonicity(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 5 + r.Intn(40)
		tree := randomTree(r, n, true)
		l := 1 + r.Intn(n)
		opt, err := DP(context.Background(), tree, l)
		if err != nil {
			t.Fatalf("DP: %v", err)
		}
		bu, err := BottomUp(tree, l)
		if err != nil {
			t.Fatalf("BottomUp: %v", err)
		}
		if !approx(bu.Importance, opt.Importance) {
			t.Fatalf("trial %d (n=%d,l=%d): BottomUp %v != optimal %v under monotone weights",
				trial, n, l, bu.Importance, opt.Importance)
		}
	}
}

// The champion cache is a pure optimization: results must be identical.
func TestTopPathChampionCacheEquivalent(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		n := 5 + r.Intn(80)
		tree := randomTree(r, n, false)
		l := 1 + r.Intn(n)
		a, err := TopPath(tree, l, TopPathOptions{})
		if err != nil {
			t.Fatalf("TopPath: %v", err)
		}
		b, err := TopPath(tree, l, TopPathOptions{NoChampionCache: true})
		if err != nil {
			t.Fatalf("TopPath(nocache): %v", err)
		}
		if !sameIDs(a.Nodes, b.Nodes) {
			t.Fatalf("trial %d: cache variants differ: %v vs %v", trial, a.Nodes, b.Nodes)
		}
	}
}

// The paper reports Top-Path empirically dominating Bottom-Up; verify in
// aggregate over seeded random trees (not per-instance, which is not
// guaranteed).
func TestTopPathBeatsBottomUpOnAverage(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	var tpSum, buSum float64
	for trial := 0; trial < 150; trial++ {
		n := 20 + r.Intn(150)
		tree := randomTree(r, n, false)
		l := 5 + r.Intn(20)
		tp := mustRun(t, func() (Result, error) { return TopPath(tree, l, TopPathOptions{}) })
		bu := mustRun(t, func() (Result, error) { return BottomUp(tree, l) })
		tpSum += tp.Importance
		buSum += bu.Importance
	}
	if tpSum < buSum {
		t.Errorf("aggregate: top-path %v below bottom-up %v", tpSum, buSum)
	}
}

func TestSingleNodeTree(t *testing.T) {
	tree := buildTree(t, []int{-1}, []float64{5})
	for name, f := range map[string]func() (Result, error){
		"dp":        func() (Result, error) { return DP(context.Background(), tree, 1) },
		"bottom-up": func() (Result, error) { return BottomUp(tree, 1) },
		"top-path":  func() (Result, error) { return TopPath(tree, 1, TopPathOptions{}) },
		"brute":     func() (Result, error) { return BruteForce(tree, 1) },
	} {
		res, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Nodes) != 1 || res.Nodes[0] != 0 || !approx(res.Importance, 5) {
			t.Errorf("%s: %+v", name, res)
		}
	}
}

func approx(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
