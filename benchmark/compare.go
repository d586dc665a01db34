package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// readResults loads a result file (one result, or the list an all-workloads
// run writes) and groups it by workload, runs ordered by seed.
func readResults(path string) (map[string][]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var list []*result
	if err := json.Unmarshal(b, &list); err != nil {
		var one result
		if err2 := json.Unmarshal(b, &one); err2 != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		list = []*result{&one}
	}
	byName := make(map[string][]*result)
	for _, r := range list {
		byName[r.Workload] = append(byName[r.Workload], r)
	}
	for _, runs := range byName {
		sort.Slice(runs, func(a, b int) bool { return runs[a].Env.Seed < runs[b].Env.Seed })
	}
	return byName, nil
}

// verdict is the outcome of one metric on one workload.
type verdict string

const (
	within     verdict = "ok"
	regression verdict = "REGRESSION"
	// unresolved: the spread of either side exceeds the bound, so the runs
	// cannot tell a change of that size from noise.
	unresolved verdict = "unresolved"
)

// side is one metric of one workload in one file: the median over the
// file's runs and how far those runs (or, with fewer than four of them,
// the windows inside a run) spread.
type side struct {
	value, spread float64
}

func summarize(runs []*result, metric string) side {
	var values []float64
	windows := 0.0
	for _, r := range runs {
		w := r.EndToEnd[metric]
		values = append(values, w.Value)
		if s := iqrShare(w.Windows); s > windows {
			windows = s
		}
	}
	if len(values) >= 4 {
		return side{median(values), iqrShare(values)}
	}
	return side{median(values), windows}
}

// judge compares b against baseline a for one metric: the relative change
// in the direction that is worse, and whether it stays within the bound.
func judge(def metricDef, a, b side) (worse float64, v verdict) {
	if a.value == 0 {
		return 0, unresolved
	}
	worse = (b.value - a.value) / a.value
	if def.Better == "higher" {
		worse = -worse
	}
	switch {
	case a.spread > def.Bound || b.spread > def.Bound:
		return worse, unresolved
	case worse > def.Bound:
		return worse, regression
	}
	return worse, within
}

// compareFiles prints, per workload and end-to-end metric, both medians, the
// change and the bound. It refuses runs made under different conditions and
// returns an error when any metric regressed beyond its bound.
func compareFiles(pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	regressions, open := 0, 0
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if len(ra) != len(rb) {
			return fmt.Errorf("workload %s: %d runs in %s, %d in %s", wl.name, len(ra), pathA, len(rb), pathB)
		}
		if len(ra) == 0 {
			continue
		}
		for i := range ra {
			if ra[i].Env != rb[i].Env {
				return fmt.Errorf("workload %s: the runs are not comparable:\n  %s: %+v\n  %s: %+v", wl.name, pathA, ra[i].Env, pathB, rb[i].Env)
			}
		}
		fmt.Printf("%s (%d runs a side)\n", wl.name, len(ra))
		for _, def := range endToEnd {
			sa, sb := summarize(ra, def.Name), summarize(rb, def.Name)
			worse, v := judge(def, sa, sb)
			switch v {
			case regression:
				regressions++
			case unresolved:
				open++
			}
			fmt.Printf("  %-14s %12.4f -> %12.4f %-4s  worse by %+6.1f%%  bound %3.0f%%  spread %4.1f%% / %4.1f%%  %s\n",
				def.Name, sa.value, sb.value, def.Unit, 100*worse, 100*def.Bound, 100*sa.spread, 100*sb.spread, v)
		}
	}
	fmt.Printf("%d regressions, %d unresolved\n", regressions, open)
	if regressions > 0 {
		return fmt.Errorf("%d metrics regressed beyond their bound", regressions)
	}
	return nil
}
