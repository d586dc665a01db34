package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// GateFamilies is the ns/op family regex the CI regression gate watches:
// the setup and query hot paths whose regressions would be user-visible,
// plus the mutation write path (incremental graph maintenance, the
// warm-started re-rank, and the residual-push re-rank — the
// streaming-ingest hot loop; "RerankResidual" also matches
// RerankResidualParallel, the wide-frontier batches), the durability tier
// (the WAL-attached commit path and snapshot+WAL-tail crash recovery), the
// streaming
// query pair (the limit-10 first page vs the full materializing drain —
// gating both keeps the early-termination gap itself under watch), and
// the QoS fast path (the uncontended rate-limit + admission check every
// served request pays — it must stay a rounding error next to the query
// itself), and the scale-out front door (one query through the
// consistent-hash router and its reverse proxy to an owner node — gating
// it next to EndToEndSearch keeps the routing tier's tax visible).
const GateFamilies = "RankCompute|RankCompile|NewEngine|EndToEndSearch|DataGraphBuild|IndexBuild|MutateIncremental|RerankResidual|WALAppend|RecoveryReplay|QueryStream|QueryDrain|AdmissionOverhead|RoutedQuery"

// ArchiveFamilies is the default benchjson archive set: every gated family
// plus the Fig-10 paper-figure benches (measured for the trajectory but
// not gated — they track paper reproduction cells, not service latency).
// Deriving it from GateFamilies guarantees committed baselines always
// cover whatever the gate compares.
const ArchiveFamilies = "Fig10|" + GateFamilies

// Result is one parsed benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op,omitempty"`
	BytesPerOp float64            `json:"bytes_per_op,omitempty"`
	AllocsOp   float64            `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Report is the BENCH_<n>.json document.
type Report struct {
	Generated  string   `json:"generated"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	BenchRegex string   `json:"bench_regex"`
	Package    string   `json:"package"`
	Count      int      `json:"count"`
	Results    []Result `json:"results"`
}

// ResultByName indexes the report's results. Duplicate names (from
// -count > 1) keep the fastest ns/op occurrence — the run least disturbed
// by cold caches or scheduler noise — so repeated counts actually reduce
// comparison flakiness.
func (r *Report) ResultByName() map[string]Result {
	out := make(map[string]Result, len(r.Results))
	for _, res := range r.Results {
		prev, ok := out[res.Name]
		if !ok || Faster(res, prev) {
			out[res.Name] = res
		}
	}
	return out
}

// Faster is the duplicate-selection rule for -count > 1 runs, shared by
// baseline indexing and the gate's current-run dedup so both sides of a
// comparison always pick the same statistic: a beats b when it has a
// timing and b doesn't, or when its ns/op is lower.
func Faster(a, b Result) bool {
	if a.NsPerOp <= 0 {
		return false
	}
	return b.NsPerOp <= 0 || a.NsPerOp < b.NsPerOp
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// Parse extracts Result entries from `go test -bench` textual output.
func Parse(out string) []Result {
	var results []Result
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Name: m[1], Iterations: iters}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = val
			case "B/op":
				r.BytesPerOp = val
			case "allocs/op":
				r.AllocsOp = val
			default:
				if r.Metrics == nil {
					r.Metrics = make(map[string]float64)
				}
				r.Metrics[unit] = val
			}
		}
		results = append(results, r)
	}
	return results
}

var benchFile = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// Load reads one report file.
func Load(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// Latest returns the committed report with the highest sequence number
// that satisfies keep (nil keeps everything), plus its path. ok is false
// when no report qualifies.
func Latest(dir string, keep func(Report) bool) (report Report, path string, ok bool, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return Report{}, "", false, err
	}
	bestN := -1
	for _, e := range entries {
		m := benchFile.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil || n <= bestN {
			continue
		}
		p := filepath.Join(dir, e.Name())
		r, err := Load(p)
		if err != nil {
			return Report{}, "", false, err
		}
		if keep != nil && !keep(r) {
			continue
		}
		bestN, report, path, ok = n, r, p, true
	}
	return report, path, ok, nil
}

// NextFree returns the first BENCH_<n>.json path that does not exist yet.
func NextFree(dir string) (string, error) {
	for n := 1; n < 10000; n++ {
		path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n))
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path, nil
		} else if err != nil {
			return "", err
		}
	}
	return "", fmt.Errorf("no free BENCH_<n>.json slot in %s", dir)
}
