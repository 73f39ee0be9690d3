package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians, how much worse B is than A, the bound, and a verdict; it returns
// an error when any metric is worse by more than its bound.
func compareFiles(out io.Writer, aPath, bPath, benchPath string) error {
	var bf benchmarkFile
	buf, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := loadRuns(aPath)
	if err != nil {
		return err
	}
	b, err := loadRuns(bPath)
	if err != nil {
		return err
	}
	worse := 0
	fmt.Fprintf(out, "%-18s %-20s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "A", "B", "worse", "spread", "bound", "verdict")
	for _, w := range workloadNames() {
		if a[w] == nil || b[w] == nil {
			continue
		}
		for _, d := range bf.EndToEnd {
			av, bv := a[w][d.Name], b[w][d.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			ma, mb := median(av), median(bv)
			rel := (mb - ma) / ma // how much worse B is, as a share of A
			if d.Better == "higher" {
				rel = -rel
			}
			spread := max(spreadOf(av), spreadOf(bv))
			verdict := "ok"
			switch {
			case spread > d.Bound:
				verdict = "unresolved"
			case rel > d.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(out, "%-18s %-20s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				w, d.Name, ma, mb, 100*rel, 100*spread, 100*d.Bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics worse than their bound", worse)
	}
	return nil
}

// loadRuns groups a result file's end-to-end values by workload and metric.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	recs, err := readRecords(path)
	if err != nil {
		return nil, err
	}
	out := map[string]map[string][]float64{}
	for _, r := range recs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, nil
}

// spreadOf is the run-to-run spread of one side as a share of its median:
// the distance between the first and third quartiles (as Python's
// statistics.quantiles(v, n=4) gives them, which is what the benchmark
// contract gates) with four runs or more, the full range with two or three,
// 0 with one.
func spreadOf(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n < 4 {
		return (s[n-1] - s[0]) / median(s)
	}
	quartile := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / median(s)
}
