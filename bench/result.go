package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the one schema every run writes, traced or not.
type record struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Seconds    int                  `json:"seconds"`
	Scale      string               `json:"scale"`
	Trace      bool                 `json:"trace"`
	Commit     string               `json:"commit"`
	NProc      int                  `json:"nproc"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	GoVersion  string               `json:"go_version"`
	Config     map[string]any       `json:"config"`
	OpCounts   map[string]int       `json:"op_counts"` // executed ops (latency samples) per class
	Checksum   uint64               `json:"checksum"`  // fold of every Execute result, in op order
	Correct    bool                 `json:"correct"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Metrics    map[string]metric    `json:"metrics"`               // what BENCHMARK.json names: end-to-end, or per-layer with -trace 1
	Extra      map[string]metric    `json:"extra,omitempty"`       // ungated: tails, phase times
	PassValues map[string][]float64 `json:"pass_values,omitempty"` // end-to-end runs: each metric's value on every pass
	Claim      *string              `json:"claim"`                 // this benchmark claims no gain
}

func newRecord(w spec, sz sizing, o runOpts, opsPerClient int) *record {
	return &record{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Scale: o.scale, Trace: o.trace,
		Commit: commit(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Config: map[string]any{
			"preset": w.preset, "rows": w.rows, "clients": w.clients, "ops_per_client": opsPerClient,
			"key_seed": keySeed, "train_seed": trainSeed, "train_ops": sz.trainOps,
			"mode": "casper", "shards": shards, "shard_by_range": true,
			"chunk_values": sz.chunkValues, "block_bytes": sz.blockBytes, "partitions": partitions,
			"payload_cols": payloadCols, "ghost_frac": ghostFrac, "durable": w.durable,
			"flush_policy": flushPolicy(w), "loop": "closed",
		},
		OpCounts: map[string]int{}, Metrics: map[string]metric{}, Extra: map[string]metric{},
	}
}

func flushPolicy(w spec) string {
	if !w.durable {
		return "none (in-memory)"
	}
	return fmt.Sprintf("SyncModeInterval every %v, one explicit Checkpoint at the midpoint", syncEvery)
}

// commit reports the VCS revision stamped into the binary, if any: the
// driver's checkout is not a git repository.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

func (r *record) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }
func (r *record) extra(name string, v float64, unit string) {
	r.Extra[name] = metric{v, unit}
}

// finish validates the record against the metric list BENCHMARK.json fixes
// for this kind of run and settles Correct.
func (r *record) finish(want []metricDef) error {
	for _, d := range want {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.Workload, d.Name, m.Value)
		}
	}
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("%s: measured %d metrics, BENCHMARK.json names %d", r.Workload, len(r.Metrics), len(want))
	}
	r.Correct = r.Failed == 0
	return nil
}

// print writes every metric as "name value unit", then the one-line JSON
// result the driver reads.
func (r *record) print(out io.Writer) {
	fmt.Fprintf(out, "# %s seed=%d seconds=%d scale=%s trace=%v nproc=%d gomaxprocs=%d %s commit=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Scale, r.Trace, r.NProc, r.GOMAXPROCS, r.GoVersion, r.Commit)
	for _, k := range sortedKeys(r.OpCounts) {
		fmt.Fprintf(out, "samples.%s %d count\n", k, r.OpCounts[k])
	}
	for _, k := range sortedKeys(r.Metrics) {
		fmt.Fprintf(out, "%s %v %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	for _, k := range sortedKeys(r.Extra) {
		fmt.Fprintf(out, "extra.%s %v %s\n", k, r.Extra[k].Value, r.Extra[k].Unit)
	}
	fmt.Fprintf(out, "attempted %d count\nfailed %d count\nchecksum %d\n", r.Attempted, r.Failed, r.Checksum)
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintf(out, "%s\n", line)
}

// readRecords loads a result file: a JSON array of records.
func readRecords(path string) ([]record, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(buf, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// writeRecords stores records as a result file. With appendTo set, records
// already in the file are kept, so repeated runs collect into one set.
func writeRecords(path string, recs []record, appendTo bool) error {
	if appendTo {
		if old, err := readRecords(path); err == nil {
			recs = append(old, recs...)
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	return writeJSON(path, recs)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// metricDef and benchmarkFile mirror BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
