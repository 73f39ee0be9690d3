package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func smokeOpts(t *testing.T, trace bool) runOpts {
	return runOpts{seed: 1, seconds: runSeconds, scale: "smoke", trace: trace, outDir: t.TempDir()}
}

// TestSmokeEndToEnd runs all four workloads at smoke scale: every end-to-end
// metric is present, finite and non-zero, and the oracle passes.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		rec, err := runEndToEnd(w, smokeOpts(t, false))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rec.Failed != 0 || !rec.Correct || rec.Attempted == 0 {
			t.Errorf("%s: attempted %d failed %d correct %v", w.name, rec.Attempted, rec.Failed, rec.Correct)
		}
		for _, d := range endToEndMetrics {
			if rec.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, d.Name, rec.Metrics[d.Name].Value)
			}
		}
	}
}

// TestSmokeLadder runs the traced ladder on the durable workload (every rung),
// an in-memory one (wal must stay zero) and the two-client one (scaling).
func TestSmokeLadder(t *testing.T) {
	for _, name := range []string{"durable-ingest", "hap-point-ingest", "htap-scan-2c"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		o := smokeOpts(t, true)
		rec, err := runLadder(w, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rec.Failed != 0 {
			t.Errorf("%s: %d of %d failed", name, rec.Failed, rec.Attempted)
		}
		for _, d := range perLayerMetrics {
			v := rec.Metrics[d.Name].Value
			wal := strings.HasPrefix(d.Name, "wal.") || strings.HasPrefix(d.Name, "replica.")
			if wal && !w.durable && v != 0 {
				t.Errorf("%s: %s = %v on an in-memory workload, want 0", name, d.Name, v)
			}
		}
		for _, must := range []string{"column.write_ns", "table.chunks", "solver.train_s", "txn.commit_us", "delta.soa_write_ns"} {
			if rec.Metrics[must].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, must, rec.Metrics[must].Value)
			}
		}
		if w.durable {
			for _, must := range []string{"wal.bytes_per_write", "wal.fsyncs", "shard.recovery_s", "shard.checkpoint_s", "replica.apply_records_per_s"} {
				if rec.Metrics[must].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", name, must, rec.Metrics[must].Value)
				}
			}
		}
		if w.clients > 1 && rec.Metrics["shard.scale_2c_x"].Value <= 0 {
			t.Errorf("%s: shard.scale_2c_x = %v", name, rec.Metrics["shard.scale_2c_x"].Value)
		}
		var trace struct {
			Spans []span `json:"spans"`
		}
		buf, err := os.ReadFile(filepath.Join(o.outDir, name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(buf, &trace); err != nil || len(trace.Spans) < 10 {
			t.Errorf("%s: span file: %v, %d spans", name, err, len(trace.Spans))
		}
		if left, _ := filepath.Glob(filepath.Join(o.outDir, "tmp", "*")); len(left) != 0 {
			t.Errorf("%s: scratch directories left behind: %v", name, left)
		}
	}
}

// TestRepeatable: with one client the result checksum and allocation repeat.
func TestRepeatable(t *testing.T) {
	w, _ := findWorkload("hap-point-ingest")
	a, err := runEndToEnd(w, smokeOpts(t, false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runEndToEnd(w, smokeOpts(t, false))
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum != b.Checksum {
		t.Errorf("checksums differ: %d vs %d", a.Checksum, b.Checksum)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's tables in step.
func TestBenchmarkJSON(t *testing.T) {
	var want, got any
	var out bytes.Buffer
	if err := printBenchmarkJSON(&out); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(file, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("BENCHMARK.json is stale: regenerate with `bash bench/run.sh -describe > BENCHMARK.json`")
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if n := len(perLayerMetrics); n > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", n)
	}
}

func TestUnknownWorkload(t *testing.T) {
	err := run([]string{"-workload", "nope"})
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	for _, name := range workloadNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %s", err, name)
		}
	}
}

func TestCompare(t *testing.T) {
	// Python: q = statistics.quantiles(v, n=4); (q[2]-q[0])/statistics.median(v)
	if got := spreadOf([]float64{1, 5, 2, 9, 4, 7, 3, 8, 10, 6.5}); math.Abs(got-0.9565217391304348) > 1e-12 {
		t.Errorf("spreadOf = %v, want the quartile spread 0.9565217391304348", got)
	}
	dir := t.TempDir()
	mk := func(file string, ops ...float64) string {
		var recs []record
		for _, v := range ops {
			recs = append(recs, record{Workload: "hap-point-ingest", Metrics: map[string]metric{"ops_per_s": {v, "ops/s"}}})
		}
		path := filepath.Join(dir, file)
		if err := writeRecords(path, recs, false); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := writeJSON(bench, benchmarkFile{EndToEnd: []metricDef{{"ops_per_s", "ops/s", "higher", 0.10}}}); err != nil {
		t.Fatal(err)
	}
	base := mk("a.json", 100, 101, 99)
	for _, c := range []struct {
		file    string
		ops     []float64
		verdict string
		fails   bool
	}{
		{"same.json", []float64{98, 100, 102}, "ok", false},
		{"slow.json", []float64{80, 81, 79}, "worse", true},
		{"noisy.json", []float64{70, 100, 130}, "unresolved", false},
	} {
		var out bytes.Buffer
		err := compareFiles(&out, base, mk(c.file, c.ops...), bench)
		if (err != nil) != c.fails || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: err %v, output:\n%s", c.file, err, out.String())
		}
	}
}
