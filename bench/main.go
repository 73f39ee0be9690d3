// Command casper-bench is the repository's benchmark: four seeded HAP
// workloads measured end to end (-trace 0) or as a layer-by-layer cost ladder
// (-trace 1), with every result checked against a bench-local oracle. See
// bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// runSeconds is BENCHMARK.json's run_seconds: the -seconds the driver passes
// and the default here.
const runSeconds = 14

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "casper-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("casper-bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: all, "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", 1, "seed the op streams are generated from")
	seconds := fs.Int("seconds", runSeconds, "sizes the measured op streams: they last about this long on the 2-CPU reference host")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, tracing off; 1 = the cost ladder and per-layer metrics")
	scale := fs.String("scale", "full", "full, or smoke (20k rows, 2k ops) for tests")
	outDir := fs.String("outdir", filepath.Join("bench", "out"), "directory for <workload>.json, <workload>.trace.json and scratch data")
	out := fs.String("out", "", "also append the run's record(s) to this result file, to collect a set for -compare")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	benchFile := fs.String("benchmark", "BENCHMARK.json", "BENCHMARK.json path, for the bounds -compare applies")
	describe := fs.Bool("describe", false, "print BENCHMARK.json as this program defines it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *describe:
		return printBenchmarkJSON(os.Stdout)
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1), *benchFile)
	}
	if *scale != "full" && *scale != "smoke" {
		return fmt.Errorf("unknown -scale %q (full, smoke)", *scale)
	}
	if *seconds < 1 || *seconds > 60 {
		return fmt.Errorf("-seconds %d outside 1..60", *seconds)
	}
	specs := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		specs = []spec{w}
	}
	o := runOpts{seed: *seed, seconds: *seconds, scale: *scale, trace: *trace != 0, outDir: *outDir}
	measureWorkload, suffix := runEndToEnd, ".json"
	if o.trace {
		measureWorkload, suffix = runLadder, ".layers.json"
	}
	failed := 0
	for _, w := range specs {
		rec, err := measureWorkload(w, o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := writeRecords(filepath.Join(o.outDir, w.name+suffix), []record{*rec}, false); err != nil {
			return err
		}
		if *out != "" {
			if err := writeRecords(*out, []record{*rec}, true); err != nil {
				return err
			}
		}
		rec.print(os.Stdout)
		failed += rec.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed the oracle", failed)
	}
	return nil
}

// printBenchmarkJSON writes BENCHMARK.json from the program's own tables.
func printBenchmarkJSON(out io.Writer) error {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var ws []workloadDef
	for _, w := range workloads {
		ws = append(ws, workloadDef{w.name, w.why})
	}
	buf, err := json.MarshalIndent(map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   ws,
		"end_to_end":  endToEndMetrics,
		"per_layer":   perLayerMetrics,
	}, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", buf)
	return err
}
