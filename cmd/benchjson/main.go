// Command benchjson is the repository's performance regression tripwire
// (the benchmark of record is perfbench/, declared by BENCHMARK.json).
// It measures per-method inference latency per iteration and the
// ingest, assignment, HTTP, query and telemetry throughputs, and writes
// them as a schema'd JSON report (BENCH_<n>.json) of named measurements
// that is checked into the repo root as one point on the trajectory.
//
// Usage:
//
//	benchjson [-out BENCH_9.json] [-baseline BENCH_9.json] [-validate file.json]
//
// With -validate, no measurement runs: the named report is checked
// against the schema and the process exits (this is the cheap CI step).
//
// Otherwise the report is measured at scale 0.1, seed 1, best of five
// repeats and 2 s windows, and must pass two gates computed from its
// throughputs: batched HTTP ingest sustains at least 5x the
// single-answer path, and the telemetry plane costs at most 3% of
// batched ingest throughput. With -baseline, every baseline measurement
// must also be present, and no gated one (the per-iteration latencies)
// may have grown by more than 20% in calibration-normalized terms, so a
// slower CI runner does not read as a regression. The baseline is
// loaded before measuring, so a bad one fails at once.
//
// To regenerate the checked-in baseline on a quiet machine:
//
//	go run ./cmd/benchjson -out BENCH_9.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"truthinference/internal/benchjson"
	"truthinference/internal/buildinfo"
)

// The workload every report is measured at.
const (
	scale   = 0.1
	seed    = 1
	repeats = 5
	window  = 2 * time.Second
)

func main() {
	out := flag.String("out", "BENCH_9.json", "report file to write")
	baseline := flag.String("baseline", "", "baseline report to gate against (empty = no gate)")
	validate := flag.String("validate", "", "validate this report file and exit (no measurement)")
	version := flag.Bool("version", false, "print build info and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("benchjson"))
		return
	}
	fmt.Fprintln(os.Stderr, buildinfo.String("benchjson"))

	if err := run(*out, *baseline, *validate); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

func run(out, baseline, validate string) error {
	if validate != "" {
		r, err := benchjson.Load(validate)
		if err != nil {
			return err
		}
		fmt.Printf("%s: schema v%d, %d measurements, valid\n", validate, r.SchemaVersion, len(r.Measurements))
		return nil
	}
	var base *benchjson.Report
	if baseline != "" {
		var err error
		if base, err = benchjson.Load(baseline); err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
	}

	benchID := strings.TrimSuffix(filepath.Base(out), ".json")
	r, err := benchjson.Measure(benchID, scale, seed, repeats, window)
	if err != nil {
		return err
	}
	if err := benchjson.Validate(r); err != nil {
		return fmt.Errorf("fresh report failed validation: %w", err)
	}
	fmt.Printf("calibration %.0f ns\n", r.CalibrationNs)
	for _, m := range r.Measurements {
		fmt.Printf("  %-36s %14.1f %-9s (normalized %.4g)\n", m.Name, m.Value, m.Unit, m.Normalized)
	}
	speedup, overhead, err := benchjson.CheckRatios(r)
	fmt.Printf("http batched/single %.1fx; telemetry overhead %.1f%%\n", speedup, overhead*100)
	if err != nil {
		return err
	}
	if base != nil {
		if err := benchjson.Compare(base, r); err != nil {
			return err
		}
		fmt.Printf("gated measurements within %.0f%% of %s\n", benchjson.MaxRegress*100, baseline)
	}

	if err := r.Write(out); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}
