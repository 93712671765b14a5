// Package benchjson measures and serializes the repository's regression
// tripwire: a schema'd JSON report (BENCH_<n>.json in the repo root) that
// is one flat list of named measurements — per-method inference latency
// per iteration, ingest, assignment, HTTP, query and telemetry
// throughputs — plus the calibration constant that makes the numbers
// comparable across machines.
//
// Iteration latency is the marginal cost of one E/M sweep, measured as
// (T(hi iters) − T(lo iters)) / (hi − lo) so that per-call fixed costs
// (CSR build, buffer allocation) cancel out. Every measurement also
// carries a dimensionless normalized form against the calibration loop,
// which is what the regression gate compares, so a slower runner does
// not read as a code regression.
package benchjson

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
)

// SchemaVersion identifies the report layout; bump on breaking changes.
const SchemaVersion = 2

// The gates a fresh report must pass.
const (
	// MaxRegress bounds how far a gated measurement's normalized value
	// may move in its worse direction against the baseline (+20%).
	MaxRegress = 0.20
	// MinHTTPSpeedup is the floor on batched over single-answer HTTP
	// ingest throughput.
	MinHTTPSpeedup = 5.0
	// MaxTelemetryOverhead bounds the fraction of batched ingest
	// throughput the telemetry plane may cost.
	MaxTelemetryOverhead = 0.03
)

// Names of the measurements the derived-ratio gates read.
const (
	HTTPSingleRate   = "http_single_answers_per_sec"
	HTTPBatchRate    = "http_batch_answers_per_sec"
	TelemetryOffRate = "telemetry_off_answers_per_sec"
	TelemetryOnRate  = "telemetry_on_answers_per_sec"
)

// Better is the direction in which a measurement improves.
type Better string

const (
	Lower  Better = "lower"
	Higher Better = "higher"
)

// Report is the checked-in benchmark artifact.
type Report struct {
	SchemaVersion int     `json:"schema_version"`
	BenchID       string  `json:"bench_id"`
	GoVersion     string  `json:"go_version"`
	Scale         float64 `json:"scale"`
	Seed          int64   `json:"seed"`
	// CalibrationNs is the wall time of the fixed calibration loop on the
	// machine that produced the report; every Normalized value is taken
	// against it.
	CalibrationNs float64       `json:"calibration_ns"`
	Measurements  []Measurement `json:"measurements"`
}

// Measurement is one named number of a report.
type Measurement struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// Normalized is Value against the calibration loop: a latency
	// (Better lower) divided by calibration_ns, a rate (Better higher)
	// per calibration-loop run, Value·calibration_ns/1e9.
	Normalized float64 `json:"normalized"`
	Better     Better  `json:"better"`
	// Gated measurements fail Compare when their normalized value moves
	// more than MaxRegress in the worse direction.
	Gated bool `json:"gated"`
}

func (m *Measurement) normalize(calibrationNs float64) {
	if m.Better == Lower {
		m.Normalized = m.Value / calibrationNs
	} else {
		m.Normalized = m.Value * calibrationNs / 1e9
	}
}

// finitePositive is the one rule every stored number obeys.
func finitePositive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// Validate checks a report against the schema: version match, a bench
// id, finite positive calibration and scale, and a list of uniquely
// named, finite positive measurements of which at least one is gated.
func Validate(r *Report) error {
	if r.SchemaVersion != SchemaVersion {
		return fmt.Errorf("schema_version %d (want %d)", r.SchemaVersion, SchemaVersion)
	}
	if r.BenchID == "" {
		return errors.New("bench_id is empty")
	}
	if !finitePositive(r.CalibrationNs) {
		return fmt.Errorf("calibration_ns %v is not positive and finite", r.CalibrationNs)
	}
	if !finitePositive(r.Scale) {
		return fmt.Errorf("scale %v is not positive and finite", r.Scale)
	}
	seen := map[string]bool{}
	gated := 0
	for _, m := range r.Measurements {
		switch {
		case m.Name == "" || m.Unit == "":
			return fmt.Errorf("measurement %+v is missing its name or unit", m)
		case seen[m.Name]:
			return fmt.Errorf("duplicate measurement %s", m.Name)
		case m.Better != Lower && m.Better != Higher:
			return fmt.Errorf("measurement %s: better %q is neither %q nor %q", m.Name, m.Better, Lower, Higher)
		case !finitePositive(m.Value) || !finitePositive(m.Normalized):
			return fmt.Errorf("measurement %s is not positive and finite: %+v", m.Name, m)
		}
		seen[m.Name] = true
		if m.Gated {
			gated++
		}
	}
	if gated == 0 {
		return errors.New("no gated measurement")
	}
	return nil
}

// Compare gates the current report against a baseline: every baseline
// measurement must still exist, and no gated one may have moved by more
// than MaxRegress in its worse direction. New measurements in the
// current report pass without a baseline. Only the per-iteration
// latencies are gated; the throughputs depend on I/O and lock behavior
// that varies too much across shared CI runners.
func Compare(baseline, current *Report) error {
	cur := make(map[string]Measurement, len(current.Measurements))
	for _, m := range current.Measurements {
		cur[m.Name] = m
	}
	for _, b := range baseline.Measurements {
		c, ok := cur[b.Name]
		if !ok {
			return fmt.Errorf("measurement %s present in baseline but missing from current report", b.Name)
		}
		if !b.Gated {
			continue
		}
		if b.Better == Lower && c.Normalized > b.Normalized*(1+MaxRegress) ||
			b.Better == Higher && c.Normalized < b.Normalized*(1-MaxRegress) {
			return fmt.Errorf("regression on %s: normalized %.4f vs baseline %.4f (%s is better, %d%% allowed)",
				b.Name, c.Normalized, b.Normalized, b.Better, int(MaxRegress*100))
		}
	}
	return nil
}

// CheckRatios derives the batched-over-single HTTP ingest speedup and the
// telemetry overhead fraction from the stored throughputs and gates them
// at MinHTTPSpeedup and MaxTelemetryOverhead.
func CheckRatios(r *Report) (speedup, overhead float64, err error) {
	v := map[string]float64{}
	for _, m := range r.Measurements {
		v[m.Name] = m.Value
	}
	for _, name := range []string{HTTPSingleRate, HTTPBatchRate, TelemetryOffRate, TelemetryOnRate} {
		if v[name] == 0 {
			return 0, 0, fmt.Errorf("report has no %s measurement", name)
		}
	}
	speedup = v[HTTPBatchRate] / v[HTTPSingleRate]
	overhead = (v[TelemetryOffRate] - v[TelemetryOnRate]) / v[TelemetryOffRate]
	if speedup < MinHTTPSpeedup {
		return speedup, overhead, fmt.Errorf("batched HTTP ingest speedup %.2fx below the required %.1fx floor", speedup, MinHTTPSpeedup)
	}
	if overhead > MaxTelemetryOverhead {
		return speedup, overhead, fmt.Errorf("telemetry overhead %.2f%% exceeds the %.1f%% budget", overhead*100, MaxTelemetryOverhead*100)
	}
	return speedup, overhead, nil
}

// Load reads and validates a report file.
func Load(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := Validate(&r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Write serializes a report with a trailing newline, suitable for
// checking in.
func (r *Report) Write(path string) error {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
