package benchjson

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func validReport() *Report {
	return &Report{
		SchemaVersion: SchemaVersion,
		BenchID:       "BENCH_TEST",
		GoVersion:     "go0.0",
		Scale:         0.1,
		Seed:          1,
		CalibrationNs: 1e6,
		Measurements: []Measurement{
			{Name: "iteration_ns/D&S@s_rel", Unit: "ns", Value: 2e6, Normalized: 2.0, Better: Lower, Gated: true},
			{Name: "iteration_ns/PM@d_product", Unit: "ns", Value: 1e5, Normalized: 0.1, Better: Lower, Gated: true},
			{Name: "ingest_answers_per_sec", Unit: "answers/s", Value: 5e5, Normalized: 500, Better: Higher},
			{Name: "assign_rounds_per_sec", Unit: "rounds/s", Value: 1e4, Normalized: 10, Better: Higher},
			{Name: HTTPSingleRate, Unit: "answers/s", Value: 1e3, Normalized: 1, Better: Higher},
			{Name: HTTPBatchRate, Unit: "answers/s", Value: 1e5, Normalized: 100, Better: Higher},
			{Name: "query_views_per_sec", Unit: "queries/s", Value: 2e3, Normalized: 2, Better: Higher},
			{Name: "query_rows_per_sec", Unit: "rows/s", Value: 5e4, Normalized: 50, Better: Higher},
			{Name: TelemetryOffRate, Unit: "answers/s", Value: 1e5, Normalized: 100, Better: Higher},
			{Name: TelemetryOnRate, Unit: "answers/s", Value: 9.8e4, Normalized: 98, Better: Higher},
		},
	}
}

// entry returns the named measurement of r for a test to read or mutate.
func entry(t *testing.T, r *Report, name string) *Measurement {
	t.Helper()
	for i := range r.Measurements {
		if r.Measurements[i].Name == name {
			return &r.Measurements[i]
		}
	}
	t.Fatalf("report has no measurement %s", name)
	return nil
}

// measured returns validReport with the freshly measured ms, normalized,
// in place of its same-named entries.
func measured(t *testing.T, ms []Measurement) *Report {
	t.Helper()
	r := validReport()
	for _, m := range ms {
		m.normalize(r.CalibrationNs)
		*entry(t, r, m.Name) = m
	}
	return r
}

// rejects asserts that Validate fails on r with an error mentioning want.
func rejects(t *testing.T, r *Report, want string) {
	t.Helper()
	err := Validate(r)
	if err == nil {
		t.Fatal("Validate accepted a malformed report")
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

func TestValidateAcceptsWellFormedReport(t *testing.T) {
	if err := Validate(validReport()); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	const dsName = "iteration_ns/D&S@s_rel"
	cases := []struct {
		name   string
		mutate func(*testing.T, *Report)
		want   string
	}{
		{"schema version", func(_ *testing.T, r *Report) { r.SchemaVersion = 1 }, "schema_version"},
		{"empty bench id", func(_ *testing.T, r *Report) { r.BenchID = "" }, "bench_id"},
		{"zero calibration", func(_ *testing.T, r *Report) { r.CalibrationNs = 0 }, "calibration_ns"},
		{"negative scale", func(_ *testing.T, r *Report) { r.Scale = -1 }, "scale"},
		{"zero ingest", func(t *testing.T, r *Report) { entry(t, r, "ingest_answers_per_sec").Value = 0 }, "ingest"},
		{"zero assign", func(t *testing.T, r *Report) { entry(t, r, "assign_rounds_per_sec").Normalized = 0 }, "assign"},
		{"no epochs", func(_ *testing.T, r *Report) { r.Measurements = r.Measurements[2:] }, "no gated measurement"},
		{"nameless epoch", func(t *testing.T, r *Report) { entry(t, r, dsName).Name = "" }, "missing its name"},
		{"duplicate epoch", func(_ *testing.T, r *Report) { r.Measurements[1] = r.Measurements[0] }, "duplicate"},
		{"zero latency", func(t *testing.T, r *Report) { entry(t, r, dsName).Value = 0 }, "not positive"},
		{"infinite latency", func(t *testing.T, r *Report) { entry(t, r, dsName).Value = math.Inf(1) }, "not positive and finite"},
		{"NaN normalized", func(t *testing.T, r *Report) { entry(t, r, dsName).Normalized = math.NaN() }, "not positive"},
		{"unitless", func(t *testing.T, r *Report) { entry(t, r, dsName).Unit = "" }, "unit"},
		{"no direction", func(t *testing.T, r *Report) { entry(t, r, dsName).Better = "" }, "better"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := validReport()
			tc.mutate(t, r)
			rejects(t, r, tc.want)
		})
	}
}

func TestCompareGatesOnNormalizedLatency(t *testing.T) {
	const name = "iteration_ns/D&S@s_rel"
	base := validReport()
	cur := validReport()

	// Within the window (+20% exactly is allowed, it is the boundary).
	entry(t, cur, name).Normalized = entry(t, base, name).Normalized * 1.2
	if err := Compare(base, cur); err != nil {
		t.Fatalf("boundary regression rejected: %v", err)
	}

	// Past the window fails and names the offender.
	entry(t, cur, name).Normalized = entry(t, base, name).Normalized * 1.21
	err := Compare(base, cur)
	if err == nil {
		t.Fatal("21% regression passed a 20% gate")
	}
	if !strings.Contains(err.Error(), name) {
		t.Fatalf("error %q does not name the regressed entry", err)
	}

	// Raw ns may grow arbitrarily as long as normalized holds: a slower
	// machine is not a regression.
	cur = validReport()
	cur.CalibrationNs *= 10
	for i := range cur.Measurements {
		cur.Measurements[i].Value *= 10
	}
	if err := Compare(base, cur); err != nil {
		t.Fatalf("machine slowdown misread as regression: %v", err)
	}

	// Ungated throughputs may move freely.
	cur = validReport()
	entry(t, cur, "ingest_answers_per_sec").Normalized /= 10
	if err := Compare(base, cur); err != nil {
		t.Fatalf("ungated throughput drop failed the gate: %v", err)
	}
}

// A gated higher-is-better measurement regresses by falling: -20% passes,
// -21% fails.
func TestCompareGatesHigherIsBetter(t *testing.T) {
	const name = "ingest_answers_per_sec"
	base := validReport()
	entry(t, base, name).Gated = true
	cur := validReport()
	entry(t, cur, name).Normalized = entry(t, base, name).Normalized * 0.8
	if err := Compare(base, cur); err != nil {
		t.Fatalf("boundary drop rejected: %v", err)
	}
	entry(t, cur, name).Normalized = entry(t, base, name).Normalized * 0.79
	if err := Compare(base, cur); err == nil || !strings.Contains(err.Error(), name) {
		t.Fatalf("21%% throughput drop: err = %v, want a regression on %s", err, name)
	}
}

func TestCompareRequiresBaselineCoverage(t *testing.T) {
	base := validReport()
	cur := validReport()
	cur.Measurements = cur.Measurements[:1] // dropped everything after D&S
	err := Compare(base, cur)
	if err == nil {
		t.Fatal("Compare accepted a report that dropped a baseline measurement")
	}
	if !strings.Contains(err.Error(), "iteration_ns/PM@d_product") {
		t.Fatalf("error %q does not name the missing entry", err)
	}

	// Extra entries in the current report are fine (new methods land
	// without a baseline).
	cur = validReport()
	cur.Measurements = append(cur.Measurements, Measurement{
		Name: "iteration_ns/ZC@d_product", Unit: "ns", Value: 1, Normalized: 1e-6, Better: Lower, Gated: true,
	})
	if err := Compare(base, cur); err != nil {
		t.Fatal(err)
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_TEST.json")
	want := validReport()
	if err := want.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.BenchID != want.BenchID || got.CalibrationNs != want.CalibrationNs ||
		len(got.Measurements) != len(want.Measurements) ||
		got.Measurements[1] != want.Measurements[1] {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestLoadRejectsMalformedFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("Load found a report in an empty directory")
	}
}

// Every checked-in trajectory point stays readable by the tool that
// reads it.
func TestCheckedInReportsLoad(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_*.json in the repo root")
	}
	for _, p := range paths {
		if _, err := Load(p); err != nil {
			t.Error(err)
		}
	}
}

func TestMinPositive(t *testing.T) {
	if _, ok := minPositive([]time.Duration{-3, 0, -1}); ok {
		t.Fatal("minPositive found a positive sample among none")
	}
	if best, ok := minPositive([]time.Duration{-3, 7, 0, 4, 9}); !ok || best != 4 {
		t.Fatalf("minPositive = %v, %v; want 4, true", best, ok)
	}
}

// TestMeasureSmoke runs the full measurement once at a tiny scale: every
// canonical method produces a positive, validated iteration latency and
// every throughput lands. This is a functional check, not a performance
// one — the numbers themselves are whatever the test machine gives.
func TestMeasureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full measurement pass is slow")
	}
	r, err := Measure("BENCH_TEST", 0.02, 1, 1, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(r); err != nil {
		t.Fatal(err)
	}
	gated := 0
	for _, m := range r.Measurements {
		if m.Gated {
			gated++
		}
	}
	if gated != len(iterationTargets) {
		t.Fatalf("measured %d gated latencies, want %d", gated, len(iterationTargets))
	}
	// Every name the reference report carries is measured.
	for _, m := range validReport().Measurements {
		if !strings.HasPrefix(m.Name, "iteration_ns/") {
			entry(t, r, m.Name)
		}
	}
	// A fresh measurement must pass its own gate.
	if err := Compare(r, r); err != nil {
		t.Fatal(err)
	}
}
