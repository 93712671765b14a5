package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	ti "truthinference"
)

func timings(n int) *Timings {
	var t Timings
	for i := 1; i <= n; i++ {
		t.Add(time.Duration(i) * time.Millisecond)
	}
	return &t
}

func TestTailIsHighestPercentileWithTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		name string
		ms   float64
	}{
		{10000, "p999", 9990}, // 10 beyond the 9990th
		{1000, "p99", 990},    // p999 would leave 1 beyond
		{999, "p95", 950},     // p99 is rank 990, 9 beyond
		{100, "p90", 90},
		{40, "p75", 30},
		{20, "p50", 10},
		{19, "max", 19}, // even the median has 9 beyond
	}
	for _, c := range cases {
		name, ms := timings(c.n).Tail()
		if name != c.name || ms != c.ms {
			t.Errorf("n=%d: tail %s=%v, want %s=%v", c.n, name, ms, c.name, c.ms)
		}
	}
}

func TestFailuresCountAsInfinite(t *testing.T) {
	tm := timings(990)
	for i := 0; i < 10; i++ {
		tm.Fail()
	}
	if name, ms := tm.Tail(); name != "p99" || ms != 990 {
		t.Errorf("10 failures in 1000: tail %s=%v, want p99=990", name, ms)
	}
	tm.Fail()
	if name, ms := tm.Tail(); name != "p99" || !math.IsInf(ms, 1) {
		t.Errorf("11 failures in 1001: tail %s=%v, want p99=+Inf", name, ms)
	}
	if m := tm.Median(); m != 501 {
		t.Errorf("median %v, want 501 (failures sort last)", m)
	}
	var all Timings
	all.Fail()
	if !math.IsInf(all.Median(), 1) {
		t.Errorf("all-failed median %v, want +Inf", all.Median())
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	tr := NewTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.Add("r", "root", at(0), at(100), -1)
	tr.Add("r", "a", at(10), at(30), root)
	tr.Add("r", "b", at(20), at(50), root)  // overlaps a: [10,50) counts once
	tr.Add("r", "c", at(90), at(120), root) // clipped to [90,100)
	tr.Add("r", "d", at(95), at(97), root)  // inside c
	spans := tr.Spans()
	if got := selfTime(spans, children(spans), root); got != 50*time.Millisecond {
		t.Errorf("self time %v, want 50ms", got)
	}
	if got := accountedShare(spans, []int{root}); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("accounted share %v, want 0.5", got)
	}
	// A leaf's self time is its whole span.
	if got := selfTime(spans, children(spans), 1); got != 20*time.Millisecond {
		t.Errorf("leaf self time %v, want 20ms", got)
	}
}

func TestAbsorbKeepsParentLinks(t *testing.T) {
	sink := NewTracer()
	sink.Add("x", "x", sink.epoch, sink.epoch, -1)
	trial := &Tracer{epoch: sink.epoch}
	p := trial.Add("y", "parent", sink.epoch, sink.epoch, -1)
	trial.Add("y", "child", sink.epoch, sink.epoch, p)
	sink.Absorb(trial)
	spans := sink.Spans()
	if spans[2].Parent != 1 || spans[1].Parent != -1 {
		t.Errorf("absorbed parents %d, %d; want -1, 1", spans[1].Parent, spans[2].Parent)
	}
}

const scrapeStart = `# HELP truthserve_wal_records_total Batches appended.
# TYPE truthserve_wal_records_total counter
truthserve_wal_records_total{tenant="bench"} 10
truthserve_wal_records_total{tenant="other"} 7
# TYPE truthserve_http_request_seconds histogram
truthserve_http_request_seconds_bucket{route="/v1/projects/{id}/assign",tenant="bench",le="0.001"} 5
truthserve_http_request_seconds_bucket{route="/v1/projects/{id}/assign",tenant="bench",le="0.01"} 5
truthserve_http_request_seconds_bucket{route="/v1/projects/{id}/assign",tenant="bench",le="+Inf"} 5
truthserve_http_request_seconds_count{route="/v1/projects/{id}/assign",tenant="bench"} 5
`

const scrapeEnd = `truthserve_wal_records_total{tenant="bench"} 50
truthserve_wal_records_total{tenant="other"} 7
truthserve_wal_records_total{tenant="new \"quoted\" id"} 3
truthserve_http_request_seconds_bucket{route="/v1/projects/{id}/assign",tenant="bench",le="0.001"} 5
truthserve_http_request_seconds_bucket{route="/v1/projects/{id}/assign",tenant="bench",le="0.01"} 105
truthserve_http_request_seconds_bucket{route="/v1/projects/{id}/assign",tenant="bench",le="+Inf"} 105
truthserve_http_request_seconds_count{route="/v1/projects/{id}/assign",tenant="bench"} 105
`

func TestScrapeDiff(t *testing.T) {
	start, err := ParseScrape(strings.NewReader(scrapeStart))
	if err != nil {
		t.Fatal(err)
	}
	end, err := ParseScrape(strings.NewReader(scrapeEnd))
	if err != nil {
		t.Fatal(err)
	}
	d := Diff(start, end)
	if got := d.Sum("truthserve_wal_records_total", map[string]string{"tenant": "bench"}); got != 40 {
		t.Errorf("bench records diff %v, want 40", got)
	}
	if got := d.Sum("truthserve_wal_records_total", nil); got != 43 {
		t.Errorf("all records diff %v, want 43 (a series new at the end counts from 0)", got)
	}
	if got := d.Sum("truthserve_wal_records_total", map[string]string{"tenant": `new "quoted" id`}); got != 3 {
		t.Errorf("escaped label diff %v, want 3", got)
	}
	// All 100 new observations fell in (0.001, 0.01]: the median
	// interpolates to the middle of that bucket.
	route := map[string]string{"route": "/v1/projects/{id}/assign"}
	if got := d.Quantile("truthserve_http_request_seconds", route, 0.5); math.Abs(got-0.0055) > 1e-12 {
		t.Errorf("diffed p50 %v, want 0.0055", got)
	}
	if got := d.Quantile("truthserve_http_request_seconds", map[string]string{"route": "none"}, 0.5); !math.IsNaN(got) {
		t.Errorf("empty histogram quantile %v, want NaN", got)
	}
	if _, err := ParseScrape(strings.NewReader("name{a=\"x\" 1\n")); err == nil {
		t.Error("unterminated label set parsed without error")
	}
}

// TestSpecCoversBenchmarkJSON checks that spec.json has a floor for
// every workload BENCHMARK.json names and says what each per-layer
// metric should move, and that every method's metrics are listed.
func TestSpecCoversBenchmarkJSON(t *testing.T) {
	sp, err := loadSpec("../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if _, ok := runners[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
		if _, ok := sp.AccuracyFloor[w.Name]; !ok {
			t.Errorf("no accuracy floor for workload %q", w.Name)
		}
	}
	have := map[string]bool{}
	for _, m := range sp.PerLayer {
		have[m.Name] = true
	}
	for _, name := range ti.MethodNames() {
		for _, kind := range []string{"infer_s", "iterations", "unconverged"} {
			if n := "methods." + kind + "." + metricName(name); !have[n] {
				t.Errorf("per-layer metric %s missing", n)
			}
		}
	}
}

// The rescaling to the reference speed uses the median kernel time, so
// one preempted kernel does not move it, and a run without readings is
// left as measured.
func TestSpeedFactorIsReferenceOverMedianKernel(t *testing.T) {
	var none speedScale
	if f := none.factor(); f != 1 {
		t.Errorf("factor without readings = %v, want 1", f)
	}
	s := speedScale{kernels: []float64{refProbeMS / 2, refProbeMS / 2, refProbeMS / 2, 100 * refProbeMS}}
	if f := s.factor(); f != 2 {
		t.Errorf("factor = %v, want 2 (the preempted kernel ignored)", f)
	}
}
