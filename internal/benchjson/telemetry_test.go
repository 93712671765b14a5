package benchjson

import (
	"testing"
	"time"
)

func TestValidateTelemetry(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*testing.T, *Report)
	}{
		{"zero uninstrumented", func(t *testing.T, r *Report) { entry(t, r, TelemetryOffRate).Value = 0 }},
		{"zero instrumented", func(t *testing.T, r *Report) { entry(t, r, TelemetryOnRate).Value = 0 }},
		{"zero normalized", func(t *testing.T, r *Report) { entry(t, r, TelemetryOnRate).Normalized = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := validReport()
			tc.mutate(t, r)
			rejects(t, r, "telemetry")
		})
	}
}

// The overhead fraction is derived from the two stored throughputs: 3%
// passes, just past it fails, and instrumentation that reads faster
// (negative overhead) passes.
func TestTelemetryOverheadGate(t *testing.T) {
	r := validReport()
	entry(t, r, TelemetryOffRate).Value = 1e5
	entry(t, r, TelemetryOnRate).Value = 97000
	if _, overhead, err := CheckRatios(r); err != nil || overhead != 0.03 {
		t.Fatalf("3%% overhead: %v, %v; want 0.03, nil", overhead, err)
	}
	entry(t, r, TelemetryOnRate).Value = 96990
	if _, _, err := CheckRatios(r); err == nil {
		t.Fatal("3.01% overhead passed the 3% budget")
	}
	entry(t, r, TelemetryOnRate).Value = 1.1e5
	if _, _, err := CheckRatios(r); err != nil {
		t.Fatalf("negative overhead failed the gate: %v", err)
	}
}

// TestMeasureTelemetrySmoke runs both modes briefly: positive, valid
// throughputs. The 3% budget is gated by cmd/benchjson on its 2 s
// windows, not here — a loaded test machine with a sub-second window is
// too noisy.
func TestMeasureTelemetrySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives live HTTP load")
	}
	ms, err := measureTelemetry(1, 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(measured(t, ms)); err != nil {
		t.Fatal(err)
	}
}
