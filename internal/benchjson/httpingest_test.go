package benchjson

import (
	"testing"
	"time"
)

func TestValidateHTTPIngest(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*testing.T, *Report)
	}{
		{"zero single", func(t *testing.T, r *Report) { entry(t, r, HTTPSingleRate).Value = 0 }},
		{"zero batch", func(t *testing.T, r *Report) { entry(t, r, HTTPBatchRate).Value = 0 }},
		{"zero normalized", func(t *testing.T, r *Report) { entry(t, r, HTTPBatchRate).Normalized = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := validReport()
			tc.mutate(t, r)
			rejects(t, r, "http_")
		})
	}
}

// The batched-over-single speedup is derived from the two stored
// throughputs: exactly 5x passes, just under fails.
func TestHTTPSpeedupGate(t *testing.T) {
	r := validReport()
	entry(t, r, HTTPSingleRate).Value = 1000
	entry(t, r, HTTPBatchRate).Value = 5000
	if speedup, _, err := CheckRatios(r); err != nil || speedup != 5 {
		t.Fatalf("5x speedup: %v, %v; want 5, nil", speedup, err)
	}
	entry(t, r, HTTPBatchRate).Value = 4990
	if _, _, err := CheckRatios(r); err == nil {
		t.Fatal("4.99x speedup passed the 5x floor")
	}
	r.Measurements = r.Measurements[:4]
	if _, _, err := CheckRatios(r); err == nil {
		t.Fatal("CheckRatios passed a report without HTTP throughputs")
	}
}

// TestMeasureHTTPIngestSmoke runs both HTTP modes briefly: positive,
// valid throughputs with the batched path ahead. The 5x floor is gated
// by cmd/benchjson on its 2 s windows, not here — a loaded test machine
// with a sub-second window is not a fair judge.
func TestMeasureHTTPIngestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives live HTTP load")
	}
	ms, err := measureHTTPIngest(1, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(measured(t, ms)); err != nil {
		t.Fatal(err)
	}
	if single, batch := ms[0].Value, ms[1].Value; batch <= single {
		t.Fatalf("batched path (%.0f/s) did not beat single-answer path (%.0f/s)", batch, single)
	}
}
