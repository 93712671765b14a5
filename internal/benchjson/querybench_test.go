package benchjson

import (
	"testing"
	"time"

	"truthinference/internal/simulate"
)

func TestValidateQueryBench(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*testing.T, *Report)
	}{
		{"zero queries", func(t *testing.T, r *Report) { entry(t, r, "query_views_per_sec").Value = 0 }},
		{"zero normalized", func(t *testing.T, r *Report) { entry(t, r, "query_views_per_sec").Normalized = 0 }},
		{"zero rows", func(t *testing.T, r *Report) { entry(t, r, "query_rows_per_sec").Value = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := validReport()
			tc.mutate(t, r)
			rejects(t, r, "query")
		})
	}
}

// TestMeasureQuerySmoke drives the canned views briefly against a small
// simulated service: positive query and row throughput.
func TestMeasureQuerySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a live service")
	}
	d := simulate.GenerateScaled(simulate.DProduct, 1, 0.05)
	ms, err := measureQuery(d, 1, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(measured(t, ms)); err != nil {
		t.Fatal(err)
	}
}
