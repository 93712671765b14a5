package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// benchmarkFile is the benchmark definition the runs are judged by; the
// metric names and units the program reports come from it. It lies at
// the root of the checkout the benchmark runs from.
const benchmarkFile = "BENCHMARK.json"

// spec.json records what BENCHMARK.json's fixed schema has no room for:
// the output floors the checks enforce, which end-to-end metric and
// workload each per-layer metric should move, what the seed argument
// generates, and the machine the recorded numbers came from.
//
//go:embed spec.json
var specJSON []byte

type spec struct {
	RecordedNproc int                `json:"recorded_nproc"`
	AccuracyFloor map[string]float64 `json:"accuracy_floor"`
	// MAECeiling bounds the mean MAE of the numeric methods on N_Emotion.
	MAECeiling float64           `json:"mae_ceiling_n_emotion"`
	Moves      map[string]string `json:"moves"` // per-layer metric → what it should move

	// From BENCHMARK.json.
	EndToEnd []specMetric `json:"-"`
	PerLayer []specMetric `json:"-"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadSpec reads spec.json and the metric lists of the BENCHMARK.json
// at path.
func loadSpec(path string) (*spec, error) {
	var sp spec
	if err := json.Unmarshal(specJSON, &sp); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bench struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sp.EndToEnd, sp.PerLayer = bench.EndToEnd, bench.PerLayer
	for _, m := range sp.PerLayer {
		if sp.Moves[m.Name] == "" {
			return nil, fmt.Errorf("spec.json: no entry in moves for per-layer metric %q", m.Name)
		}
	}
	return &sp, nil
}

// metricName maps a method name onto the characters a metric name may
// hold ("D&S" → "DS").
func metricName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '.', r == '-':
			return r
		}
		return -1
	}, s)
}
