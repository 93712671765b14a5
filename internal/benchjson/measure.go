package benchjson

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	ti "truthinference"
	"truthinference/internal/assign"
	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/loadgen"
	"truthinference/internal/methods/direct"
	"truthinference/internal/query"
	"truthinference/internal/simulate"
	"truthinference/internal/stream"
	"truthinference/internal/telemetry"
)

// iterationTargets pairs every CSR-kernel method with its canonical dataset.
var iterationTargets = []struct {
	method string
	kind   simulate.Kind
}{
	{"ZC", simulate.DProduct},
	{"GLAD", simulate.DProduct},
	{"D&S", simulate.SRel},
	{"LFC", simulate.SRel},
	{"PM", simulate.DProduct},
	{"CATD", simulate.DProduct},
	{"LFC_N", simulate.NEmotion},
}

// Calibrate times a fixed pure-arithmetic loop (min of eight runs). The
// loop's work is constant, so its wall time is a proxy for the machine's
// single-core speed and serves as the normalization unit.
func Calibrate() float64 {
	const n = 1 << 21
	best := time.Duration(1 << 62)
	for r := 0; r < 8; r++ {
		x := uint64(0x9E3779B97F4A7C15)
		acc := 0.0
		start := time.Now()
		for i := 0; i < n; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc += float64(x>>40) * 1e-9
		}
		el := time.Since(start)
		if acc == -1 { // defeat dead-code elimination
			panic("unreachable")
		}
		if el < best {
			best = el
		}
	}
	return float64(best.Nanoseconds())
}

// Measure produces a full report at the given dataset scale. repeats is
// the number of timing repetitions per latency and in-process throughput
// (the best wins); window is the measuring time of each HTTP, query and
// telemetry run.
func Measure(benchID string, scale float64, seed int64, repeats int, window time.Duration) (*Report, error) {
	if repeats < 1 {
		repeats = 1
	}
	r := &Report{
		SchemaVersion: SchemaVersion,
		BenchID:       benchID,
		GoVersion:     runtime.Version(),
		Scale:         scale,
		Seed:          seed,
		CalibrationNs: Calibrate(),
	}
	datasets := map[simulate.Kind]*dataset.Dataset{}
	data := func(k simulate.Kind) *dataset.Dataset {
		if datasets[k] == nil {
			datasets[k] = simulate.GenerateScaled(k, seed, scale)
		}
		return datasets[k]
	}
	sections := []struct {
		name    string
		measure func() ([]Measurement, error)
	}{
		{"iteration latency", func() ([]Measurement, error) { return iterationLatencies(data, seed, repeats) }},
		{"ingest throughput", func() ([]Measurement, error) { return ingestThroughput(data(simulate.DProduct), seed, repeats) }},
		{"assign QPS", func() ([]Measurement, error) { return assignQPS(data(simulate.DProduct), seed, repeats) }},
		{"http ingest", func() ([]Measurement, error) { return measureHTTPIngest(seed, window) }},
		{"query views", func() ([]Measurement, error) { return measureQuery(data(simulate.DProduct), seed, window) }},
		{"telemetry overhead", func() ([]Measurement, error) { return measureTelemetry(seed, window) }},
	}
	for _, s := range sections {
		ms, err := s.measure()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		r.Measurements = append(r.Measurements, ms...)
	}
	// Calibrate again and keep the faster sample: calibration brackets
	// the measurements, so a transiently loaded (or still
	// frequency-ramping) CPU at process start cannot skew every
	// normalized value of the run.
	r.CalibrationNs = min(r.CalibrationNs, Calibrate())
	for i := range r.Measurements {
		r.Measurements[i].normalize(r.CalibrationNs)
	}
	return r, nil
}

// rate is an ungated throughput measurement; Measure normalizes it.
func rate(name, unit string, perSec float64) Measurement {
	return Measurement{Name: name, Unit: unit, Value: perSec, Better: Higher}
}

// mvService starts a majority-vote service over an empty store: MV folds
// answers in O(delta), so throughput measures the serving path rather
// than inference.
func mvService(name string, typ dataset.TaskType, choices int, seed int64, metrics *stream.Metrics) (*stream.Service, error) {
	store, err := stream.NewStore(name, typ, choices)
	if err != nil {
		return nil, err
	}
	return stream.NewService(store, stream.Config{
		Method:  direct.NewMV(),
		Options: core.Options{Seed: seed},
		Metrics: metrics,
	})
}

// iterationLatencies measures every iteration target's marginal cost of
// one iteration; these are the gated measurements.
func iterationLatencies(data func(simulate.Kind) *dataset.Dataset, seed int64, repeats int) ([]Measurement, error) {
	var out []Measurement
	for _, tgt := range iterationTargets {
		m, err := ti.GetMethod(tgt.method)
		if err != nil {
			return nil, err
		}
		d := data(tgt.kind)
		ns, err := iterationLatency(m, d, seed, repeats)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", tgt.method, d.Name, err)
		}
		out = append(out, Measurement{
			Name:   "iteration_ns/" + tgt.method + "@" + d.Name,
			Unit:   "ns",
			Value:  ns,
			Better: Lower,
			Gated:  true,
		})
	}
	return out, nil
}

// iterationLatency measures the marginal cost of one inference
// iteration: run the method at a low and a high iteration cap (both below
// its convergence point so each run executes exactly cap sweeps) and
// divide the wall-time difference by the extra iterations. Methods that
// converge by exact label equality (PM, CATD) ignore the pinned
// tolerance, so the caps adapt to the observed convergence iteration.
func iterationLatency(m ti.Method, d *dataset.Dataset, seed int64, repeats int) (float64, error) {
	probe := core.Options{Seed: seed, MaxIterations: 50, Tolerance: 1e-300, Parallelism: 1}
	res, err := m.Infer(d, probe)
	if err != nil {
		return 0, err
	}
	hi := 12
	if res.Converged && res.Iterations-1 < hi {
		hi = res.Iterations - 1
	}
	lo := hi / 4
	if lo < 1 {
		lo = 1
	}
	if hi <= lo {
		return 0, fmt.Errorf("converges too fast (iteration %d) to isolate an iteration", res.Iterations)
	}
	loOpts, hiOpts := probe, probe
	loOpts.MaxIterations, hiOpts.MaxIterations = lo, hi

	run := func(o core.Options, k int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < k; i++ {
			if _, err := m.Infer(d, o); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	// Warm up, then size the inner batch so each timed sample covers at
	// least ~25ms of work: methods with microsecond iterations would
	// otherwise drown the lo/hi difference in scheduler jitter.
	warm, err := run(hiOpts, 1)
	if err != nil {
		return 0, err
	}
	const minSample = 25 * time.Millisecond
	k := 1
	if warm > 0 && warm < minSample {
		k = int(minSample/warm) + 1
	}
	diffs := make([]time.Duration, 0, repeats)
	for i := 0; i < repeats; i++ {
		th, err := run(hiOpts, k)
		if err != nil {
			return 0, err
		}
		tl, err := run(loOpts, k)
		if err != nil {
			return 0, err
		}
		diffs = append(diffs, (th-tl)/time.Duration(k))
	}
	best, ok := minPositive(diffs)
	if !ok {
		return 0, fmt.Errorf("no repeat of %d timed %d iterations slower than %d", repeats, hi, lo)
	}
	return float64(best.Nanoseconds()) / float64(hi-lo), nil
}

// minPositive returns the smallest positive sample; ok is false when no
// sample is positive.
func minPositive(samples []time.Duration) (best time.Duration, ok bool) {
	for _, s := range samples {
		if s > 0 && (!ok || s < best) {
			best, ok = s, true
		}
	}
	return best, ok
}

// ingestThroughput measures the O(delta) serving path: answers folded
// into a live majority-vote service in 100-answer batches.
func ingestThroughput(d *dataset.Dataset, seed int64, repeats int) ([]Measurement, error) {
	const batch = 100
	if len(d.Answers) < 2*batch {
		return nil, fmt.Errorf("dataset %s too small (%d answers)", d.Name, len(d.Answers))
	}
	batches := len(d.Answers) / batch
	best := time.Duration(1 << 62)
	for i := 0; i < repeats; i++ {
		svc, err := mvService(d.Name, d.Type, d.NumChoices, seed, nil)
		if err != nil {
			return nil, err
		}
		if _, err := svc.Ingest(stream.Batch{NumTasks: d.NumTasks, NumWorkers: d.NumWorkers}); err != nil {
			svc.Close()
			return nil, err
		}
		start := time.Now()
		for n := 0; n < batches; n++ {
			if _, err := svc.Ingest(stream.Batch{Answers: d.Answers[n*batch : (n+1)*batch]}); err != nil {
				svc.Close()
				return nil, err
			}
		}
		el := time.Since(start)
		svc.Close()
		best = min(best, el)
	}
	return []Measurement{rate("ingest_answers_per_sec", "answers/s", float64(batches*batch)/best.Seconds())}, nil
}

// assignQPS measures the control-plane hot path: one assign+complete
// round trip against a live service with a published posterior, under
// the uncertainty policy (the scoring-heavy one).
func assignQPS(d *dataset.Dataset, seed int64, repeats int) ([]Measurement, error) {
	const rounds = 2000
	policy, err := assign.ParsePolicy("uncertainty")
	if err != nil {
		return nil, err
	}
	best := time.Duration(1 << 62)
	for i := 0; i < repeats; i++ {
		svc, err := mvService(d.Name, d.Type, d.NumChoices, seed, nil)
		if err != nil {
			return nil, err
		}
		if _, err := svc.Ingest(stream.Batch{
			NumTasks:   d.NumTasks,
			NumWorkers: d.NumWorkers + rounds,
			Answers:    d.Answers,
		}); err != nil {
			svc.Close()
			return nil, err
		}
		if err := svc.Refresh(); err != nil {
			svc.Close()
			return nil, err
		}
		now := time.Unix(1_000_000, 0)
		ledger, err := assign.NewLedger(svc, assign.Config{
			Policy:     policy,
			Redundancy: 1 << 30, // never cap: steady-state scoring cost
			LeaseTTL:   time.Hour,
			Seed:       seed,
			Now:        func() time.Time { return now },
		})
		if err != nil {
			svc.Close()
			return nil, err
		}
		start := time.Now()
		for n := 0; n < rounds; n++ {
			// A fresh worker id each round keeps self-exclusion from
			// draining the board while measuring the full scan.
			w := d.NumWorkers + n
			lease, err := ledger.Assign(w)
			if err != nil {
				svc.Close()
				return nil, fmt.Errorf("assign round %d: %w", n, err)
			}
			if err := ledger.Complete(lease.ID, w, nil); err != nil {
				svc.Close()
				return nil, fmt.Errorf("complete round %d: %w", n, err)
			}
		}
		el := time.Since(start)
		svc.Close()
		best = min(best, el)
	}
	return []Measurement{rate("assign_rounds_per_sec", "rounds/s", rounds/best.Seconds())}, nil
}

// driveIngest serves h on a loopback listener and drives it for window
// with internal/loadgen's ingest traffic — all single-answer JSON
// requests at singleRatio 1, all framed binary batches at 0 — and
// returns the answers per second the server accepted.
func driveIngest(h http.Handler, seed int64, window time.Duration, singleRatio float64) (float64, error) {
	srv := httptest.NewServer(h)
	defer srv.Close()
	res, err := loadgen.Config{
		BaseURL:          srv.URL,
		Workers:          4,
		Duration:         window,
		SingleRatio:      singleRatio,
		BatchSize:        500,
		FramesPerRequest: 4,
		NumTasks:         2000,
		NumWorkers:       200,
		Seed:             seed,
		Client:           srv.Client(),
	}.Run(context.Background())
	if err != nil {
		return 0, err
	}
	if res.Errors > 0 {
		return 0, fmt.Errorf("load run saw %d errors (first: %s)", res.Errors, res.FirstError)
	}
	if res.AnswersPerSec <= 0 {
		return 0, fmt.Errorf("load run accepted no answers: %+v", res)
	}
	return res.AnswersPerSec, nil
}

// measureHTTPIngest drives the live HTTP surface twice — all
// single-answer JSON, then all batched binary — against fresh in-process
// services: request framing, codec, admission and store fold, end to
// end. Their ratio is the speedup the batched API exists to maximize.
func measureHTTPIngest(seed int64, window time.Duration) ([]Measurement, error) {
	run := func(singleRatio float64) (float64, error) {
		svc, err := mvService("bench-http", dataset.Decision, 2, seed, nil)
		if err != nil {
			return 0, err
		}
		defer svc.Close()
		return driveIngest(svc.Handler(), seed, window, singleRatio)
	}
	single, err := run(1)
	if err != nil {
		return nil, fmt.Errorf("single-answer JSON path: %w", err)
	}
	batch, err := run(0)
	if err != nil {
		return nil, fmt.Errorf("batched binary path: %w", err)
	}
	return []Measurement{
		rate(HTTPSingleRate, "answers/s", single),
		rate(HTTPBatchRate, "answers/s", batch),
	}, nil
}

// measureQuery evaluates the canned views (query.ViewNames) round-robin
// for window against a live majority-vote service over d, with a live
// assignment ledger so spend-vs-budget has something to read. Each query
// pins a fresh catalog and drains its relation to completion.
func measureQuery(d *dataset.Dataset, seed int64, window time.Duration) ([]Measurement, error) {
	svc, err := mvService(d.Name, d.Type, d.NumChoices, seed, nil)
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	if _, err := svc.Ingest(stream.Batch{
		NumTasks:   d.NumTasks,
		NumWorkers: d.NumWorkers,
		Answers:    d.Answers,
	}); err != nil {
		return nil, err
	}
	if err := svc.Refresh(); err != nil {
		return nil, err
	}
	policy, err := assign.ParsePolicy("uncertainty")
	if err != nil {
		return nil, err
	}
	ledger, err := assign.NewLedger(svc, assign.Config{
		Policy:     policy,
		Redundancy: 1 << 30,
		LeaseTTL:   time.Hour,
		Seed:       seed,
	})
	if err != nil {
		return nil, err
	}
	// A few live leases so the budget and lease surfaces are non-trivial.
	for w := 0; w < 8; w++ {
		if _, err := ledger.Assign(d.NumWorkers + w); err != nil {
			return nil, fmt.Errorf("seeding leases: %w", err)
		}
	}

	var queries, rows int
	start := time.Now()
	for time.Since(start) < window {
		name := query.ViewNames[queries%len(query.ViewNames)]
		rel, err := query.View(query.NewCatalog(svc, ledger), name)
		if err != nil {
			return nil, fmt.Errorf("view %s: %w", name, err)
		}
		out, _ := query.Collect(rel, -1)
		rows += len(out)
		queries++
	}
	el := time.Since(start)
	if queries == 0 || el <= 0 {
		return nil, fmt.Errorf("measurement window %v completed no queries", window)
	}
	// Rows flow even when the disagreement view is empty: spend-vs-budget
	// always yields one.
	return []Measurement{
		rate("query_views_per_sec", "queries/s", float64(queries)/el.Seconds()),
		rate("query_rows_per_sec", "rows/s", float64(rows)/el.Seconds()),
	}, nil
}

// measureTelemetry measures batched ingest throughput with the telemetry
// plane fully wired (metrics registry, per-tenant stream instruments,
// request-ID middleware, HTTP histograms) and with no instrumentation,
// interleaving the two modes across two repeats (best of each) so CPU
// frequency drift hits both sides evenly.
func measureTelemetry(seed int64, window time.Duration) ([]Measurement, error) {
	run := func(instrumented bool) (float64, error) {
		var reg *telemetry.Registry
		var metrics *stream.Metrics
		if instrumented {
			reg = telemetry.NewRegistry()
			metrics = stream.NewMetrics(reg, "bench", "MV")
		}
		svc, err := mvService("bench-telemetry", dataset.Decision, 2, seed, metrics)
		if err != nil {
			return 0, err
		}
		defer svc.Close()
		handler := svc.Handler()
		if instrumented {
			logger := slog.New(slog.NewTextHandler(io.Discard, nil))
			handler = telemetry.Middleware(handler,
				telemetry.NewHTTPMetrics(reg, "truthserve"), logger, 0,
				func(*http.Request) (string, string) { return "/v1/ingest-batch", "bench" })
		}
		return driveIngest(handler, seed, window, 0)
	}
	var off, on float64
	for i := 0; i < 2; i++ {
		u, err := run(false)
		if err != nil {
			return nil, fmt.Errorf("uninstrumented path: %w", err)
		}
		off = max(off, u)
		in, err := run(true)
		if err != nil {
			return nil, fmt.Errorf("instrumented path: %w", err)
		}
		on = max(on, in)
	}
	return []Measurement{
		rate(TelemetryOffRate, "answers/s", off),
		rate(TelemetryOnRate, "answers/s", on),
	}, nil
}
