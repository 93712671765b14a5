// Command perfbench is the repository's end-to-end benchmark. It drives
// four workloads against the real serving stack (a WAL-backed
// tenant.Registry on a loopback listener) and the paper's comparison
// harness, checks their outputs, and prints every metric by name and
// unit, ending with one JSON line:
//
//	perfbench --workload ingest|freshness|crowd|paper --seed N --seconds S --trace 0|1
//
// --trace 0 measures the named workload untraced and reports the
// end-to-end metrics. --trace 1 runs every workload twice on a project
// assembled from the layers' public constructors, without and then with
// timing decorators around each layer's public interfaces, and reports the per-layer metrics, the tracing overhead and the share
// of each workload's latency the layer spans account for. Run it from
// the repository root through perfbench/run.sh, which builds it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workDir holds every file a run writes (WAL directories, traces); it is
// relative to the checkout the benchmark runs from.
const workDir = ".bench_build/perfbench-run"

// workloads lists the workloads in the order a traced run executes them.
var workloads = []string{"ingest", "freshness", "crowd", "paper"}

var runners = map[string]func(options) (*result, error){
	"ingest":    runIngest,
	"freshness": runFreshness,
	"crowd":     runCrowd,
	"paper":     runPaper,
}

// options configures one measuring pass of one workload.
type options struct {
	seed      int64
	nproc     int
	budget    time.Duration // how long the pass keeps starting trials
	minTrials int
	// assembled serves through the hand-assembled project a traced pass
	// uses (always so when tracer is set) instead of tenant.Registry.
	assembled bool
	// tracer is non-nil in a traced pass: every trial records into its
	// own tracer, absorbed here once the trial's spans are linked.
	tracer *Tracer
}

// trialTracer returns a fresh tracer on the pass tracer's clock, or nil
// when the pass is untraced.
func (o options) trialTracer() *Tracer {
	if o.tracer == nil {
		return nil
	}
	return &Tracer{epoch: o.tracer.epoch}
}

// metric is one named number for the human-readable report.
type metric struct {
	name, unit string
	value      float64
	note       string
}

// check is one output check; any failure makes the run exit non-zero.
type check struct {
	name   string
	ok     bool
	detail string
}

// result is what one pass of one workload measured.
type result struct {
	workload     string
	setup        []float64 // seconds, one per set-up
	rss          []float64 // peak resident MiB, one per measured trial
	attempted    int
	failed       int        // failed + refused (429) + no-task (404)
	headline     Timings    // the workload's end-to-end latency
	headlineName string     // what headline times: ack, fresh, lease, infer
	speed        speedScale // reference-speed readings that rescale the gated timings
	accuracy     float64
	mae          float64  // paper: mean MAE of the numeric methods on N_Emotion
	printed      []metric // further end-to-end metrics of this workload
	checks       []check
	genLag       Timings // open-loop generator lateness
	layer        map[string]float64
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := flag.Int("seconds", 10, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	if _, ok := runners[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %s --seed N --seconds S --trace 0|1\n", strings.Join(workloads, "|"))
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fatal(err)
	}
	spec, err := loadSpec(benchmarkFile)
	if err != nil {
		fatal(err)
	}
	nproc := runtime.NumCPU()
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d nproc=%d (recorded numbers: nproc=%d)\n",
		*workload, *seed, *seconds, *trace, nproc, spec.RecordedNproc)
	budget := time.Duration(*seconds) * time.Second
	var out output
	if *trace == 0 {
		out, err = untracedRun(spec, *workload, options{seed: *seed, nproc: nproc, budget: budget, minTrials: 1})
	} else {
		out, err = tracedRun(spec, *seed, nproc, budget)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: output checks failed")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// output is the final JSON line.
type output struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// untracedRun measures one workload and reports its end-to-end metrics.
func untracedRun(sp *spec, name string, o options) (output, error) {
	res, err := runners[name](o)
	if err != nil {
		return output{}, err
	}
	if err := validRun(res); err != nil {
		return output{}, err
	}
	report(res)
	ok := checkAll(sp, res)
	values := map[string]float64{
		"setup_s":            median(res.setup) * res.speed.factor(),
		"latency_p50_ref_ms": res.headline.Median() * res.speed.factor(),
		"accuracy":           res.accuracy,
		"peak_rss_mb":        median(res.rss),
	}
	out := output{Correct: ok, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range sp.EndToEnd {
		v, found := values[m.Name]
		if !found {
			return output{}, fmt.Errorf("no value for end-to-end metric %q", m.Name)
		}
		out.Metrics[m.Name] = jsonMetric{finite(v), m.Unit}
	}
	return out, nil
}

// tracedRun runs every workload untraced and then traced, each pass for
// a quarter of the budget (at least one trial), and reports the
// per-layer metrics. Both passes serve through the same hand-assembled
// project, the untraced one with its decorators passing straight
// through, so the overhead figure is the cost of tracing alone.
func tracedRun(sp *spec, seed int64, nproc int, budget time.Duration) (output, error) {
	out := output{Correct: true, Metrics: map[string]jsonMetric{}}
	layer := map[string]float64{}
	var lags Timings
	for _, name := range workloads {
		o := options{seed: seed, nproc: nproc, budget: budget / 4, minTrials: 1, assembled: true}
		plain, err := runners[name](o)
		if err != nil {
			return output{}, fmt.Errorf("%s untraced: %w", name, err)
		}
		o.tracer = NewTracer()
		traced, err := runners[name](o)
		if err != nil {
			return output{}, fmt.Errorf("%s traced: %w", name, err)
		}
		for k, v := range traced.layer {
			layer[k] = v
		}
		overhead := traced.headline.Median()*traced.speed.factor()/(plain.headline.Median()*plain.speed.factor()) - 1
		layer["trace.overhead_frac."+name] = overhead
		report(plain)
		fmt.Printf("  %s untraced %s | traced %s | tracing overhead %+.1f%% | layer spans account for %.1f%%\n",
			plain.headlineName, plain.headline.describe(), traced.headline.describe(), 100*overhead, 100*layer["trace.accounted_frac."+name])
		for _, r := range []*result{plain, traced} {
			if err := validRun(r); err != nil {
				return output{}, err
			}
			out.Correct = checkAll(sp, r) && out.Correct
			out.Attempted += r.attempted
			out.Failed += r.failed
			lags.Merge(&r.genLag)
		}
		writeTrace(o.tracer, name, seed)
	}
	_, layer["gen.lag_ms_tail"] = lags.Tail()
	for _, m := range sp.PerLayer {
		v, found := layer[m.Name]
		if !found {
			return output{}, fmt.Errorf("no value for per-layer metric %q", m.Name)
		}
		out.Metrics[m.Name] = jsonMetric{finite(v), m.Unit}
	}
	fmt.Println("per-layer metrics:")
	for _, m := range sp.PerLayer {
		fmt.Printf("  %-40s %12s %-9s moves %s\n", m.Name, fmtNum(layer[m.Name]), m.Unit, sp.Moves[m.Name])
	}
	return out, nil
}

// validRun refuses a run whose open-loop generator fell behind its
// schedule: its latencies would understate the load it was meant to
// offer.
func validRun(r *result) error {
	if r.genLag.N() == 0 {
		return nil
	}
	name, lag := r.genLag.Tail()
	if lag > maxGenLagMS {
		return fmt.Errorf("%s: run invalid, the open-loop generator fell behind (lag %s %.1f ms > %d ms)", r.workload, name, lag, maxGenLagMS)
	}
	return nil
}

// maxGenLagMS is the generator lateness beyond which a run is invalid.
// Shorter stalls are the scheduler sharing the cores with the system
// under test; each operation's latency, timed from its due time,
// already counts them.
const maxGenLagMS = 200

// report prints a workload's end-to-end metrics by name and unit.
func report(r *result) {
	tailName, tailMS := r.headline.Tail()
	fmt.Printf("== %s\n", r.workload)
	rows := []metric{
		{"setup_s", "s", median(r.setup) * r.speed.factor(), fmt.Sprintf("median of %d set-ups, at the reference speed", len(r.setup))},
		{"setup_raw_s", "s", median(r.setup), "as measured"},
		{"error_rate", "fraction", float64(r.failed) / math.Max(float64(r.attempted), 1), fmt.Sprintf("%d of %d", r.failed, r.attempted)},
		{r.headlineName + "_p50_ms", "ms", r.headline.Median(), fmt.Sprintf("n=%d", r.headline.N())},
		{r.headlineName + "_" + tailName + "_ms", "ms", tailMS, fmt.Sprintf("n=%d", r.headline.N())},
	}
	if r.headlineName == "infer" {
		rows = rows[:3]
		rows = append(rows, metric{"infer_s", "s", r.headline.Median() / 1000, fmt.Sprintf("median of %d comparisons", r.headline.N())})
	}
	rows = append(rows, r.printed...)
	rows = append(rows, metric{"accuracy", "fraction", r.accuracy, ""},
		metric{"peak_rss_mb", "MiB", median(r.rss), fmt.Sprintf("median of %d trials", len(r.rss))})
	if r.genLag.N() > 0 {
		name, lag := r.genLag.Tail()
		rows = append(rows, metric{"gen.lag_ms_" + name, "ms", lag, fmt.Sprintf("n=%d", r.genLag.N())})
	}
	rows = append(rows,
		metric{"latency_p50_ref_ms", "ms", r.headline.Median() * r.speed.factor(), fmt.Sprintf("%s p50 at the reference speed, n=%d", r.headlineName, r.headline.N())},
		metric{"speed_factor", "ratio", r.speed.factor(), fmt.Sprintf("reference kernel %.4g ms (median of %d in %d readings) vs %.4g ms", r.speed.speed(), len(r.speed.kernels), r.speed.readings, refProbeMS)})
	for _, m := range rows {
		fmt.Printf("  %-22s %12s %-10s %s\n", m.name, fmtNum(m.value), m.unit, m.note)
	}
}

// checkAll prints and evaluates the output checks, including the
// accuracy floor recorded for the workload.
func checkAll(sp *spec, r *result) bool {
	checks := append([]check(nil), r.checks...)
	if floor, ok := sp.AccuracyFloor[r.workload]; ok {
		checks = append(checks, check{fmt.Sprintf("%s: accuracy ≥ floor %.3f", r.workload, floor), r.accuracy >= floor, fmt.Sprintf("%.4f", r.accuracy)})
	} else {
		checks = append(checks, check{r.workload + ": accuracy floor recorded", false, "missing from spec.json"})
	}
	if r.workload == "paper" {
		checks = append(checks, check{fmt.Sprintf("paper: N_Emotion MAE ≤ ceiling %.3f", sp.MAECeiling), r.mae <= sp.MAECeiling, fmt.Sprintf("%.4f", r.mae)})
	}
	// Trials repeat the same checks: report each once, failing if any
	// trial failed it, with the first failing trial's detail.
	var order []string
	merged := map[string]check{}
	runs := map[string]int{}
	for _, c := range checks {
		prev, seen := merged[c.name]
		if !seen {
			order = append(order, c.name)
		}
		if !seen || (prev.ok && !c.ok) {
			merged[c.name] = c
		}
		runs[c.name]++
	}
	ok := len(order) > 0
	for _, name := range order {
		c := merged[name]
		status := "ok  "
		if !c.ok {
			status = "FAIL"
			ok = false
		}
		if runs[name] > 1 {
			c.detail += fmt.Sprintf("; %d trials", runs[name])
		}
		fmt.Printf("  check %s %s (%s)\n", status, c.name, c.detail)
	}
	return ok
}

// resetPeakRSS hands freed memory back to the OS and restarts the
// kernel's peak-RSS watermark, so the next peakRSSMB covers one trial
// and not the garbage of the one before it.
func resetPeakRSS() {
	debug.FreeOSMemory()
	// A kernel without clear_refs keeps the process-lifetime peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set since the last resetPeakRSS, in MiB.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// finite keeps the JSON encodable: a latency that is +Inf (too many
// failures) becomes a value no bound can accept.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return math.MaxFloat32
	}
	return v
}

// medianLayers takes, per metric, the median over trials.
func medianLayers(runs []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, r := range runs {
		for k, v := range r {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}
