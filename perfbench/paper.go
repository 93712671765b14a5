package main

import (
	"fmt"
	"math"
	"time"

	ti "truthinference"
	"truthinference/internal/core"
	"truthinference/internal/dataset"
)

// The paper workload: Table 6 through RunFullComparison — all 17
// methods on the five generated datasets — with cells scheduled over
// nproc workers. It is the reproduction path; no HTTP, WAL or store code
// runs here.
const paperScale = 0.15

func genPaper(seed int64) []*dataset.Dataset {
	out := make([]*dataset.Dataset, 0, len(ti.DatasetKinds))
	for _, k := range ti.DatasetKinds {
		out = append(out, ti.SimulateDatasetScaled(k, seed, paperScale))
	}
	return out
}

func runPaper(o options) (*result, error) {
	res := &result{workload: "paper", headlineName: "infer"}
	var ds []*dataset.Dataset
	res.speed.boundary(true)
	for r := 0; r < 21; r++ {
		t0 := time.Now()
		ds = genPaper(o.seed)
		res.setup = append(res.setup, time.Since(t0).Seconds())
	}
	var layerRuns []map[string]float64
	var mae float64
	start := time.Now()
	for rep := 0; rep < o.minTrials || time.Since(start) < o.budget; rep++ {
		res.speed.boundary(false)
		resetPeakRSS()
		tr := o.trialTracer()
		l := newLayers(tr)
		l.inferSpan = "method.infer"
		var methods []core.Method
		for _, m := range ti.NewRegistry() {
			methods = append(methods, l.method(m))
		}
		t0 := time.Now()
		var cells, failed int
		var accSum float64
		var accN int
		var maeSum float64
		var maeN int
		for _, d := range ds {
			for _, s := range ti.RunFullComparison(methods, d, ti.ExperimentConfig{Seed: o.seed, Parallelism: o.nproc}) {
				cells++
				if s.Err != "" {
					failed++
					continue
				}
				if d.Categorical() {
					accSum += s.Accuracy
					accN++
				} else {
					maeSum += s.MAE
					maeN++
				}
			}
		}
		end := time.Now()
		res.rss = append(res.rss, peakRSSMB())
		res.headline.Add(end.Sub(t0))
		res.attempted += cells
		res.failed += failed
		res.accuracy = accSum / math.Max(float64(accN), 1)
		mae = maeSum / math.Max(float64(maeN), 1)
		calls := l.inferCalls()
		incomplete := 0
		for _, c := range calls {
			if c.err != nil || !c.complete {
				incomplete++
			}
		}
		res.checks = append(res.checks, check{"paper: every cell returns a truth for every task",
			incomplete == 0 && failed == 0 && len(calls) == cells, fmt.Sprintf("%d cells, %d incomplete, %d failed", cells, incomplete, failed)})
		if tr != nil {
			root := tr.Add(fmt.Sprintf("paper-%d", rep), "comparison", t0, end, -1)
			m := map[string]float64{}
			for _, c := range calls {
				tr.SetParent(c.span, root)
				name := metricName(c.method)
				m["methods.infer_s."+name] += c.end.Sub(c.start).Seconds()
				m["methods.iterations."+name] += float64(c.iterations)
				unconverged := 0.0
				if !c.converged {
					unconverged = 1
				}
				m["methods.unconverged."+name] += unconverged
			}
			m["trace.accounted_frac.paper"] = accountedShare(tr.Spans(), []int{root})
			layerRuns = append(layerRuns, m)
			o.tracer.Absorb(tr)
		}
	}
	res.speed.boundary(true)
	res.mae = mae
	res.printed = []metric{{"mae_n_emotion", "MAE", mae, "mean over the numeric methods"}}
	res.layer = medianLayers(layerRuns)
	return res, nil
}
