package truthinference

import (
	"math"
	"reflect"
	"testing"

	"truthinference/internal/testutil"
)

// categoricalMethods returns every method applicable to the given planted
// crowd's task type.
func applicable(d *Dataset) []Method {
	return MethodsForType(d.Type)
}

// qualityPerWorker checks that a result carries one quality estimate per
// worker, which the streaming service's previous-epoch quality relies on.
func qualityPerWorker(t *testing.T, d *Dataset, res *Result) {
	t.Helper()
	if len(res.WorkerQuality) != d.NumWorkers {
		t.Errorf("%d worker qualities for %d workers", len(res.WorkerQuality), d.NumWorkers)
	}
}

// TestAllMethodsRecoverEasyDecisionCrowd: with uniformly competent workers
// (accuracy 0.8) and redundancy 5, every decision-making method must beat
// 85% accuracy — a basic correctness bar for all 14 implementations.
func TestAllMethodsRecoverEasyDecisionCrowd(t *testing.T) {
	d := testutil.Categorical(testutil.CrowdSpec{
		NumTasks: 300, NumWorkers: 25, Redundancy: 5, Seed: 7,
	})
	for _, m := range applicable(d) {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			res, err := m.Infer(d, Options{Seed: 3})
			if err != nil {
				t.Fatalf("Infer: %v", err)
			}
			qualityPerWorker(t, d, res)
			acc := testutil.AccuracyOf(d.Truth, res.Truth)
			t.Logf("accuracy %.3f (iters %d)", acc, res.Iterations)
			if acc < 0.85 {
				t.Errorf("accuracy %.3f < 0.85 on easy crowd", acc)
			}
		})
	}
}

// TestAllMethodsRecoverEasySingleChoiceCrowd repeats the bar for 4-choice
// tasks and the 10 single-choice methods.
func TestAllMethodsRecoverEasySingleChoiceCrowd(t *testing.T) {
	d := testutil.Categorical(testutil.CrowdSpec{
		NumTasks: 300, NumWorkers: 25, NumChoices: 4, Redundancy: 5, Seed: 11,
	})
	for _, m := range applicable(d) {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			res, err := m.Infer(d, Options{Seed: 3})
			if err != nil {
				t.Fatalf("Infer: %v", err)
			}
			qualityPerWorker(t, d, res)
			acc := testutil.AccuracyOf(d.Truth, res.Truth)
			t.Logf("accuracy %.3f (iters %d)", acc, res.Iterations)
			if acc < 0.85 {
				t.Errorf("accuracy %.3f < 0.85 on easy 4-choice crowd", acc)
			}
		})
	}
}

// TestWorkerModelsBeatSpammers: when 40% of workers are coin-flippers,
// worker-modeling methods must (a) still recover the truth and (b) assign
// the spammers lower quality than the good workers on average.
func TestWorkerModelsBeatSpammers(t *testing.T) {
	const nw = 30
	acc := make([]float64, nw)
	for w := range acc {
		if w < 12 {
			acc[w] = 0.5 // spammers
		} else {
			acc[w] = 0.85
		}
	}
	d := testutil.Categorical(testutil.CrowdSpec{
		NumTasks: 400, NumWorkers: nw, Redundancy: 7, Accuracies: acc, Seed: 13,
	})
	for _, m := range applicable(d) {
		m := m
		if m.Name() == "MV" {
			continue // MV has no worker model by design
		}
		t.Run(m.Name(), func(t *testing.T) {
			res, err := m.Infer(d, Options{Seed: 5})
			if err != nil {
				t.Fatalf("Infer: %v", err)
			}
			got := testutil.AccuracyOf(d.Truth, res.Truth)
			if got < 0.85 {
				t.Errorf("accuracy %.3f < 0.85 with spammers present", got)
			}
			var spamQ, goodQ float64
			for w := 0; w < nw; w++ {
				if w < 12 {
					spamQ += res.WorkerQuality[w]
				} else {
					goodQ += res.WorkerQuality[w]
				}
			}
			spamQ /= 12
			goodQ /= nw - 12
			if spamQ >= goodQ {
				t.Errorf("mean spammer quality %.3f >= mean good quality %.3f", spamQ, goodQ)
			}
		})
	}
}

// TestNumericMethodsRecoverTruth: numeric methods must land within a small
// RMSE of the planted truth when workers are unbiased.
func TestNumericMethodsRecoverTruth(t *testing.T) {
	d := testutil.Numeric(testutil.NumericSpec{
		NumTasks: 300, NumWorkers: 20, Redundancy: 8, Seed: 17,
	})
	for _, m := range applicable(d) {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			res, err := m.Infer(d, Options{Seed: 5})
			if err != nil {
				t.Fatalf("Infer: %v", err)
			}
			qualityPerWorker(t, d, res)
			rmse := RMSE(res.Truth, d.Truth)
			t.Logf("RMSE %.2f (iters %d)", rmse, res.Iterations)
			// Noise sigma 10 over 8 answers → ideal ≈ 3.5; leave headroom.
			if rmse > 6 {
				t.Errorf("RMSE %.2f > 6 on easy numeric crowd", rmse)
			}
		})
	}
}

// TestVarianceAwareNumericBeatsMean: when workers have wildly different
// noise levels, the variance-modeling methods must beat plain Mean.
func TestVarianceAwareNumericBeatsMean(t *testing.T) {
	const nw = 20
	sig := make([]float64, nw)
	for w := range sig {
		if w < 10 {
			sig[w] = 2
		} else {
			sig[w] = 40
		}
	}
	d := testutil.Numeric(testutil.NumericSpec{
		NumTasks: 300, NumWorkers: nw, Redundancy: 8, Sigmas: sig, Seed: 19,
	})
	mean, err := Infer("Mean", d, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	meanRMSE := RMSE(mean.Truth, d.Truth)
	for _, name := range []string{"LFC_N", "PM", "CATD"} {
		res, err := Infer(name, d, Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		got := RMSE(res.Truth, d.Truth)
		t.Logf("%s RMSE %.2f vs Mean %.2f", name, got, meanRMSE)
		if got >= meanRMSE {
			t.Errorf("%s RMSE %.2f should beat Mean %.2f under heteroscedastic workers", name, got, meanRMSE)
		}
	}
}

// TestDeterminism: equal options must produce byte-identical results for
// every method, including the Gibbs samplers.
func TestDeterminism(t *testing.T) {
	dec := testutil.Categorical(testutil.CrowdSpec{NumTasks: 80, NumWorkers: 12, Redundancy: 4, Seed: 23})
	num := testutil.Numeric(testutil.NumericSpec{NumTasks: 60, NumWorkers: 10, Redundancy: 5, Seed: 23})
	for _, m := range NewRegistry() {
		m := m
		d := dec
		if !m.Capabilities().SupportsType(dec.Type) {
			d = num
			if !m.Capabilities().SupportsType(num.Type) {
				continue
			}
		}
		t.Run(m.Name(), func(t *testing.T) {
			a, err := m.Infer(d, Options{Seed: 99})
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			b, err := m.Infer(d, Options{Seed: 99})
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if !reflect.DeepEqual(a.Truth, b.Truth) {
				t.Error("truth differs between identical runs")
			}
			if !reflect.DeepEqual(a.WorkerQuality, b.WorkerQuality) {
				t.Error("worker quality differs between identical runs")
			}
		})
	}
}

// TestCapabilityEnforcement: running a method outside its Table-4 task
// types, or with unsupported golden/qualification options, must return the
// sentinel errors rather than garbage.
func TestCapabilityEnforcement(t *testing.T) {
	dec := testutil.Categorical(testutil.CrowdSpec{NumTasks: 20, NumWorkers: 6, Redundancy: 3, Seed: 29})
	num := testutil.Numeric(testutil.NumericSpec{NumTasks: 20, NumWorkers: 6, Redundancy: 3, Seed: 29})
	for _, m := range NewRegistry() {
		caps := m.Capabilities()
		var wrong *Dataset
		switch {
		case !caps.SupportsType(Numeric):
			wrong = num
		case !caps.SupportsType(Decision):
			wrong = dec
		default:
			wrong = nil // PM and CATD support every task type
		}
		if wrong != nil {
			if _, err := m.Infer(wrong, Options{}); err == nil {
				t.Errorf("%s: expected task-type error on %s dataset", m.Name(), wrong.Type)
			}
		}
		var right *Dataset
		if caps.SupportsType(Decision) {
			right = dec
		} else {
			right = num
		}
		if !caps.Golden {
			if _, err := m.Infer(right, Options{Golden: map[int]float64{0: right.Truth[0]}}); err == nil {
				t.Errorf("%s: expected golden-unsupported error", m.Name())
			}
		}
		if !caps.Qualification {
			qa := make([]float64, right.NumWorkers)
			if _, err := m.Infer(right, Options{QualificationAccuracy: qa}); err == nil {
				t.Errorf("%s: expected qualification-unsupported error", m.Name())
			}
		}
	}
}

// TestGoldenTasksArePinned: golden truths must be returned verbatim for
// golden-capable categorical methods.
func TestGoldenTasksArePinned(t *testing.T) {
	d := testutil.Categorical(testutil.CrowdSpec{NumTasks: 100, NumWorkers: 12, Redundancy: 4, Seed: 31})
	golden := map[int]float64{0: d.Truth[0], 1: d.Truth[1], 2: d.Truth[2]}
	for _, m := range applicable(d) {
		if !m.Capabilities().Golden {
			continue
		}
		res, err := m.Infer(d, Options{Seed: 5, Golden: golden})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		for task, v := range golden {
			if res.Truth[task] != v {
				t.Errorf("%s: golden task %d inferred %v, want %v", m.Name(), task, res.Truth[task], v)
			}
		}
	}
}

// TestRegistryShape: 17 methods, unique names, and the paper's Table-4
// task-type counts (14 decision, 10 single-choice, 5 numeric).
func TestRegistryShape(t *testing.T) {
	reg := NewRegistry()
	if len(reg) != 17 {
		t.Fatalf("registry has %d methods, want 17", len(reg))
	}
	seen := map[string]bool{}
	for _, m := range reg {
		if seen[m.Name()] {
			t.Errorf("duplicate method name %q", m.Name())
		}
		seen[m.Name()] = true
	}
	if n := len(MethodsForType(Decision)); n != 14 {
		t.Errorf("decision-making methods = %d, want 14", n)
	}
	if n := len(MethodsForType(SingleChoice)); n != 10 {
		t.Errorf("single-choice methods = %d, want 10", n)
	}
	if n := len(MethodsForType(Numeric)); n != 5 {
		t.Errorf("numeric methods = %d, want 5", n)
	}
	if _, err := GetMethod("nope"); err == nil {
		t.Error("GetMethod(nope) should fail")
	}
	m, err := GetMethod("D&S")
	if err != nil || m.Name() != "D&S" {
		t.Errorf("GetMethod(D&S) = %v, %v", m, err)
	}
}

// TestPaperRunningExample reproduces the §3 worked example (Table 2):
// 6 entity-resolution tasks, 3 workers, truths v*_1 = v*_6 = T. PM must
// converge to the correct truth and rank w3 highest; MV must get the five
// decided tasks right given its random tie-break on t1.
func TestPaperRunningExample(t *testing.T) {
	// Tasks t1..t6 → ids 0..5; workers w1..w3 → 0..2; T=1, F=0.
	answers := []Answer{
		{Task: 0, Worker: 0, Value: 0}, {Task: 1, Worker: 0, Value: 1}, {Task: 2, Worker: 0, Value: 1},
		{Task: 3, Worker: 0, Value: 0}, {Task: 4, Worker: 0, Value: 0}, {Task: 5, Worker: 0, Value: 0},
		{Task: 1, Worker: 1, Value: 0}, {Task: 2, Worker: 1, Value: 0}, {Task: 3, Worker: 1, Value: 1},
		{Task: 4, Worker: 1, Value: 1}, {Task: 5, Worker: 1, Value: 0},
		{Task: 0, Worker: 2, Value: 1}, {Task: 1, Worker: 2, Value: 0}, {Task: 2, Worker: 2, Value: 0},
		{Task: 3, Worker: 2, Value: 0}, {Task: 4, Worker: 2, Value: 0}, {Task: 5, Worker: 2, Value: 1},
	}
	truth := map[int]float64{0: 1, 1: 0, 2: 0, 3: 0, 4: 0, 5: 1}
	d, err := NewDataset("paper-table2", Decision, 2, 6, 3, answers, truth)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Infer("PM", d, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's converged PM result: v*_1 = v*_6 = T, others F.
	want := []float64{1, 0, 0, 0, 0, 1}
	for i, v := range want {
		if res.Truth[i] != v {
			t.Errorf("PM truth[t%d] = %v, want %v", i+1, res.Truth[i], v)
		}
	}
	// w3 must end with the highest quality, w1 the lowest (§3: qualities
	// ≈ 4.9e-15, 0.29, 16.09).
	q := res.WorkerQuality
	if !(q[2] > q[1] && q[1] > q[0]) {
		t.Errorf("PM qualities = %v, want q_w3 > q_w2 > q_w1", q)
	}
	// MV gets t2..t6 right (4 F's + t6 wrong per the paper: MV infers
	// v*_6 = F incorrectly). Check MV matches the paper's analysis.
	mv, err := Infer("MV", d, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if mv.Truth[i] != 0 {
			t.Errorf("MV truth[t%d] = %v, want F", i+1, mv.Truth[i])
		}
	}
	if mv.Truth[5] != 0 {
		t.Errorf("MV truth[t6] = %v; the paper's analysis has MV incorrectly inferring F", mv.Truth[5])
	}
}

// TestMetricsMatchHandComputation checks the Eq. 3–5 implementations on a
// tiny hand-computed instance.
func TestMetricsMatchHandComputation(t *testing.T) {
	inferred := []float64{1, 0, 1, 1}
	truth := map[int]float64{0: 1, 1: 1, 2: 0, 3: 1}
	if got := Accuracy(inferred, truth); got != 0.5 {
		t.Errorf("Accuracy = %v, want 0.5", got)
	}
	// positives: predicted {0,2,3}, true {0,1,3}, tp = {0,3}.
	p, r := PrecisionRecall(inferred, truth)
	if math.Abs(p-2.0/3) > 1e-12 || math.Abs(r-2.0/3) > 1e-12 {
		t.Errorf("P/R = %v/%v, want 2/3 each", p, r)
	}
	if got := F1(inferred, truth); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("F1 = %v, want 2/3", got)
	}
	inf := []float64{1, 3}
	tr := map[int]float64{0: 2, 1: 1}
	if got := MAE(inf, tr); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("MAE = %v, want 1.5", got)
	}
	if got := RMSE(inf, tr); math.Abs(got-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("RMSE = %v, want sqrt(2.5)", got)
	}
}
