// Package glad implements GLAD (Whitehill et al., "Whose vote should count
// more: Optimal integration of labels from labelers of unknown expertise",
// NIPS 2009) as surveyed in §5.3(1) of the paper: the ZC model extended
// with a per-task difficulty parameter.
//
// The probability that worker w answers task i correctly is
//
//	Pr(v^w_i = v*_i | α_w, β_i) = σ(α_w · β_i)
//
// where α_w ∈ ℝ is the worker's ability and β_i > 0 the task's easiness
// (the paper's d_i; higher = easier). EM alternates task posteriors with
// gradient ascent on (α, log β) over the expected complete log-likelihood,
// with standard-normal priors on α-1 and log β as in the original paper.
// Wrong answers spread the residual mass uniformly over the ℓ-1 remaining
// choices.
package glad

import (
	"math"

	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/mathx"
	"truthinference/internal/randx"
)

// Gradient-ascent hyperparameters for the M-step. GLAD's original
// implementation uses conjugate gradient; a few fixed-rate ascent steps
// per EM iteration converge to the same stationary points on the
// benchmark sizes used here and keep the method dependency-free.
const (
	gradSteps    = 10
	learningRate = 0.05
	priorWeight  = 0.01 // weight of the Gaussian priors on α and log β
	clampAbility = 8.0  // |α·β| cap to keep the sigmoid away from saturation
)

// GLAD is the task-difficulty EM method.
type GLAD struct{}

// New returns a GLAD instance.
func New() *GLAD { return &GLAD{} }

// Name implements core.Method.
func (*GLAD) Name() string { return "GLAD" }

// Capabilities implements core.Method (Table 4 row: decision-making and
// single-choice, task difficulty model, worker probability, PGM).
func (*GLAD) Capabilities() core.Capabilities {
	return core.Capabilities{
		TaskTypes:     []dataset.TaskType{dataset.Decision, dataset.SingleChoice},
		TaskModel:     "task difficulty",
		WorkerModel:   "worker probability",
		Technique:     core.PGM,
		Qualification: true,
		Golden:        true,
	}
}

// Infer implements core.Method.
func (m *GLAD) Infer(d *dataset.Dataset, opts core.Options) (*core.Result, error) {
	if err := core.CheckSupport(m, d, opts); err != nil {
		return nil, err
	}
	rng := randx.New(opts.Seed)
	ell := float64(d.NumChoices)

	alpha := make([]float64, d.NumWorkers) // worker ability
	for w := range alpha {
		alpha[w] = 1
		if opts.QualificationAccuracy != nil && !math.IsNaN(opts.QualificationAccuracy[w]) {
			// σ(α·1) = accuracy at unit easiness → α = logit(acc).
			alpha[w] = mathx.Logit(mathx.Clamp(opts.QualificationAccuracy[w], 0.05, 0.95))
		}
		// A warm start resumes the previous epoch's abilities (GLAD's
		// WorkerQuality is α itself); task easiness is re-learned, since
		// the E-step and the β gradient recover it from α in a few
		// iterations.
		alpha[w] = opts.WarmStart.QualityOr(w, alpha[w])
	}
	logBeta := make([]float64, d.NumTasks) // log task easiness, β = e^{logBeta}

	pool := opts.EnginePool()
	c := d.CSR()
	post := core.UniformPosterior(d.NumTasks, d.NumChoices)
	prevAlpha := make([]float64, d.NumWorkers)
	gradAlpha := make([]float64, d.NumWorkers)
	gradLogBeta := make([]float64, d.NumTasks)

	// E-step: posterior over the true label of each task, fanned out over
	// tasks — each goroutine owns disjoint post rows, computed in place
	// (same op sequence as the old scratch-then-copy). σ(α·β) depends on
	// the (worker, task) pair, so it stays per-answer.
	eStep := func(_, ilo, ihi int) {
		for i := ilo; i < ihi; i++ {
			row := post[i]
			for k := range row {
				row[k] = 0
			}
			beta := math.Exp(logBeta[i])
			for p := c.TaskOff[i]; p < c.TaskOff[i+1]; p++ {
				pc := correctProb(alpha[c.TaskWorker[p]], beta)
				logCorrect := math.Log(pc)
				logWrong := math.Log((1 - pc) / (ell - 1))
				lab := int(c.TaskLabel[p])
				for k := range row {
					if lab == k {
						row[k] += logCorrect
					} else {
						row[k] += logWrong
					}
				}
			}
			mathx.NormalizeLog(row)
		}
	}
	// M-step gradient passes: the single answers pass of the textbook
	// formulation is split into a per-worker pass (∂Q/∂α) and a per-task
	// pass (∂Q/∂ log β): each gradient entry is then owned by exactly one
	// loop index, which lets both passes fan out with no shared
	// accumulators and a summation order (the ascending answer order of
	// the CSR rows) that is independent of the chunk layout.
	alphaStep := func(_, wlo, whi int) {
		for w := wlo; w < whi; w++ {
			g := -priorWeight * (alpha[w] - 1) // N(1,1) prior on α
			for p := c.WorkerOff[w]; p < c.WorkerOff[w+1]; p++ {
				t := c.WorkerTask[p]
				beta := math.Exp(logBeta[t])
				s := correctProb(alpha[w], beta)
				// pCorrect = posterior probability the worker's
				// answer equals the truth; ∂Q/∂(αβ) = pCorrect - σ(αβ).
				g += (post[t][c.WorkerLabel[p]] - s) * beta
			}
			gradAlpha[w] = g
		}
	}
	betaStep := func(_, ilo, ihi int) {
		for i := ilo; i < ihi; i++ {
			g := -priorWeight * logBeta[i] // N(0,1) prior on log β
			beta := math.Exp(logBeta[i])
			for p := c.TaskOff[i]; p < c.TaskOff[i+1]; p++ {
				w := c.TaskWorker[p]
				s := correctProb(alpha[w], beta)
				g += (post[i][c.TaskLabel[p]] - s) * alpha[w] * beta
			}
			gradLogBeta[i] = g
		}
	}

	var iter int
	converged := false
	for iter = 1; iter <= opts.MaxIter(); iter++ {
		pool.ForSlot(d.NumTasks, eStep)
		core.PinGolden(post, opts.Golden)

		// M-step: gradient ascent on the expected complete
		// log-likelihood Q(α, log β).
		copy(prevAlpha, alpha)
		for step := 0; step < gradSteps; step++ {
			pool.ForSlot(d.NumWorkers, alphaStep)
			pool.ForSlot(d.NumTasks, betaStep)
			for w := range alpha {
				alpha[w] += learningRate * gradAlpha[w]
			}
			for i := range logBeta {
				logBeta[i] = mathx.Clamp(logBeta[i]+learningRate*gradLogBeta[i], -5, 5)
			}
		}

		if core.MaxAbsDiff(alpha, prevAlpha) < opts.Tol() {
			converged = true
			break
		}
	}
	if iter > opts.MaxIter() {
		iter = opts.MaxIter()
	}

	truth := core.PosteriorLabels(post, opts.Golden, rng.Intn)
	return &core.Result{
		Truth:         truth,
		Posterior:     post,
		WorkerQuality: append([]float64(nil), alpha...),
		Iterations:    iter,
		Converged:     converged,
	}, nil
}

// correctProb returns σ(α·β) clamped away from 0 and 1 so that logs stay
// finite; with ℓ choices the wrong-answer probability (1-σ)/(ℓ-1) then
// also stays positive.
func correctProb(alpha, beta float64) float64 {
	x := mathx.Clamp(alpha*beta, -clampAbility, clampAbility)
	return mathx.Logistic(x)
}
