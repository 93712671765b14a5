package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"truthinference/internal/api"
	"truthinference/internal/assign"
	"truthinference/internal/dataset"
	"truthinference/internal/tenant"
)

// The crowd workload: one D&S project with uncertainty assignment on a
// decision board. Simulated workers arrive open-loop on one connection;
// each leases a task, answers it from its hidden accuracy, and completes
// the lease. A second connection issues the canned query views
// open-loop. Every completion is a single-answer write that schedules a
// small warm epoch, beside pinned store scans and ledger re-syncs.
const (
	crowdTasks      = 10000
	crowdWorkers    = 200
	crowdRedundancy = 5
	crowdPreload    = 2 // answers per task loaded at set-up
	// crowdRate keeps the single arrival connection well below
	// saturation: at 300 arrivals/s a lease plus its completion took most
	// of the 3.3 ms gap on a 2-CPU machine, and lease latency, queueing
	// from the due time, swung 2.1–6.5 ms with the machine's speed.
	crowdRate  = 150.0
	queryRate  = 20.0
	crowdTrial = 6 * time.Second
)

var crowdViews = []string{"disagreement", "worker-quality-drop", "spend-vs-budget", "worker-suspect"}

// crowdModel is the benchmark's own seeded crowd: a hidden truth per
// task and a hidden accuracy per worker.
type crowdModel struct {
	truth    []float64
	accuracy []float64
	rng      *rand.Rand
	preload  []dataset.Answer
	arrivals []int // worker of each arrival, in order
}

func genCrowd(seed int64) *crowdModel {
	rng := rand.New(rand.NewSource(seed))
	m := &crowdModel{truth: make([]float64, crowdTasks), accuracy: make([]float64, crowdWorkers)}
	for t := range m.truth {
		m.truth[t] = float64(rng.Intn(2))
	}
	for w := range m.accuracy {
		if rng.Float64() < 0.15 {
			m.accuracy[w] = 0.5 // spammer
		} else {
			m.accuracy[w] = 0.6 + 0.35*rng.Float64()
		}
	}
	for t := 0; t < crowdTasks; t++ {
		for _, w := range rng.Perm(crowdWorkers)[:crowdPreload] {
			m.preload = append(m.preload, dataset.Answer{Task: t, Worker: w, Value: m.answer(rng, t, w)})
		}
	}
	n := int(crowdRate*crowdTrial.Seconds()) + 1
	m.arrivals = make([]int, n)
	for i := range m.arrivals {
		m.arrivals[i] = rng.Intn(crowdWorkers)
	}
	m.rng = rng
	return m
}

// answer draws worker w's label for task t.
func (m *crowdModel) answer(rng *rand.Rand, t, w int) float64 {
	if rng.Float64() < m.accuracy[w] {
		return m.truth[t]
	}
	return 1 - m.truth[t]
}

// crowdConfig runs epochs on one worker: back-to-back epochs on every
// core left lease latency at the mercy of the scheduler (IQR/median
// 1.08 over five seeds, against 0.06 with one epoch worker).
func crowdConfig(seed int64) tenant.Config {
	return tenant.Config{Method: "D&S", TaskType: "decision", Seed: seed, Parallelism: 1,
		Assign: &assign.Spec{Policy: "uncertainty", Redundancy: crowdRedundancy}}
}

// arrivalObs is what happened to one worker arrival.
type arrivalObs struct {
	leaseID, completeID          string
	due, send, leased, completed time.Time
	task                         int
	value                        float64
	leaseOK, completeOK          bool
}

// queryObs is one canned-view query.
type queryObs struct {
	id             string
	due, send, end time.Time
	ok             bool
}

func runCrowd(o options) (*result, error) {
	res := &result{workload: "crowd", headlineName: "lease"}
	var queries, completes Timings
	var accs []float64
	var layerRuns []map[string]float64
	start := time.Now()
	for trial := 0; trial < o.minTrials || time.Since(start) < o.budget || len(res.setup) < 3; trial++ {
		res.speed.boundary(trial == 0)
		seed := o.seed*1000 + int64(trial)
		trialTr := o.trialTracer()
		resetPeakRSS()
		t0 := time.Now()
		model := genCrowd(seed)
		st, err := newStack(crowdConfig(seed), trialTr, o.assembled)
		if err != nil {
			return nil, err
		}
		body, err := encodePreload(crowdTasks, crowdWorkers, model.preload)
		if err == nil {
			err = preload(st, body)
		}
		if err != nil {
			st.teardown()
			return nil, err
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
		if trial >= o.minTrials && time.Since(start) >= o.budget {
			st.teardown() // a set-up-only repetition, for the set-up median
			continue
		}
		var before Scrape
		if trialTr != nil {
			if before, err = scrapeMetrics(newClient(), st.base); err != nil {
				st.teardown()
				return nil, err
			}
		}
		streamStart := time.Now()
		arrivals, qs, lag := streamCrowd(st, model, trial)
		res.rss = append(res.rss, peakRSSMB())
		res.genLag.Merge(&lag)
		var done []dataset.Answer
		for i, a := range arrivals {
			res.attempted++
			if !a.leaseOK {
				res.headline.Fail()
				res.failed++
				continue
			}
			res.headline.Add(a.leased.Sub(a.due))
			if !a.completeOK {
				completes.Fail()
				res.failed++
				continue
			}
			completes.Add(a.completed.Sub(a.leased))
			done = append(done, dataset.Answer{Task: a.task, Worker: model.arrivals[i], Value: a.value})
		}
		for _, q := range qs {
			res.attempted++
			if q.ok {
				queries.Add(q.end.Sub(q.due))
			} else {
				queries.Fail()
				res.failed++
			}
		}
		var lm map[string]float64
		if trialTr != nil {
			if lm, err = crowdLayers(st, arrivals, qs, len(model.preload), before, streamStart); err != nil {
				st.teardown()
				return nil, err
			}
		}
		acc, checks := checkCrowd(st, model, done)
		accs = append(accs, acc)
		res.checks = append(res.checks, checks...)
		st.teardown()
		if trialTr != nil {
			layerRuns = append(layerRuns, lm)
			o.tracer.Absorb(trialTr)
		}
	}
	res.speed.boundary(true)
	res.accuracy = median(accs)
	qName, qTail := queries.Tail()
	res.printed = []metric{
		{"query_p50_ms", "ms", queries.Median(), fmt.Sprintf("n=%d, from due time", queries.N())},
		{"query_" + qName + "_ms", "ms", qTail, fmt.Sprintf("n=%d, from due time", queries.N())},
		{"complete_p50_ms", "ms", completes.Median(), fmt.Sprintf("n=%d", completes.N())},
	}
	res.layer = medianLayers(layerRuns)
	return res, nil
}

// streamCrowd runs the arrival lane and the query lane concurrently.
func streamCrowd(st *stack, m *crowdModel, trial int) ([]arrivalObs, []queryObs, Timings) {
	arrivals := make([]arrivalObs, len(m.arrivals))
	qs := make([]queryObs, int(queryRate*crowdTrial.Seconds()))
	var qLag Timings
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := newClient()
		qLag = openLoop(len(qs), queryRate, func(i int, due time.Time) {
			body, _ := json.Marshal(api.QueryRequest{View: crowdViews[i%len(crowdViews)]}) // cannot fail
			q := queryObs{id: fmt.Sprintf("query-%d-%d", trial, i), due: due, send: time.Now()}
			code, err := call(client, http.MethodPost, st.base+projectPath+"/query", q.id, "application/json", body, nil)
			q.end, q.ok = time.Now(), err == nil && code == http.StatusOK
			if !q.ok {
				warnf("query %d: status %d, err %v", i, code, err)
			}
			qs[i] = q
		})
	}()
	client := newClient()
	lag := openLoop(len(arrivals), crowdRate, func(i int, due time.Time) {
		w := m.arrivals[i]
		a := arrivalObs{leaseID: fmt.Sprintf("lease-%d-%d", trial, i), completeID: fmt.Sprintf("complete-%d-%d", trial, i), due: due, send: time.Now()}
		var lease assign.Lease
		code, err := call(client, http.MethodGet, fmt.Sprintf("%s%s/assign?worker=%d", st.base, projectPath, w), a.leaseID, "", nil, &lease)
		a.leased = time.Now()
		a.leaseOK = err == nil && code == http.StatusOK
		if !a.leaseOK {
			warnf("assign worker %d: status %d, err %v", w, code, err)
			arrivals[i] = a
			return
		}
		a.task, a.value = lease.Task, m.answer(m.rng, lease.Task, w)
		body, _ := json.Marshal(api.CompleteRequest{LeaseID: lease.ID, Worker: w, Value: a.value}) // cannot fail
		var done api.CompleteResponse
		code, err = call(client, http.MethodPost, st.base+projectPath+"/complete", a.completeID, "application/json", body, &done)
		a.completed = time.Now()
		a.completeOK = err == nil && code == http.StatusOK && done.LeaseID == lease.ID
		if !a.completeOK {
			warnf("complete lease %d: status %d, err %v", lease.ID, code, err)
		}
		arrivals[i] = a
	})
	wg.Wait()
	lag.Merge(&qLag)
	return arrivals, qs, lag
}

// checkCrowd verifies that the store holds the preload plus exactly the
// completed leases and that no task exceeds its redundancy cap, and
// scores the served truths after a final refresh.
func checkCrowd(st *stack, m *crowdModel, done []dataset.Answer) (float64, []check) {
	if _, err := refresh(newClient(), st.base); err != nil {
		return 0, []check{{"crowd: final refresh", false, err.Error()}}
	}
	svc, store := st.service()
	snap, _ := store.Snapshot()
	want := append(append([]dataset.Answer(nil), m.preload...), done...)
	c1 := check{"crowd: store answers = preload + completed leases", sameAnswers(snap.Answers, want),
		fmt.Sprintf("%d stored, %d preloaded + %d completed", len(snap.Answers), len(m.preload), len(done))}
	over := 0
	for _, n := range store.AnswerCounts() {
		if n > crowdRedundancy {
			over++
		}
	}
	c2 := check{fmt.Sprintf("crowd: no task above redundancy %d", crowdRedundancy), over == 0, fmt.Sprintf("%d tasks over", over)}
	truth, _, err := svc.Truths()
	if err != nil {
		return 0, []check{c1, c2, {"crowd: served truths", false, err.Error()}}
	}
	correct := 0
	for t, v := range m.truth {
		if t < len(truth) && truth[t] == v {
			correct++
		}
	}
	return float64(correct) / float64(len(m.truth)), []check{c1, c2}
}

// crowdLayers links the assignment, completion and query spans to their
// requests and derives the crowd per-layer metrics.
func crowdLayers(st *stack, arrivals []arrivalObs, qs []queryObs, preloaded int, before Scrape, streamStart time.Time) (map[string]float64, error) {
	after, err := scrapeMetrics(newClient(), st.base)
	if err != nil {
		return nil, err
	}
	d := Diff(before, after)
	l, tr := st.layers, st.tr
	var roots, assignSrv, completeSrv []int
	var leaseGaps, completeGaps Timings
	for _, a := range arrivals {
		if !a.leaseOK {
			continue
		}
		root := tr.Add(a.leaseID, "lease", a.due, a.leased, -1)
		roots = append(roots, root)
		l.clientGap(&leaseGaps, a.leaseID, a.leased.Sub(a.send))
		if srv := l.server(a.leaseID); srv >= 0 {
			tr.SetParent(srv, root)
			assignSrv = append(assignSrv, srv)
		}
		if a.completeOK {
			croot := tr.Add(a.completeID, "complete", a.leased, a.completed, -1)
			l.clientGap(&completeGaps, a.completeID, a.completed.Sub(a.leased))
			if srv := l.server(a.completeID); srv >= 0 {
				tr.SetParent(srv, croot)
				completeSrv = append(completeSrv, srv)
			}
		}
	}
	var querySrv []int
	var queryGaps Timings
	for _, q := range qs {
		if !q.ok {
			continue
		}
		root := tr.Add(q.id, "query", q.due, q.end, -1)
		l.clientGap(&queryGaps, q.id, q.end.Sub(q.send))
		if srv := l.server(q.id); srv >= 0 {
			tr.SetParent(srv, root)
			querySrv = append(querySrv, srv)
		}
	}
	var source, deliver, qsource Timings
	for _, v := range l.adopt("assign.source", assignSrv) {
		source.Add(v)
	}
	for _, v := range l.adopt("assign.deliver", completeSrv) {
		deliver.Add(v)
	}
	for _, v := range l.adopt("query.source", querySrv) {
		qsource.Add(v)
	}
	m := epochLayers(epochCalls(l, streamStart), d, "crowd")
	m["epoch.queue_ms_p50.crowd"] = crowdQueue(l, arrivals, preloaded, streamStart)
	m["assign.deliver_us_p50"] = deliver.Median() * 1000
	m["assign.source_ms_p50"] = source.Median()
	issued := d.Sum("truthserve_assign_leases_issued_total", map[string]string{"tenant": projectID})
	m["assign.completed_frac"] = d.Sum("truthserve_assign_leases_completed_total", map[string]string{"tenant": projectID}) / max(issued, 1)
	m["query.source_ms_p50"] = qsource.Median()
	m["query.rows_scanned_per_returned"] = d.Sum("truthserve_query_rows_scanned_total", map[string]string{"tenant": projectID}) /
		max(d.Sum("truthserve_query_rows_returned_total", map[string]string{"tenant": projectID}), 1)
	m["trace.accounted_frac.crowd"] = accountedShare(tr.Spans(), roots)
	httpLayers(m, d, "assign", "assign", &leaseGaps)
	httpLayers(m, d, "complete", "complete", &completeGaps)
	httpLayers(m, d, "query", "query", &queryGaps)
	return m, nil
}

// crowdQueue is the median wait from a completion's ack until the start
// of the first epoch whose snapshot holds it (0 when that epoch started
// before the ack reached the client).
func crowdQueue(l *layers, arrivals []arrivalObs, preloaded int, since time.Time) float64 {
	infers := epochCalls(l, since)
	var q Timings
	cum := preloaded
	for _, a := range arrivals {
		if !a.completeOK {
			continue
		}
		// Completions commit in order on one lane: the k-th one is the
		// store's (preloaded+k)-th answer.
		cum++
		k := sort.Search(len(infers), func(k int) bool { return infers[k].answers >= cum })
		if k < len(infers) {
			q.Add(max(infers[k].start.Sub(a.completed), 0))
		}
	}
	return q.Median()
}
