package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	ti "truthinference"
	"truthinference/internal/api"
	"truthinference/internal/dataset"
	"truthinference/internal/stream"
	"truthinference/internal/tenant"
)

// The freshness workload: one durable D&S project with auto-refresh on
// (the daemon default) serving an S_Rel-shaped crowd. Set-up preloads
// half the answers; the rest arrive open-loop at a fixed rate in small
// batches on one connection while a second connection polls a task of
// each acknowledged batch until the served posterior reflects it.
// Epochs — snapshot, index build, EM iterations, publish — do nearly all
// the work; ingest is lightly loaded.
const (
	freshScale   = 0.5
	freshRate    = 4000.0 // answers per second
	freshBatch   = 40     // answers per request
	freshPoll    = 2 * time.Millisecond
	freshTimeout = 30 * time.Second // longest a batch may take to show after the last ack
)

type freshInput struct {
	d       *dataset.Dataset
	pre     []dataset.Answer
	preBody []byte
	batches [][]dataset.Answer
	bodies  [][]byte
}

// genFresh generates the crowd, shuffles its answers into arrival
// order, and encodes the preload and the streamed batches.
func genFresh(seed int64) (*freshInput, error) {
	d := ti.SimulateDatasetScaled(ti.SRel, seed, freshScale)
	all := shuffled(d.Answers, seed)
	half := len(all) / 2
	in := &freshInput{d: d, pre: all[:half]}
	var err error
	if in.preBody, err = encodePreload(d.NumTasks, d.NumWorkers, in.pre); err != nil {
		return nil, err
	}
	for lo := half; lo < len(all); lo += freshBatch {
		b := all[lo:min(lo+freshBatch, len(all))]
		body, err := stream.EncodeBatchStream([]stream.Batch{{Answers: b}})
		if err != nil {
			return nil, err
		}
		in.batches = append(in.batches, b)
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

// encodePreload encodes a board declaration plus answers as one batch
// stream of frameAnswers-sized frames.
func encodePreload(tasks, workers int, answers []dataset.Answer) ([]byte, error) {
	frames := []stream.Batch{{NumTasks: tasks, NumWorkers: workers}}
	for lo := 0; lo < len(answers); lo += frameAnswers {
		frames = append(frames, stream.Batch{Answers: answers[lo:min(lo+frameAnswers, len(answers))]})
	}
	return stream.EncodeBatchStream(frames)
}

// freshConfig runs epochs on one worker, leaving the other cores to
// ingest and polling: with every core in the epoch, fresh_p50_ms spread
// 0.20 (IQR/median) over five seeds, against 0.10 with one worker.
func freshConfig(seed int64) tenant.Config {
	return tenant.Config{Method: "D&S", TaskType: "single-choice", Choices: 4, Seed: seed, Parallelism: 1}
}

// preload uploads a set-up body and waits for the epoch covering it.
func preload(st *stack, body []byte) error {
	c := newClient()
	var ack api.BatchIngestResponse
	code, err := call(c, http.MethodPost, st.base+projectPath+"/ingest-batch", "", "application/octet-stream", body, &ack)
	if err != nil {
		return err
	}
	if code != http.StatusOK || !ack.Durable {
		return fmt.Errorf("preload: status %d, durable %v", code, ack.Durable)
	}
	stats, err := refresh(c, st.base)
	if err != nil {
		return err
	}
	if stats.ResultVersion != stats.StoreVersion {
		return fmt.Errorf("preload: result version %d behind store %d", stats.ResultVersion, stats.StoreVersion)
	}
	return nil
}

// batchObs is what happened to one streamed batch.
type batchObs struct {
	id                      string
	due, send, ack, visible time.Time
	version                 uint64
	acked, failed, seen     bool
}

func runFreshness(o options) (*result, error) {
	res := &result{workload: "freshness", headlineName: "fresh"}
	var acks Timings
	var accs, baselines []float64
	var layerRuns []map[string]float64
	start := time.Now()
	for trial := 0; trial < o.minTrials || time.Since(start) < o.budget || len(res.setup) < 3; trial++ {
		res.speed.boundary(trial == 0)
		seed := o.seed*1000 + int64(trial)
		trialTr := o.trialTracer()
		resetPeakRSS()
		t0 := time.Now()
		in, err := genFresh(seed)
		if err != nil {
			return nil, err
		}
		st, err := newStack(freshConfig(seed), trialTr, o.assembled)
		if err != nil {
			return nil, err
		}
		if err := preload(st, in.preBody); err != nil {
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
		obs, polls, lag := streamFresh(st, in, trial)
		res.rss = append(res.rss, peakRSSMB())
		res.genLag.Merge(&lag)
		res.attempted += len(obs)
		acked := append([]dataset.Answer(nil), in.pre...)
		for i, b := range obs {
			switch {
			case b.acked && b.seen:
				res.headline.Add(b.visible.Sub(b.due))
				acks.Add(b.ack.Sub(b.due))
			case b.acked:
				res.headline.Fail()
				acks.Add(b.ack.Sub(b.due))
				res.failed++
			default:
				res.headline.Fail()
				acks.Fail()
				res.failed++
			}
			if b.acked {
				acked = append(acked, in.batches[i]...)
			}
		}
		var lm map[string]float64
		if trialTr != nil {
			if lm, err = freshLayers(st, in, obs, polls, before, streamStart); err != nil {
				st.teardown()
				return nil, err
			}
		}
		acc, checks := checkFresh(st, in, acked)
		accs = append(accs, acc)
		baselines = append(baselines, majorityShare(in.d.Truth))
		res.checks = append(res.checks, checks...)
		st.teardown()
		if trialTr != nil {
			layerRuns = append(layerRuns, lm)
			o.tracer.Absorb(trialTr)
		}
	}
	res.speed.boundary(true)
	res.accuracy = median(accs)
	ackName, ackTail := acks.Tail()
	res.printed = []metric{
		{"ack_p50_ms", "ms", acks.Median(), fmt.Sprintf("n=%d, from due time", acks.N())},
		{"ack_" + ackName + "_ms", "ms", ackTail, fmt.Sprintf("n=%d, from due time", acks.N())},
		{"majority_label_accuracy", "fraction", median(baselines), "always serving the most common true label"},
	}
	res.layer = medianLayers(layerRuns)
	return res, nil
}

// pollObs is one successful visibility poll.
type pollObs struct {
	id   string
	took time.Duration
}

// streamFresh sends the batches open-loop on one connection while a
// second connection polls for each acknowledged batch's visibility.
func streamFresh(st *stack, in *freshInput, trial int) ([]batchObs, []pollObs, Timings) {
	n := len(in.bodies)
	obs := make([]batchObs, n)
	var mu sync.Mutex
	var ingestEnd time.Time // zero until every batch was sent (guarded by mu)
	var polls []pollObs
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		client := newClient()
		next := 0
		for {
			time.Sleep(freshPoll)
			mu.Lock()
			for next < n && (obs[next].seen || obs[next].failed) {
				next++
			}
			end := ingestEnd
			pending := next < n && obs[next].acked
			task := 0
			if pending {
				task = in.batches[next][0].Task
			}
			mu.Unlock()
			if !end.IsZero() && (next >= n || time.Since(end) > freshTimeout) {
				return
			}
			if !pending {
				continue
			}
			var resp struct {
				Version uint64 `json:"version"`
			}
			id := fmt.Sprintf("poll-%d-%d", trial, len(polls))
			t0 := time.Now()
			code, err := call(client, http.MethodGet, fmt.Sprintf("%s%s/truth/%d", st.base, projectPath, task), id, "", nil, &resp)
			now := time.Now()
			if err != nil || code != http.StatusOK {
				warnf("poll task %d: status %d, err %v", task, code, err)
				continue
			}
			polls = append(polls, pollObs{id, now.Sub(t0)})
			mu.Lock()
			for j := next; j < n && (obs[j].acked || obs[j].failed); j++ {
				if obs[j].acked && !obs[j].seen && obs[j].version <= resp.Version {
					obs[j].seen, obs[j].visible = true, now
				}
			}
			mu.Unlock()
		}
	}()
	client := newClient()
	lag := openLoop(n, freshRate/freshBatch, func(i int, due time.Time) {
		id := fmt.Sprintf("fresh-%d-%d", trial, i)
		var ack api.BatchIngestResponse
		send := time.Now()
		code, err := call(client, http.MethodPost, st.base+projectPath+"/ingest-batch", id, "application/octet-stream", in.bodies[i], &ack)
		b := batchObs{id: id, due: due, send: send, ack: time.Now(), version: ack.Version}
		b.acked = err == nil && code == http.StatusOK && ack.Durable
		b.failed = !b.acked
		if b.failed {
			warnf("fresh batch %d: status %d, err %v", i, code, err)
		}
		mu.Lock()
		obs[i] = b
		mu.Unlock()
	})
	mu.Lock()
	ingestEnd = time.Now()
	mu.Unlock()
	<-pollDone
	return obs, polls, lag
}

// checkFresh verifies that every acknowledged answer is in the store and
// that a final refresh leaves the served result at the store version,
// and scores the served truths.
func checkFresh(st *stack, in *freshInput, acked []dataset.Answer) (float64, []check) {
	stats, err := refresh(newClient(), st.base)
	if err != nil {
		return 0, []check{{"freshness: final refresh", false, err.Error()}}
	}
	c1 := check{"freshness: result_version = store_version after final refresh",
		stats.ResultVersion == stats.StoreVersion, fmt.Sprintf("%d / %d", stats.ResultVersion, stats.StoreVersion)}
	svc, store := st.service()
	snap, _ := store.Snapshot()
	c2 := check{"freshness: every acked answer is in the store", sameAnswers(snap.Answers, acked), fmt.Sprintf("%d stored, %d acked", len(snap.Answers), len(acked))}
	truth, _, err := svc.Truths()
	if err != nil {
		return 0, []check{c1, c2, {"freshness: served truths", false, err.Error()}}
	}
	return ti.Accuracy(truth, in.d.Truth), []check{c1, c2}
}

// majorityShare is the accuracy of answering every task with the most
// common true label: the score a degenerate inference reaches for free.
func majorityShare(truth map[int]float64) float64 {
	count := map[float64]int{}
	most := 0
	for _, v := range truth {
		count[v]++
		most = max(most, count[v])
	}
	return float64(most) / float64(max(len(truth), 1))
}

// sameAnswers compares two answer multisets.
func sameAnswers(a, b []dataset.Answer) bool {
	if len(a) != len(b) {
		return false
	}
	x := append([]dataset.Answer(nil), a...)
	y := append([]dataset.Answer(nil), b...)
	sortAnswers(x)
	sortAnswers(y)
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// freshLayers links each batch's ingest, queueing, epoch and flush spans
// under its freshness span and derives the per-layer metrics.
func freshLayers(st *stack, in *freshInput, obs []batchObs, polls []pollObs, before Scrape, streamStart time.Time) (map[string]float64, error) {
	after, err := scrapeMetrics(newClient(), st.base)
	if err != nil {
		return nil, err
	}
	d := Diff(before, after)
	l, tr := st.layers, st.tr
	infers := epochCalls(l, streamStart)
	spans := tr.Spans()
	flushes := tr.Named("wal.flush")
	var queue, flush Timings
	var roots []int
	cum := len(in.pre)
	for i, b := range obs {
		cum += len(in.batches[i])
		if !b.acked || !b.seen {
			continue
		}
		root := tr.Add(b.id, "fresh", b.due, b.visible, -1)
		roots = append(roots, root)
		ackSpan := tr.Add(b.id, "ack", b.send, b.ack, root)
		linkServer(l, b.id, ackSpan, b.version, 1)
		// The covering epoch is the first whose snapshot holds this batch.
		k := sort.Search(len(infers), func(k int) bool { return infers[k].answers >= cum })
		if k == len(infers) {
			continue
		}
		inf := infers[k]
		q := max(inf.start.Sub(b.ack), 0)
		queue.Add(q)
		if q > 0 {
			tr.Add(b.id, "epoch.queue", b.ack, inf.start, root)
		}
		tr.Add(b.id, "epoch.iterate", inf.start, inf.end, root)
		for _, f := range flushes {
			fs := spans[f]
			if fs.Start >= tr.ns(inf.end) {
				tr.Add(b.id, "wal.flush", tr.epoch.Add(time.Duration(fs.Start)), tr.epoch.Add(time.Duration(fs.End)), root)
				break
			}
		}
	}
	for _, f := range flushes {
		if spans[f].Start >= tr.ns(streamStart) {
			flush.Add(spans[f].Dur())
		}
	}
	m := epochLayers(infers, d, "freshness")
	m["epoch.queue_ms_p50.freshness"] = queue.Median()
	m["wal.flush_ms_p50"] = flush.Median()
	m["trace.accounted_frac.freshness"] = accountedShare(tr.Spans(), roots)
	var pollGaps Timings
	for _, p := range polls {
		l.clientGap(&pollGaps, p.id, p.took)
	}
	httpLayers(m, d, "truth/{task}", "truth", &pollGaps)

	// Calls the service makes directly, timed on the run's final store.
	_, store := st.service()
	var snapT, indexT []float64
	var alloc uint64
	var ms runtime.MemStats
	for r := 0; r < 5; r++ {
		runtime.ReadMemStats(&ms)
		a0 := ms.TotalAlloc
		t0 := time.Now()
		snap, _ := store.Snapshot()
		snapT = append(snapT, float64(time.Since(t0))/1e6)
		runtime.ReadMemStats(&ms)
		alloc += ms.TotalAlloc - a0
		t0 = time.Now()
		dataset.BuildCSR(snap)
		indexT = append(indexT, float64(time.Since(t0))/1e6)
	}
	m["stream.snapshot_ms"] = median(snapT)
	m["stream.snapshot_alloc_mb"] = float64(alloc) / 5 / (1 << 20)
	m["dataset.index_ms"] = median(indexT)
	return m, nil
}

// linkServer parents a request's http.server span under parent, and the
// WAL record and fsync-wait spans of its store versions under that.
func linkServer(l *layers, id string, parent int, version uint64, batches int) {
	srv := l.server(id)
	if srv < 0 {
		return
	}
	l.tr.SetParent(srv, parent)
	l.mu.Lock()
	defer l.mu.Unlock()
	for v := version - uint64(batches) + 1; v <= version; v++ {
		if i, ok := l.records[v]; ok {
			l.tr.SetParent(i, srv)
		}
	}
	if i, ok := l.syncTos[version]; ok {
		l.tr.SetParent(i, srv)
	}
}

// epochCalls returns the epochs that started after since, by start.
func epochCalls(l *layers, since time.Time) []inferCall {
	var out []inferCall
	for _, c := range l.inferCalls() {
		if !c.start.Before(since) {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].start.Before(out[b].start) })
	return out
}

// epochLayers derives the epoch metrics of one serving workload.
func epochLayers(infers []inferCall, d Scrape, workload string) map[string]float64 {
	var iterate Timings
	var iters, unconverged float64
	for _, c := range infers {
		iterate.Add(c.end.Sub(c.start))
		iters += float64(c.iterations)
		if !c.converged {
			unconverged++
		}
	}
	n := max(float64(len(infers)), 1)
	epochs := d.Sum("truthserve_epochs_total", map[string]string{"tenant": projectID})
	_, tail := iterate.Tail()
	return map[string]float64{
		"epoch.count." + workload:            float64(len(infers)),
		"epoch.iterate_ms_p50." + workload:   iterate.Median(),
		"epoch.iterate_ms_tail." + workload:  tail,
		"epoch.iterations_mean." + workload:  iters / n,
		"epoch.unconverged_frac." + workload: unconverged / n,
		"epoch.warm_start_frac." + workload:  d.Sum("truthserve_warm_start_hits_total", map[string]string{"tenant": projectID}) / max(epochs, 1),
	}
}
