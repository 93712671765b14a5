package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	ti "truthinference"
	"truthinference/internal/api"
	"truthinference/internal/dataset"
	"truthinference/internal/stream"
	"truthinference/internal/stream/wal"
	"truthinference/internal/tenant"
)

// The ingest workload: bulk uploaders pushing a fixed answer count of an
// S_Rel-shaped crowd into one durable MV project through the batched
// binary endpoint, ingestClients closed-loop clients each waiting for
// its durable ack before sending again. MV folds incrementally, so no epoch
// runs: the time goes to the HTTP front, the codec, store append, WAL
// record and group-commit fsync.
const (
	ingestAnswers    = 500_000 // answers per trial
	frameAnswers     = 500     // answers per batch frame
	framesPerRequest = 4       // frames per POST …/ingest-batch
)

// ingestClients is the number of closed-loop uploaders: one per core
// but one, which leaves a core to the server's handlers and group
// commit, so an ack times the ingest path rather than a run queue. On
// two cores, three alternating 6-second runs each gave ack p50 1.13–1.17
// ms with one client and 1.59–1.84 ms with two.
func ingestClients(nproc int) int { return max(nproc-1, 1) }

// ingestInput is one trial's generated upload.
type ingestInput struct {
	answers []dataset.Answer
	truth   map[int]float64
	bodies  [][]byte // one encoded batch stream per request
}

// genIngest builds ingestAnswers answers by tiling a full-scale S_Rel
// crowd over fresh task ids, and encodes them into request bodies.
func genIngest(seed int64) (*ingestInput, error) {
	base := ti.SimulateDataset(ti.SRel, seed)
	in := &ingestInput{answers: make([]dataset.Answer, 0, ingestAnswers), truth: map[int]float64{}}
	for off := 0; len(in.answers) < ingestAnswers; off += base.NumTasks {
		for _, a := range base.Answers {
			if len(in.answers) == ingestAnswers {
				break
			}
			in.answers = append(in.answers, dataset.Answer{Task: a.Task + off, Worker: a.Worker, Value: a.Value})
		}
		if len(in.answers) < ingestAnswers {
			// Accuracy is scored on whole copies only: a truncated copy's
			// tasks miss answers no method could recover.
			for t, v := range base.Truth {
				in.truth[t+off] = v
			}
		}
	}
	per := frameAnswers * framesPerRequest
	for lo := 0; lo < len(in.answers); lo += per {
		var frames []stream.Batch
		for f := lo; f < lo+per && f < len(in.answers); f += frameAnswers {
			frames = append(frames, stream.Batch{Answers: in.answers[f:min(f+frameAnswers, len(in.answers))]})
		}
		body, err := stream.EncodeBatchStream(frames)
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

func ingestConfig(seed int64) tenant.Config {
	return tenant.Config{Method: "MV", TaskType: "single-choice", Choices: 4, Seed: seed}
}

// ackRecord is one acknowledged upload request.
type ackRecord struct {
	id         string
	send, recv time.Time
	version    uint64
	batches    int
}

// ingestRun is what one trial measured.
type ingestRun struct {
	setup   time.Duration
	acks    Timings
	wall    time.Duration
	acked   int
	failed  int
	records []ackRecord
}

func runIngest(o options) (*result, error) {
	res := &result{workload: "ingest", headlineName: "ack"}
	var rates, recovers, accs []float64
	var layerRuns []map[string]float64
	start := time.Now()
	for trial := 0; trial < o.minTrials || time.Since(start) < o.budget; trial++ {
		res.speed.boundary(trial == 0)
		seed := o.seed*1000 + int64(trial)
		resetPeakRSS()
		t0 := time.Now()
		in, err := genIngest(seed)
		if err != nil {
			return nil, err
		}
		trialTr := o.trialTracer()
		st, err := newStack(ingestConfig(seed), trialTr, o.assembled)
		if err != nil {
			return nil, err
		}
		run := &ingestRun{setup: time.Since(t0)}
		var before Scrape
		if trialTr != nil {
			if before, err = scrapeMetrics(newClient(), st.base); err != nil {
				st.teardown()
				return nil, err
			}
		}
		driveIngest(st, in, ingestClients(o.nproc), trial, trialTr != nil, run)
		res.rss = append(res.rss, peakRSSMB())
		res.setup = append(res.setup, run.setup.Seconds())
		res.attempted += len(in.bodies)
		res.failed += run.failed
		res.headline.Merge(&run.acks)
		rates = append(rates, float64(run.acked)/run.wall.Seconds())

		if st.reg == nil {
			// A hand-assembled project has no registry to recover it
			// from: its served truths are checked in place.
			svc, store := st.service()
			acc, c := checkIngest(svc, store, in, seed)
			accs = append(accs, acc)
			res.checks = append(res.checks, c)
			var lm map[string]float64
			if trialTr != nil {
				lm, err = ingestLayers(st, in, run, before)
			}
			st.teardown()
			if err != nil {
				return nil, err
			}
			if trialTr != nil {
				layerRuns = append(layerRuns, lm)
				o.tracer.Absorb(trialTr)
			}
			continue
		}
		// Recovery: drain the registry, then reopen the same directory
		// and time until the project serves again.
		if err := st.shutdown(); err != nil {
			st.teardown()
			return nil, err
		}
		r0 := time.Now()
		reg := tenant.NewRegistry(st.dir, nil)
		err = reg.Recover()
		p, ok := reg.Get(projectID)
		if err == nil && !ok {
			err = fmt.Errorf("project %q missing after recovery", projectID)
		}
		if err == nil {
			_, _, err = p.Service().Truths()
		}
		recovers = append(recovers, time.Since(r0).Seconds())
		if err != nil {
			reg.Close()
			st.teardown()
			return nil, fmt.Errorf("recover: %w", err)
		}
		acc, c := checkIngest(p.Service(), p.Store(), in, seed)
		accs = append(accs, acc)
		res.checks = append(res.checks, c)
		reg.Close()
		st.teardown()
	}
	res.speed.boundary(true)
	res.accuracy = median(accs)
	res.printed = []metric{
		{"answers_per_s", "answers/s", median(rates), fmt.Sprintf("%d answers per trial, median of %d trials", ingestAnswers, len(rates))},
		{"recover_s", "s", median(recovers), fmt.Sprintf("median of %d", len(recovers))},
	}
	res.layer = medianLayers(layerRuns)
	return res, nil
}

// driveIngest uploads every body with the given closed-loop clients.
func driveIngest(st *stack, in *ingestInput, clients, trial int, traced bool, run *ingestRun) {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	first := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(in.bodies) {
					return
				}
				id := fmt.Sprintf("ingest-%d-%d", trial, i)
				var ack api.BatchIngestResponse
				send := time.Now()
				code, err := call(client, http.MethodPost, st.base+projectPath+"/ingest-batch", id, "application/octet-stream", in.bodies[i], &ack)
				recv := time.Now()
				ok := err == nil && code == http.StatusOK && ack.Durable && ack.DurableVersion >= ack.Version
				mu.Lock()
				if ok {
					run.acks.Add(recv.Sub(send))
					run.acked += ack.Ingested
					if traced {
						run.records = append(run.records, ackRecord{id: id, send: send, recv: recv, version: ack.Version, batches: ack.Batches})
					}
				} else {
					run.acks.Fail()
					run.failed++
					warnf("ingest request %d: status %d, err %v", i, code, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	run.wall = time.Since(first)
}

// checkIngest verifies that the store holds exactly the acknowledged
// answers and that the served MV truths equal a batch MV.Infer over
// them, and scores the served truths against the generator's.
func checkIngest(svc *stream.Service, store *stream.Store, in *ingestInput, seed int64) (float64, check) {
	snap, _ := store.Snapshot()
	got := append([]dataset.Answer(nil), snap.Answers...)
	want := append([]dataset.Answer(nil), in.answers...)
	sortAnswers(got)
	sortAnswers(want)
	if len(got) != len(want) {
		return 0, check{"ingest: store holds exactly the acked answers", false, fmt.Sprintf("%d stored, %d acked", len(got), len(want))}
	}
	for i := range got {
		if got[i] != want[i] {
			return 0, check{"ingest: store holds exactly the acked answers", false, fmt.Sprintf("answer %d differs: %+v vs %+v", i, got[i], want[i])}
		}
	}
	served, _, err := svc.Truths()
	if err != nil {
		return 0, check{"ingest: served MV equals batch MV", false, err.Error()}
	}
	batch, err := ti.Infer("MV", snap, ti.Options{Seed: seed})
	if err != nil {
		return 0, check{"ingest: served MV equals batch MV", false, err.Error()}
	}
	for t := range batch.Truth {
		if t >= len(served) || served[t] != batch.Truth[t] {
			return 0, check{"ingest: served MV equals batch MV", false, fmt.Sprintf("task %d differs", t)}
		}
	}
	return ti.Accuracy(served, in.truth), check{"ingest: recovered store = acked answers, served MV = batch MV", true, fmt.Sprintf("%d answers", len(got))}
}

func sortAnswers(a []dataset.Answer) {
	sort.Slice(a, func(i, j int) bool {
		if a[i].Task != a[j].Task {
			return a[i].Task < a[j].Task
		}
		if a[i].Worker != a[j].Worker {
			return a[i].Worker < a[j].Worker
		}
		return a[i].Value < a[j].Value
	})
}

// ingestLayers links the WAL spans to their requests and derives the
// ingest per-layer metrics, including the recovery-side reads of the
// run's own WAL and snapshot files.
func ingestLayers(st *stack, in *ingestInput, run *ingestRun, before Scrape) (map[string]float64, error) {
	after, err := scrapeMetrics(newClient(), st.base)
	if err != nil {
		return nil, err
	}
	d := Diff(before, after)
	tr := st.tr
	var roots []int
	for _, r := range run.records {
		root := tr.Add(r.id, "ack", r.send, r.recv, -1)
		roots = append(roots, root)
		linkServer(st.layers, r.id, root, r.version, r.batches)
	}
	spans := tr.Spans()
	var record, fsync Timings
	for _, i := range tr.Named("wal.record") {
		record.Add(spans[i].Dur())
	}
	for _, i := range tr.Named("wal.fsync_wait") {
		fsync.Add(spans[i].Dur())
	}
	var decode Timings
	for _, body := range in.bodies {
		t0 := time.Now()
		if _, err := stream.ReadBatchStream(bytes.NewReader(body), func(stream.Batch) error { return nil }); err != nil {
			return nil, err
		}
		decode.Add(time.Since(t0))
	}
	// Keep a copy of the live log so Replay times the run's own records.
	if err := st.persist.Sync(); err != nil {
		return nil, err
	}
	walCopy := st.walBase + ".replay"
	if err := copyFile(st.walBase+".wal", walCopy); err != nil {
		return nil, err
	}
	if err := st.shutdown(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, _, err := wal.ReadSnapshot(st.walBase + ".snap"); err != nil {
		return nil, err
	}
	snapRead := time.Since(t0)
	t0 = time.Now()
	if _, _, err := wal.Replay(walCopy, func(uint64, stream.Batch) error { return nil }); err != nil {
		return nil, err
	}
	replay := time.Since(t0)

	fsyncs := d.Sum("truthserve_wal_fsync_seconds_count", map[string]string{"tenant": projectID})
	_, fsyncTail := fsync.Tail()
	m := map[string]float64{
		"wal.record_us_p50":           record.Median() * 1000,
		"wal.fsync_wait_ms_p50":       fsync.Median(),
		"wal.fsync_wait_ms_tail":      fsyncTail,
		"wal.records_per_fsync":       d.Sum("truthserve_wal_records_total", map[string]string{"tenant": projectID}) / max(fsyncs, 1),
		"wal.snapshot_read_s":         snapRead.Seconds(),
		"wal.replay_s":                replay.Seconds(),
		"http.decode_us_p50":          decode.Median() * 1000,
		"trace.accounted_frac.ingest": accountedShare(spans, roots),
	}
	var gaps Timings
	for _, r := range run.records {
		st.layers.clientGap(&gaps, r.id, r.recv.Sub(r.send))
	}
	httpLayers(m, d, "ingest-batch", "ingest-batch", &gaps)
	return m, nil
}

// httpLayers records, as the metrics named after name, the server-side
// p50 of one route read from the scraped request histogram, and the
// median of its requests' client gaps (see layers.clientGap). The gap
// is taken request by request because the histogram's buckets are too
// coarse to subtract from: 1–2.5 ms is a single bucket.
func httpLayers(m map[string]float64, d Scrape, route, name string, gaps *Timings) {
	m["http.server_ms_p50."+name] = d.Quantile("truthserve_http_request_seconds", routeOf(route), 0.5) * 1000
	m["http.client_gap_ms_p50."+name] = gaps.Median()
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
