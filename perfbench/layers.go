package main

import (
	"math"
	"net/http"
	"sync"
	"time"

	"truthinference/internal/assign"
	"truthinference/internal/core"
	"truthinference/internal/dataset"
	"truthinference/internal/query"
	"truthinference/internal/stream"
	"truthinference/internal/stream/wal"
	"truthinference/internal/telemetry"
)

// layers holds the thin timing decorators of a traced stack and what
// they observed. Every decorator forwards to the real implementation
// and records one span per call into the tracer; spans are linked to
// the requests that caused them once the run is over. Without a tracer
// the serving-stack decorators hand back what they wrap; the method
// decorator always records its calls, which the paper's checks read.
type layers struct {
	tr        *Tracer
	inferSpan string // span name of a Method.Infer call

	mu      sync.Mutex
	infers  []inferCall    // every Method.Infer, in completion order
	records map[uint64]int // store version → wal.record span
	syncTos map[uint64]int // SyncTo version → wal.fsync_wait span
	servers map[string]int // request id → http.server span
}

// inferCall is one observed Method.Infer.
type inferCall struct {
	span       int
	method     string
	answers    int // answers in the snapshot the epoch ran on
	start, end time.Time
	iterations int
	converged  bool
	complete   bool // a finite truth for every task
	err        error
}

func newLayers(tr *Tracer) *layers {
	return &layers{tr: tr, inferSpan: "epoch.iterate", records: map[uint64]int{}, syncTos: map[uint64]int{}, servers: map[string]int{}}
}

func (l *layers) inferCalls() []inferCall {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]inferCall(nil), l.infers...)
}

// ---- core.Method ----------------------------------------------------

type timedMethod struct {
	core.Method
	l *layers
}

func (l *layers) method(m core.Method) core.Method { return timedMethod{Method: m, l: l} }

func (m timedMethod) Infer(d *dataset.Dataset, opts core.Options) (*core.Result, error) {
	start := time.Now()
	res, err := m.Method.Infer(d, opts)
	end := time.Now()
	call := inferCall{method: m.Name(), answers: len(d.Answers), start: start, end: end, err: err}
	if err == nil {
		call.iterations, call.converged = res.Iterations, res.Converged
		call.complete = truthComplete(res.Truth, d.NumTasks)
	}
	call.span = m.l.tr.Add("", m.l.inferSpan, start, end, -1)
	m.l.mu.Lock()
	m.l.infers = append(m.l.infers, call)
	m.l.mu.Unlock()
	return res, err
}

// ---- stream.DurablePersister ----------------------------------------

type timedPersister struct {
	p *wal.Persister
	l *layers
}

func (l *layers) persister(p *wal.Persister) stream.Persister {
	if l.tr == nil {
		return p
	}
	return timedPersister{p: p, l: l}
}

func (t timedPersister) Record(version uint64, b stream.Batch) error {
	start := time.Now()
	err := t.p.Record(version, b)
	i := t.l.tr.Add("", "wal.record", start, time.Now(), -1)
	t.l.mu.Lock()
	t.l.records[version] = i
	t.l.mu.Unlock()
	return err
}

func (t timedPersister) Sync() error {
	start := time.Now()
	err := t.p.Sync()
	t.l.tr.Add("", "wal.flush", start, time.Now(), -1)
	return err
}

func (t timedPersister) SyncTo(version uint64) error {
	start := time.Now()
	err := t.p.SyncTo(version)
	i := t.l.tr.Add("", "wal.fsync_wait", start, time.Now(), -1)
	t.l.mu.Lock()
	t.l.syncTos[version] = i
	t.l.mu.Unlock()
	return err
}

func (t timedPersister) DurableVersion() uint64            { return t.p.DurableVersion() }
func (t timedPersister) PersistStats() stream.PersistStats { return t.p.PersistStats() }

// ---- assign deliver callback ----------------------------------------

func (l *layers) deliver(f assign.IngestFunc) assign.IngestFunc {
	if l.tr == nil {
		return f
	}
	return func(task, worker int, value float64) (uint64, error) {
		start := time.Now()
		v, err := f(task, worker, value)
		l.tr.Add("", "assign.deliver", start, time.Now(), -1)
		return v, err
	}
}

// ---- assign.Source --------------------------------------------------

// timedAssignSource times the score re-sync reads the ledger makes; the
// O(1) version and dimension getters pass through untimed.
type timedAssignSource struct {
	*stream.Service
	l *layers
}

func (l *layers) assignSource(s *stream.Service) assign.Source {
	if l.tr == nil {
		return s
	}
	return timedAssignSource{s, l}
}

func (s timedAssignSource) span(start time.Time) {
	s.l.tr.Add("", "assign.source", start, time.Now(), -1)
}

func (s timedAssignSource) TaskAnswerCounts() []int {
	defer s.span(time.Now())
	return s.Service.TaskAnswerCounts()
}

func (s timedAssignSource) Posteriors() ([][]float64, uint64, error) {
	defer s.span(time.Now())
	return s.Service.Posteriors()
}

func (s timedAssignSource) Entropies() ([]float64, uint64, error) {
	defer s.span(time.Now())
	return s.Service.Entropies()
}

func (s timedAssignSource) WorkerQuality(worker int) (float64, error) {
	defer s.span(time.Now())
	return s.Service.WorkerQuality(worker)
}

func (s timedAssignSource) ForEachAnswer(f func(task, worker int)) {
	defer s.span(time.Now())
	s.Service.ForEachAnswer(f)
}

// ---- query.Source ---------------------------------------------------

type timedQuerySource struct {
	svc *stream.Service
	l   *layers
}

func (l *layers) querySource(s *stream.Service) query.Source {
	if l.tr == nil {
		return s
	}
	return timedQuerySource{s, l}
}

func (s timedQuerySource) span(start time.Time) {
	s.l.tr.Add("", "query.source", start, time.Now(), -1)
}

func (s timedQuerySource) Pin() (uint64, int) {
	defer s.span(time.Now())
	return s.svc.Pin()
}

func (s timedQuerySource) Shards() int     { return s.svc.Shards() }
func (s timedQuerySource) NumChoices() int { return s.svc.NumChoices() }

func (s timedQuerySource) ScanShard(si, pos, beforeIdx int, dst []dataset.Answer) (int, int, bool) {
	defer s.span(time.Now())
	return s.svc.ScanShard(si, pos, beforeIdx, dst)
}

func (s timedQuerySource) Posteriors() ([][]float64, uint64, error) {
	defer s.span(time.Now())
	return s.svc.Posteriors()
}

func (s timedQuerySource) Entropies() ([]float64, uint64, error) {
	defer s.span(time.Now())
	return s.svc.Entropies()
}

func (s timedQuerySource) WorkerQualities() (cur, prev []float64, version uint64, err error) {
	defer s.span(time.Now())
	return s.svc.WorkerQualities()
}

// ---- HTTP front -----------------------------------------------------

// serverSpans records one http.server span per request, outermost, keyed
// by the client's X-Request-ID.
func (l *layers) serverSpans(next http.Handler) http.Handler {
	if l.tr == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		id := r.Header.Get(telemetry.RequestIDHeader)
		i := l.tr.Add(id, "http.server", start, time.Now(), -1)
		l.mu.Lock()
		l.servers[id] = i
		l.mu.Unlock()
	})
}

// clientGap adds to gaps the part of a request's client-observed time
// that lies outside its http.server span: connection, client and kernel
// time no handler sees. A request without a span adds nothing.
func (l *layers) clientGap(gaps *Timings, id string, client time.Duration) {
	if srv := l.server(id); srv >= 0 {
		gaps.Add(client - l.tr.Span(srv).Dur())
	}
}

// server returns the http.server span of a request id (-1 if none).
func (l *layers) server(id string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i, ok := l.servers[id]; ok {
		return i
	}
	return -1
}

// adopt links every unparented span called name that lies inside one
// of the parent spans under it, and returns per parent the summed
// duration of the adopted spans. Parents must not overlap each other
// (one connection lane's requests), so each span has at most one home.
func (l *layers) adopt(name string, parents []int) map[int]time.Duration {
	spans := l.tr.Spans()
	out := map[int]time.Duration{}
	cands := l.tr.Named(name)
	j := 0
	for _, p := range parents {
		ps := spans[p]
		for j < len(cands) && spans[cands[j]].Start < ps.Start {
			j++
		}
		var sum time.Duration
		for k := j; k < len(cands) && spans[cands[k]].Start < ps.End; k++ {
			c := spans[cands[k]]
			if c.End <= ps.End && c.Parent < 0 {
				l.tr.SetParent(cands[k], p)
				sum += c.Dur()
			}
		}
		out[p] = sum
	}
	return out
}

// truthComplete reports whether truth holds a finite value for every
// one of n tasks.
func truthComplete(truth []float64, n int) bool {
	if len(truth) < n {
		return false
	}
	for _, v := range truth[:n] {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
