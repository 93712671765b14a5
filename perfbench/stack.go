package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	ti "truthinference"
	"truthinference/internal/assign"
	"truthinference/internal/dataset"
	"truthinference/internal/query"
	"truthinference/internal/stream"
	"truthinference/internal/stream/wal"
	"truthinference/internal/telemetry"
	"truthinference/internal/tenant"
)

// projectID is the one tenant every serving workload creates.
const projectID = "bench"

// projectPath prefixes every per-project route.
const projectPath = "/v1/projects/" + projectID

// stack is the serving stack a workload drives over loopback HTTP.
//
// By default it is exactly what cmd/truthserve serves: a WAL-backed
// tenant.Registry whose Handler() listens on 127.0.0.1. Assembled, the
// project is built from the same public constructors the registry
// uses (wal.Open, stream.NewService, assign.Spec.Ledger, assign.Handler,
// query.NewHandler behind telemetry.Middleware), with timing decorators
// on the interfaces the service already calls through when traced.
type stack struct {
	dir  string // durable root; removed by teardown
	base string // http://127.0.0.1:port
	srv  *http.Server
	done chan struct{} // closed when Serve returns

	reg *tenant.Registry // nil when assembled

	// Hand assembly.
	tr      *Tracer
	tel     *telemetry.Registry
	svc     *stream.Service
	store   *stream.Store
	persist *wal.Persister
	walBase string
	layers  *layers
}

var stackSeq atomic.Int64

// newStack boots a stack serving one project with cfg, assembled by
// hand when asked or when tr is non-nil; a traced stack's layer
// observations land in tr.
func newStack(cfg tenant.Config, tr *Tracer, assembled bool) (*stack, error) {
	dir := filepath.Join(workDir, fmt.Sprintf("stack-%d-%d", os.Getpid(), stackSeq.Add(1)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &stack{dir: dir, tr: tr}
	var h http.Handler
	var err error
	if tr == nil && !assembled {
		s.reg = tenant.NewRegistry(dir, nil)
		if err = s.reg.Recover(); err == nil {
			s.reg.SetReady()
			_, err = s.reg.Create(projectID, cfg)
		}
		h = s.reg.Handler()
	} else {
		h, err = s.assemble(cfg)
	}
	if err != nil {
		s.teardown()
		return nil, err
	}
	if err := s.listen(h); err != nil {
		s.teardown()
		return nil, err
	}
	return s, nil
}

func (s *stack) listen(h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return nil
}

// assemble wires one project the way tenant.openProject does.
func (s *stack) assemble(cfg tenant.Config) (http.Handler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := ti.GetMethod(cfg.Method)
	if err != nil {
		return nil, err
	}
	typ, err := tenant.ParseTaskType(cfg.TaskType)
	if err != nil {
		return nil, err
	}
	choices := cfg.Choices
	if choices == 0 {
		choices = 2
	}
	nsDir := filepath.Join(s.dir, "projects", projectID)
	if err := os.MkdirAll(nsDir, 0o755); err != nil {
		return nil, err
	}
	s.walBase = filepath.Join(nsDir, "store")
	s.tel = telemetry.NewRegistry()
	s.layers = newLayers(s.tr)
	persist, rec, err := wal.Open(s.walBase, func() (*stream.Store, error) {
		return stream.NewStoreN(projectID, typ, choices, cfg.Shards)
	}, wal.Options{SnapshotEvery: tenant.DefaultSnapshotEvery, Shards: cfg.Shards, Metrics: wal.NewMetrics(s.tel, projectID)})
	if err != nil {
		return nil, err
	}
	s.persist, s.store = persist, rec.Store
	par := cfg.Parallelism
	if par == 0 {
		par = ti.AutoParallelism
	}
	svc, err := stream.NewService(rec.Store, stream.Config{
		Method:      s.layers.method(m),
		Options:     ti.Options{Seed: cfg.Seed, MaxIterations: cfg.MaxIter, Parallelism: par},
		AutoRefresh: !cfg.NoAutoRefresh,
		Persist:     s.layers.persister(persist),
		Metrics:     stream.NewMetrics(s.tel, projectID, m.Name()),
	})
	if err != nil {
		persist.Close()
		return nil, err
	}
	s.svc = svc
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	var ql query.Ledger
	if cfg.Assign != nil {
		ledger, err := cfg.Assign.Ledger(s.layers.assignSource(svc), cfg.Seed, assign.NewMetrics(s.tel, projectID))
		if err != nil {
			return nil, err
		}
		assignAPI := assign.Handler(ledger, s.layers.deliver(func(task, worker int, value float64) (uint64, error) {
			return svc.Ingest(stream.Batch{Answers: []dataset.Answer{{Task: task, Worker: worker, Value: value}}})
		}))
		for _, pattern := range []string{"GET /v1/assign", "POST /v1/complete", "GET /v1/assignstats"} {
			mux.Handle(pattern, assignAPI)
		}
		ql = ledger
	}
	mux.Handle("POST /v1/query", query.NewHandler(s.layers.querySource(svc), ql, query.NewMetrics(s.tel, projectID)))

	outer := http.NewServeMux()
	// Re-address /v1/projects/bench/<rest> as the project's /v1/<rest>,
	// as the registry's router does.
	outer.HandleFunc(projectPath+"/", func(w http.ResponseWriter, r *http.Request) {
		u := *r.URL
		u.Path = "/v1" + strings.TrimPrefix(r.URL.Path, projectPath)
		u.RawPath = ""
		r2 := new(http.Request)
		*r2 = *r
		r2.URL = &u
		mux.ServeHTTP(w, r2)
	})
	outer.Handle("GET /metrics", s.tel.Handler())
	h := telemetry.Middleware(outer, telemetry.NewHTTPMetrics(s.tel, "truthserve"), slog.New(slog.NewTextHandler(io.Discard, nil)), 0, routeLabel)
	return s.layers.serverSpans(h), nil
}

// routeLabel maps a request onto the route vocabulary tenant.Registry
// labels its HTTP metrics with, so scrapes of either stack read alike.
func routeLabel(r *http.Request) (route, tenantID string) {
	sub, ok := strings.CutPrefix(r.URL.Path, projectPath+"/")
	if !ok {
		return r.URL.Path, "" // /metrics
	}
	head, _, _ := strings.Cut(sub, "/")
	if head == "truth" {
		head = "truth/{task}"
	}
	return "/v1/projects/{id}/" + head, projectID
}

// routeOf is the metric route label of one per-project endpoint.
func routeOf(endpoint string) map[string]string {
	return map[string]string{"route": "/v1/projects/{id}/" + endpoint, "tenant": projectID}
}

// service returns the project's service and store.
func (s *stack) service() (*stream.Service, *stream.Store) {
	if s.reg != nil {
		p, ok := s.reg.Get(projectID)
		if !ok {
			return nil, nil
		}
		return p.Service(), p.Store()
	}
	return s.svc, s.store
}

// shutdown stops the listener and drains the project the way the daemon
// drains on SIGTERM: finish the epoch, flush and compact the WAL.
func (s *stack) shutdown() error {
	var errs []error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		errs = append(errs, s.srv.Shutdown(ctx))
		cancel()
		<-s.done
		s.srv = nil
	}
	if s.reg != nil {
		errs = append(errs, s.reg.Close())
	}
	if s.svc != nil {
		errs = append(errs, s.svc.Close(), s.persist.Snapshot(), s.persist.Close())
		s.svc = nil
	}
	return errors.Join(errs...)
}

// teardown shuts down and removes the stack's files.
func (s *stack) teardown() {
	if err := s.shutdown(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: shutdown: %v\n", err)
	}
	os.RemoveAll(s.dir)
}

// newClient returns one HTTP connection lane: a closed-loop client or an
// open-loop generator's sender owns one, so its requests never overlap.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// call issues one request and decodes a JSON response into out (when
// non-nil and the status is 200). It returns the status code.
func call(c *http.Client, method, url, reqID, ctype string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if reqID != "" {
		req.Header.Set(telemetry.RequestIDHeader, reqID)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s %s: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

var warnings atomic.Int64

// warnf reports a failed operation on standard error; after the first
// twenty it stays quiet, since the failures are counted anyway.
func warnf(format string, args ...any) {
	if warnings.Add(1) <= 20 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

// refresh runs POST …/refresh, which returns once an epoch covering
// every committed batch has published.
func refresh(c *http.Client, base string) (stream.Stats, error) {
	var st stream.Stats
	code, err := call(c, http.MethodPost, base+projectPath+"/refresh", "", "", nil, &st)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("refresh: status %d", code)
	}
	return st, err
}
