package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one request
// share ID (also sent as X-Request-ID, so server logs correlate);
// Parent indexes the span that caused this one (-1 for a root).
type Span struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run writes them out. It is safe
// for concurrent use; a nil *Tracer records nothing.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a tracer whose timestamps count from now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// ns converts a wall time into the tracer's clock.
func (t *Tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// Add records a span and returns its index.
func (t *Tracer) Add(id, name string, start, end time.Time, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: id, Name: name, Start: t.ns(start), End: t.ns(end), Parent: parent})
	return len(t.spans) - 1
}

// SetParent links span i under span parent after the fact, for spans
// whose cause is known only once the run is over (a WAL record matched
// to its request by store version, a source call matched by time).
func (t *Tracer) SetParent(i, parent int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].Parent = parent
}

// Absorb appends every span of o (recorded on the same clock), keeping
// their parent links.
func (t *Tracer) Absorb(o *Tracer) {
	spans := o.Spans()
	t.mu.Lock()
	defer t.mu.Unlock()
	off := len(t.spans)
	for _, s := range spans {
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
}

// Spans returns a copy of every span recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Span returns the span at index i.
func (t *Tracer) Span(i int) Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[i]
}

// Named returns the indices of spans with the given name, in start
// order.
func (t *Tracer) Named(name string) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(a, b int) bool { return t.spans[out[a]].Start < t.spans[out[b]].Start })
	return out
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// children indexes spans by parent.
func children(spans []Span) map[int][]int {
	out := map[int][]int{}
	for i, s := range spans {
		if s.Parent >= 0 {
			out[s.Parent] = append(out[s.Parent], i)
		}
	}
	return out
}

// covered is the length of the part of [start, end) that the union of
// the given intervals covers. Overlapping intervals count once, and any
// part outside [start, end) is clipped away.
func covered(start, end int64, iv [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		s, e := max(x[0], start), min(x[1], end)
		if e > s {
			clipped = append(clipped, [2]int64{s, e})
		}
	}
	sort.Slice(clipped, func(a, b int) bool { return clipped[a][0] < clipped[b][0] })
	var total int64
	curS, curE := int64(0), int64(-1)
	for _, x := range clipped {
		if x[0] > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = x[0], x[1]
			continue
		}
		curE = max(curE, x[1])
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// selfTime is span i's duration minus the part of its interval its
// child spans cover.
func selfTime(spans []Span, kids map[int][]int, i int) time.Duration {
	s := spans[i]
	iv := make([][2]int64, 0, len(kids[i]))
	for _, c := range kids[i] {
		iv = append(iv, [2]int64{spans[c].Start, spans[c].End})
	}
	return time.Duration(s.End - s.Start - covered(s.Start, s.End, iv))
}

// accountedShare is the share of the median root-span duration that the
// roots' children cover: median(root − root self time) ÷ median(root).
// The root's own self time is what no layer span explains (client-side
// queueing, network, polling granularity).
func accountedShare(spans []Span, roots []int) float64 {
	kids := children(spans)
	var total, cov []float64
	for _, r := range roots {
		d := spans[r].Dur()
		total = append(total, float64(d))
		cov = append(cov, float64(d-selfTime(spans, kids, r)))
	}
	m := median(total)
	if m == 0 {
		return 0
	}
	return median(cov) / m
}

// writeTrace writes a workload's spans next to the build outputs.
func writeTrace(tr *Tracer, workload string, seed int64) {
	path := fmt.Sprintf("%s/trace-%s-%d.jsonl", workDir, workload, seed)
	if err := tr.WriteFile(path); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", err)
		return
	}
	fmt.Printf("trace %s: %d spans written to %s\n", workload, len(tr.Spans()), path)
}
