package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Timings collects one latency per attempted operation. A failed,
// refused or no-task operation enters as +Inf: it misses every latency
// limit, so it can only push percentiles up.
type Timings struct {
	ms []float64
}

// Add records one successful operation's latency.
func (t *Timings) Add(d time.Duration) { t.ms = append(t.ms, float64(d)/float64(time.Millisecond)) }

// Fail records one failed operation.
func (t *Timings) Fail() { t.ms = append(t.ms, math.Inf(1)) }

// Merge appends every sample of o.
func (t *Timings) Merge(o *Timings) { t.ms = append(t.ms, o.ms...) }

// N is the sample count, failures included.
func (t *Timings) N() int { return len(t.ms) }

// Median is the nearest-rank median (0 with no samples).
func (t *Timings) Median() float64 { return percentile(t.ms, 0.5) }

// Tail is the highest percentile of the ladder with at least ten
// samples beyond it, and its name ("p99", "p95", ...). With too few
// samples for even the median to qualify, the tail is the maximum
// ("max").
func (t *Timings) Tail() (name string, ms float64) { return tail(t.ms) }

// percentileLadder lists the percentiles a tail may be reported at,
// highest first.
var percentileLadder = []struct {
	name string
	q    float64
}{
	{"p999", 0.999}, {"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}, {"p75", 0.75}, {"p50", 0.50},
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

func tail(samples []float64) (string, float64) {
	n := len(samples)
	for _, p := range percentileLadder {
		if n-rank(n, p.q) >= minBeyond {
			return p.name, percentile(samples, p.q)
		}
	}
	return "max", percentile(samples, 1)
}

// rank is the 1-based nearest-rank index of quantile q among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9)) // 0.99·1000 must not round up to 991
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank q-quantile of samples (0 when
// empty). The input is not modified.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// median of a small set of per-trial values (interpolated between the
// two middle values for an even count, so two trials average).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// describe renders a timing's median and supported tail with the sample
// count, e.g. "p50 2.31 ms, p99 9.80 ms (n=4500)".
func (t *Timings) describe() string {
	name, v := t.Tail()
	return fmt.Sprintf("p50 %s ms, %s %s ms (n=%d)", fmtNum(t.Median()), name, fmtNum(v), t.N())
}

func fmtNum(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%.4g", v)
}
