package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Series is one sample line of a Prometheus text scrape.
type Series struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Scrape is a parsed GET /metrics body, keyed by the series line text
// before the value (name plus label set), so two scrapes of the same
// registry diff series by series.
type Scrape map[string]Series

// ParseScrape parses Prometheus text format v0.0.4.
func ParseScrape(r io.Reader) (Scrape, error) {
	out := Scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		cut := strings.LastIndexByte(text, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("scrape line %d: no value: %q", line, text)
		}
		key, raw := text[:cut], text[cut+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("scrape line %d: value %q: %w", line, raw, err)
		}
		name, labels, err := parseSeriesKey(key)
		if err != nil {
			return nil, fmt.Errorf("scrape line %d: %w", line, err)
		}
		out[key] = Series{Name: name, Labels: labels, Value: v}
	}
	return out, sc.Err()
}

// parseSeriesKey splits `name{k="v",...}` into the name and labels.
func parseSeriesKey(key string) (string, map[string]string, error) {
	open := strings.IndexByte(key, '{')
	if open < 0 {
		return key, map[string]string{}, nil
	}
	if !strings.HasSuffix(key, "}") {
		return "", nil, fmt.Errorf("unterminated label set in %q", key)
	}
	labels := map[string]string{}
	rest := key[open+1 : len(key)-1]
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 || eq+1 >= len(rest) || rest[eq+1] != '"' {
			return "", nil, fmt.Errorf("malformed label in %q", key)
		}
		name := rest[:eq]
		var val strings.Builder
		i := eq + 2
		for ; i < len(rest) && rest[i] != '"'; i++ {
			if rest[i] == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i])
				}
				continue
			}
			val.WriteByte(rest[i])
		}
		if i >= len(rest) {
			return "", nil, fmt.Errorf("unterminated label value in %q", key)
		}
		labels[name] = val.String()
		rest = strings.TrimPrefix(rest[i+1:], ",")
	}
	return key[:open], labels, nil
}

// Diff returns end − start for every series of end; a series absent
// from start counts from zero. Counters and histogram buckets diff into
// what happened between the two scrapes.
func Diff(start, end Scrape) Scrape {
	out := Scrape{}
	for k, s := range end {
		s.Value -= start[k].Value
		out[k] = s
	}
	return out
}

// matches reports whether s carries every label in want.
func (s Series) matches(want map[string]string) bool {
	for k, v := range want {
		if s.Labels[k] != v {
			return false
		}
	}
	return true
}

// Sum adds the values of every series called name whose labels include
// want.
func (sc Scrape) Sum(name string, want map[string]string) float64 {
	var total float64
	for _, s := range sc {
		if s.Name == name && s.matches(want) {
			total += s.Value
		}
	}
	return total
}

// Quantile estimates the q-quantile of histogram name over the series
// matching want, interpolating linearly inside the bucket that holds
// it, as Prometheus' histogram_quantile does. It returns NaN when the
// histogram saw no observations.
func (sc Scrape) Quantile(name string, want map[string]string, q float64) float64 {
	counts := map[float64]float64{}
	for _, s := range sc {
		if s.Name != name+"_bucket" || !s.matches(want) {
			continue
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64) // "+Inf" parses as +Inf
		if err != nil {
			continue
		}
		counts[le] += s.Value
	}
	bounds := make([]float64, 0, len(counts))
	for le := range counts {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || counts[bounds[len(bounds)-1]] <= 0 {
		return math.NaN()
	}
	total := counts[bounds[len(bounds)-1]]
	target := q * total
	prevLe, prevCount := 0.0, 0.0
	for _, le := range bounds {
		c := counts[le]
		if c >= target {
			if math.IsInf(le, 1) {
				return prevLe // beyond the last finite bound: report that bound
			}
			if c == prevCount {
				return le
			}
			return prevLe + (le-prevLe)*(target-prevCount)/(c-prevCount)
		}
		prevLe, prevCount = le, c
	}
	return prevLe
}

// scrapeMetrics fetches and parses GET /metrics.
func scrapeMetrics(c *http.Client, base string) (Scrape, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return ParseScrape(resp.Body)
}
