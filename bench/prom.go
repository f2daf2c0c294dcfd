package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// promSample is one line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is one parsed /metrics page.
type scrape []promSample

// parseProm parses Prometheus text format 0.0.4: comment lines are
// skipped, label values are unescaped, timestamps are not expected (the
// daemon writes none).
func parseProm(r io.Reader) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parsePromLine(line string) (promSample, error) {
	s := promSample{}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("prom: no value in %q", line)
	}
	s.name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		s.labels = map[string]string{}
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, " ,")
			if rest == "" {
				return s, fmt.Errorf("prom: unterminated labels in %q", line)
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, `="`)
			if eq < 0 {
				return s, fmt.Errorf("prom: malformed label in %q", line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			closed := false
			for j := 0; j < len(rest); j++ {
				c := rest[j]
				if c == '\\' && j+1 < len(rest) {
					j++
					switch rest[j] {
					case 'n':
						val.WriteByte('\n')
					default:
						val.WriteByte(rest[j])
					}
					continue
				}
				if c == '"' {
					rest = rest[j+1:]
					closed = true
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return s, fmt.Errorf("prom: unterminated label value in %q", line)
			}
			s.labels[key] = val.String()
		}
	}
	f := strings.Fields(rest)
	if len(f) == 0 {
		return s, fmt.Errorf("prom: no value in %q", line)
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return s, fmt.Errorf("prom: value of %q: %w", line, err)
	}
	s.value = v
	return s, nil
}

// match reports whether the sample carries every given label.
func (s promSample) match(labels map[string]string) bool {
	for k, v := range labels {
		if s.labels[k] != v {
			return false
		}
	}
	return true
}

// sum adds up every series of a family that carries the labels; a family
// the page does not have sums to 0.
func (sc scrape) sum(name string, labels map[string]string) float64 {
	t := 0.0
	for _, s := range sc {
		if s.name == name && s.match(labels) {
			t += s.value
		}
	}
	return t
}

// max is the largest series of a family (0 when absent).
func (sc scrape) max(name string, labels map[string]string) float64 {
	m := 0.0
	for _, s := range sc {
		if s.name == name && s.match(labels) && s.value > m {
			m = s.value
		}
	}
	return m
}

// histDelta is what a histogram observed between two scrapes: cumulative
// bucket counts by upper bound.
type histDelta struct {
	le  []float64 // ascending, last is +Inf
	cum []float64
}

// histBetween subtracts the before page's buckets from the after page's,
// summing over every series that carries the labels.
func histBetween(before, after scrape, name string, labels map[string]string) histDelta {
	acc := map[float64]float64{}
	add := func(sc scrape, sign float64) {
		for _, s := range sc {
			if s.name != name+"_bucket" || !s.match(labels) {
				continue
			}
			le, err := strconv.ParseFloat(s.labels["le"], 64)
			if err != nil {
				continue // not a bucket line we can place
			}
			acc[le] += sign * s.value
		}
	}
	add(after, 1)
	add(before, -1)
	h := histDelta{}
	for le := range acc {
		h.le = append(h.le, le)
	}
	sort.Float64s(h.le)
	for _, le := range h.le {
		h.cum = append(h.cum, acc[le])
	}
	return h
}

func (h histDelta) count() float64 {
	if len(h.cum) == 0 {
		return 0
	}
	return h.cum[len(h.cum)-1]
}

// quantile interpolates linearly inside the bucket the rank falls into, as
// Prometheus' histogram_quantile does; 0 when nothing was observed.
func (h histDelta) quantile(q float64) float64 {
	total := h.count()
	if total <= 0 {
		return 0
	}
	rank := q * total
	for i, c := range h.cum {
		if c < rank {
			continue
		}
		lo, prev := 0.0, 0.0
		if i > 0 {
			lo, prev = h.le[i-1], h.cum[i-1]
		}
		hi := h.le[i]
		if math.IsInf(hi, 1) {
			return lo
		}
		if c == prev {
			return hi
		}
		return lo + (hi-lo)*(rank-prev)/(c-prev)
	}
	return h.le[len(h.le)-1]
}

// scrapeURL fetches and parses one /metrics page.
func scrapeURL(ctx context.Context, url string) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return parseProm(resp.Body)
}
