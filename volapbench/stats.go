package main

import (
	"math"
	"sort"
	"time"
)

// metric is one named number the benchmark reports, with the sample
// count behind it and where it was measured.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	// Source names the phase that produced the value: "main" for the
	// workload's timed phase, "probe" for its complementary probe phase,
	// "setup", "run" for whole-run accounting, "trace" for the traced
	// run's replays.
	Source string `json:"source"`
	// Moves names the end-to-end metric a per-layer metric should move.
	Moves string `json:"moves,omitempty"`
}

// metricSet accumulates a run's metrics in report order.
type metricSet struct {
	list []metric
}

func (m *metricSet) add(name string, value float64, unit string, samples int, source string) {
	m.list = append(m.list, metric{Name: name, Value: value, Unit: unit, Samples: samples, Source: source})
}

func (m *metricSet) get(name string) (metric, bool) {
	for _, x := range m.list {
		if x.Name == name {
			return x, true
		}
	}
	return metric{}, false
}

// durations is a latency sample set.
type durations []time.Duration

// quantile returns the nearest-rank q-quantile (0 for an empty set).
func (d durations) quantile(q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// floats is a sample set of plain numbers.
type floats []float64

func (f floats) median() float64 {
	if len(f) == 0 {
		return 0
	}
	s := append(floats(nil), f...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func (f floats) mean() float64 {
	if len(f) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range f {
		sum += x
	}
	return sum / float64(len(f))
}

// rateMedian is the median over the phase's whole one-second windows of
// the completions in each window times per; the window count is its
// sample count. A phase shorter than a second reports its mean rate.
func rateMedian(done durations, per float64, elapsed time.Duration) (float64, int) {
	n := int(elapsed / time.Second)
	if n == 0 {
		return float64(len(done)) * per / elapsed.Seconds(), 1
	}
	counts := make([]int, n)
	for _, d := range done {
		if i := int(d / time.Second); i < n {
			counts[i]++
		}
	}
	rates := make(floats, n)
	for i, c := range counts {
		rates[i] = float64(c) * per
	}
	return rates.median(), n
}
