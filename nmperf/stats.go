package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of s by the nearest-rank rule. s
// is sorted in place.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(s []float64) float64 { return quantile(s, 0.5) }

// p99Samples is the fewest samples a p99 may rest on: at least ten beyond it.
const p99Samples = 1000

// windowed collects per-call durations and closes a window every perWindow
// samples, keeping each window's p50 and p99. The result is a quantile over
// the windows' percentiles rather than one percentile over every sample, so
// a stretch of the run that the host slowed moves fewer windows than it
// moves samples. Every window holds enough samples to leave ten beyond its
// p99.
type windowed struct {
	perWindow int
	cur       []float64
	p50, p99  []float64
	n         int
}

func newWindowed(perWindow int) *windowed {
	perWindow = max(perWindow, p99Samples)
	return &windowed{perWindow: perWindow, cur: make([]float64, 0, perWindow)}
}

func (w *windowed) add(us float64) {
	w.cur = append(w.cur, us)
	w.n++
	if len(w.cur) == w.perWindow {
		w.p99 = append(w.p99, quantile(w.cur, 0.99))
		w.p50 = append(w.p50, quantile(w.cur, 0.50))
		w.cur = w.cur[:0]
	}
}

// result returns the q-quantile over the windows of their p50 and of their
// p99, and the sample count. A run too short to close one window falls
// back to the partial window.
func (w *windowed) result(q float64) (p50, p99 float64, samples int) {
	if len(w.p99) == 0 {
		c := append([]float64(nil), w.cur...)
		return quantile(c, 0.5), quantile(c, 0.99), w.n
	}
	return quantile(append([]float64(nil), w.p50...), q), quantile(append([]float64(nil), w.p99...), q), w.n
}

// rates collects per-interval throughput figures (work units per second).
type rates struct{ r []float64 }

func (r *rates) add(units float64, d time.Duration) {
	if d > 0 {
		r.r = append(r.r, units/d.Seconds())
	}
}

func (r *rates) median() float64 { return median(append([]float64(nil), r.r...)) }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
