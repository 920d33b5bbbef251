package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// dist is a sorted sample of latencies in milliseconds. Requests that never
// completed are +Inf: they miss every latency limit.
type dist []float64

func newDist(v []float64) dist {
	d := append(dist(nil), v...)
	sort.Float64s(d)
	return d
}

// pct is the nearest-rank percentile (p in [0,1]); NaN for an empty sample.
func (d dist) pct(p float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(d)))) - 1
	return d[max(0, min(i, len(d)-1))]
}

// beyond is how many samples lie above the p percentile.
func (d dist) beyond(p float64) int {
	return len(d) - max(0, int(math.Ceil(p*float64(len(d)))))
}

// supported reports whether the p percentile has at least ten samples above
// it — the rule for which percentiles a sample can report.
func (d dist) supported(p float64) bool { return d.beyond(p) >= 10 }

// String prints p50/p90/p99/p999 with the sample count; an unsupported
// percentile is marked with '*'.
func (d dist) String() string {
	s := fmt.Sprintf("n=%d", len(d))
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		mark := ""
		if !d.supported(p) {
			mark = "*"
		}
		s += fmt.Sprintf(" p%g=%.3f%s", p*100, d.pct(p), mark)
	}
	return s
}

// phaseStats summarizes one phase's ops.
type phaseStats struct {
	writes, reads dist // latency from due time to acknowledgement, ms
	lateness      dist // send time minus due time, ms
	attempted     int
	failed        int // never acknowledged (sent or not)
	neverSent     int
	putsAcked     int
}

func summarize(ops []op) phaseStats {
	var w, r, late []float64
	s := phaseStats{attempted: len(ops)}
	for i := range ops {
		o := &ops[i]
		lat := math.Inf(1)
		if o.state == stDone {
			lat = float64(o.acked-o.due) / 1e6
		} else {
			s.failed++
		}
		if o.sent == 0 {
			s.neverSent++
		} else {
			late = append(late, float64(o.sent-o.due)/1e6)
		}
		if o.kind == opPut {
			w = append(w, lat)
			if o.state == stDone {
				s.putsAcked++
			}
		} else {
			r = append(r, lat)
		}
	}
	s.writes, s.reads, s.lateness = newDist(w), newDist(r), newDist(late)
	return s
}

// latencyPct is the p percentile of kind's latencies in ops, from due time
// to acknowledgement in ms (failed ops count as +Inf); NaN without samples.
func latencyPct(ops []op, kind uint8, p float64) float64 {
	var lat []float64
	for _, o := range ops {
		if o.kind != kind {
			continue
		}
		if o.state == stDone {
			lat = append(lat, float64(o.acked-o.due)/1e6)
		} else {
			lat = append(lat, math.Inf(1))
		}
	}
	return newDist(lat).pct(p)
}

// windowMedian is the median over windows of each window's p percentile of
// kind's latencies, so one stalled window does not move the figure.
func windowMedian(wins [][]op, kind uint8, p float64) float64 {
	var per []float64
	for _, ops := range wins {
		if v := latencyPct(ops, kind, p); !math.IsNaN(v) {
			per = append(per, v)
		}
	}
	return median(per)
}

// completedFrac is the share of offered ops acknowledged.
func (s phaseStats) completedFrac() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.attempted-s.failed) / float64(s.attempted)
}

// Capacity criterion of max_ops_s: a rate is sustained when at least 99% of
// offered ops complete and write p50 stays within twice the default batch
// delay.
const (
	capacityCompleted = 0.99
	capacityP50ms     = 10.0
)

func (s phaseStats) sustains() bool {
	p50 := s.writes.pct(0.5)
	if len(s.writes) == 0 {
		p50 = s.reads.pct(0.5)
	}
	return s.completedFrac() >= capacityCompleted && p50 <= capacityP50ms
}

// searchMax finds the highest rate probe sustains. It grows the rate by
// 1.5× from start until a step fails (or shrinks by 1.5× until one passes),
// then bisects until the bracket is narrower than 5% of its lower end. It
// returns the highest sustained rate, 0 when no rate down to start/100 was
// sustained, and every rate probed, in order.
func searchMax(start, ceiling float64, probe func(rate float64) bool) (float64, []float64) {
	var tried []float64
	try := func(r float64) bool {
		tried = append(tried, r)
		return probe(r)
	}
	lo, hi := 0.0, 0.0
	r := start
	if try(r) {
		lo = r
		for hi == 0 {
			r *= 1.5
			if r > ceiling {
				return lo, tried
			}
			if try(r) {
				lo = r
			} else {
				hi = r
			}
		}
	} else {
		hi = r
		for lo == 0 {
			r /= 1.5
			if r < start/100 {
				return 0, tried
			}
			if try(r) {
				lo = r
			} else {
				hi = r
			}
		}
	}
	for (hi-lo)/lo >= 0.05 {
		mid := (lo + hi) / 2
		if try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, tried
}

// windowAvg turns two readings of a lifetime time-average (tracked since
// origin) into the average over the window between them: the integral at
// t1 minus the integral at t0, over the window length.
func windowAvg(origin, t0, t1 time.Time, avg0, avg1 float64) float64 {
	w := t1.Sub(t0).Seconds()
	if w <= 0 {
		return math.NaN()
	}
	return (avg1*t1.Sub(origin).Seconds() - avg0*t0.Sub(origin).Seconds()) / w
}

func median(v []float64) float64 {
	return newDist(v).pct(0.5)
}
