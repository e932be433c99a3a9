package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: p99 needs at least 1000 samples, p50 at least 20.
const minTail = 10

// quant is a percentile (or any summary) together with the number of
// samples it was computed from, so every printed figure carries its base.
type quant struct {
	Value float64
	N     int
}

// percentile returns the nearest-rank q-quantile of samples (which it sorts
// in place). It refuses a percentile with fewer than minTail samples beyond
// it rather than report a tail the sample cannot support.
func percentile(samples []float64, q float64) (quant, error) {
	n := len(samples)
	if n == 0 {
		return quant{}, fmt.Errorf("p%g: no samples", 100*q)
	}
	if beyond := int(math.Floor(float64(n) * (1 - q))); beyond < minTail {
		return quant{N: n}, fmt.Errorf("p%g: %d samples leave %d beyond it, need %d", 100*q, n, beyond, minTail)
	}
	if !sort.Float64sAreSorted(samples) {
		sort.Float64s(samples)
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return quant{Value: samples[i], N: n}, nil
}

// median is the middle value of a small sample (the set-up repetitions),
// where percentile's tail rule does not apply.
func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// outcome is the single bucket one operation lands in.
type outcome int

const (
	opOK outcome = iota
	opShed
	opFailed
)

// classify buckets one HTTP operation: a transport error, a non-200/429
// status, or a 200 whose body does not decode is one failure — never two.
func classify(status int, err, decodeErr error) outcome {
	switch {
	case err != nil:
		return opFailed
	case status == 429:
		return opShed
	case status != 200:
		return opFailed
	case decodeErr != nil:
		return opFailed
	}
	return opOK
}

// tally counts each attempted operation exactly once.
type tally struct {
	Attempted, OK, Shed, Failed int64
}

func (t *tally) add(o outcome) {
	t.Attempted++
	switch o {
	case opOK:
		t.OK++
	case opShed:
		t.Shed++
	default:
		t.Failed++
	}
}

func (t *tally) merge(u tally) {
	t.Attempted += u.Attempted
	t.OK += u.OK
	t.Shed += u.Shed
	t.Failed += u.Failed
}

// errorRatio is shed plus failed over attempted.
func (t tally) errorRatio() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Shed+t.Failed) / float64(t.Attempted)
}

// ival is a closed-open time interval in nanoseconds since the recorder's
// base.
type ival struct{ a, b int64 }

func (v ival) len() int64 {
	if v.b < v.a {
		return 0
	}
	return v.b - v.a
}

// covered is the length of the union of parts clipped to win.
func covered(win ival, parts []ival) int64 {
	clipped := make([]ival, 0, len(parts))
	for _, p := range parts {
		if p.a < win.a {
			p.a = win.a
		}
		if p.b > win.b {
			p.b = win.b
		}
		if p.b > p.a {
			clipped = append(clipped, p)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].a < clipped[j].a })
	var total int64
	var cur ival
	for i, p := range clipped {
		switch {
		case i == 0:
			cur = p
		case p.a <= cur.b:
			if p.b > cur.b {
				cur.b = p.b
			}
		default:
			total += cur.len()
			cur = p
		}
	}
	if len(clipped) > 0 {
		total += cur.len()
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent ival, children []ival) int64 {
	return parent.len() - covered(parent, children)
}
