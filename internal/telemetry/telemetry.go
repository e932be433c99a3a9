// Package telemetry is the serving tier's metric format and fleet merge
// policy. It owns three kinds of value, each a typed atomic that marshals
// itself to the /metrics JSON shape:
//
//   - Counter: an int64 summed on merge — event counts, and gauges that
//     add up across a fleet (queue depths, in-flight requests);
//   - Max: an int64 whose largest value wins on merge;
//   - Histogram: a latency histogram over one shared table of bucket
//     bounds, merged bucket by bucket with the mean re-derived from the
//     merged counts.
//
// A metric is declared once, as a json-tagged field of one of these kinds
// in its owning struct. The same struct is the live counter set and the
// decoded /metrics document, and Merge folds any two of them together, so
// no snapshot copy or per-field merge is ever written by hand.
package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"sync/atomic"
	"time"
)

// Counter is a summed int64. The embedded atomic gives Add, Load and Store.
type Counter struct{ atomic.Int64 }

func (c *Counter) MarshalJSON() ([]byte, error) {
	return strconv.AppendInt(nil, c.Load(), 10), nil
}

func (c *Counter) UnmarshalJSON(b []byte) error {
	v, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return fmt.Errorf("telemetry: counter: %w", err)
	}
	c.Store(v)
	return nil
}

// Max is an int64 high-water mark.
type Max struct{ Counter }

// Observe raises the mark to v if v is larger. It sits on every batcher
// flush, so it must stay allocation free.
//
//mpass:zeroalloc
func (m *Max) Observe(v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// bounds are the latency bucket upper bounds every histogram shares, so
// histograms from any replica or tenant merge bucket for bucket. The last
// implicit bucket is +Inf.
var bounds = [...]time.Duration{
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
}

// Histogram is a fixed-bucket latency histogram with atomic counters.
type Histogram struct {
	counts [len(bounds) + 1]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
}

// Observe records one duration. It sits on every scan response, so it must
// stay allocation free.
//
//mpass:zeroalloc
func (h *Histogram) Observe(d time.Duration) {
	i := 0
	for i < len(bounds) && d > bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count reports how many durations were observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// histogramJSON is a Histogram's wire form: cumulative upper bounds in
// milliseconds with the +Inf bucket (-1 sentinel) last.
type histogramJSON struct {
	Count     int64     `json:"count"`
	MeanMs    float64   `json:"mean_ms"`
	BucketsMs []float64 `json:"buckets_ms"`
	Counts    []int64   `json:"counts"`
}

func (h *Histogram) MarshalJSON() ([]byte, error) {
	s := histogramJSON{Count: h.count.Load()}
	if s.Count > 0 {
		s.MeanMs = float64(h.sum.Load()) / float64(s.Count) / 1e6
	}
	for i, b := range bounds {
		s.BucketsMs = append(s.BucketsMs, float64(b)/1e6)
		s.Counts = append(s.Counts, h.counts[i].Load())
	}
	s.BucketsMs = append(s.BucketsMs, -1)
	s.Counts = append(s.Counts, h.counts[len(bounds)].Load())
	return json.Marshal(s)
}

// UnmarshalJSON restores a histogram from its wire form. The nanosecond sum
// is recovered from the mean, exactly for any total below about 13 days of
// observed latency, so a decoded histogram re-marshals to the same mean.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	var s histogramJSON
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	if len(s.Counts) != len(h.counts) {
		return fmt.Errorf("telemetry: histogram has %d buckets, want %d", len(s.Counts), len(h.counts))
	}
	for i, c := range s.Counts {
		h.counts[i].Store(c)
	}
	h.count.Store(s.Count)
	h.sum.Store(int64(math.Round(s.MeanMs * 1e6 * float64(s.Count))))
	return nil
}

func (h *Histogram) merge(src *Histogram) {
	for i := range h.counts {
		h.counts[i].Add(src.counts[i].Load())
	}
	h.count.Add(src.count.Load())
	h.sum.Add(src.sum.Load())
}

// Merge folds src into dst, two pointers to the same struct type. Counter
// fields add, Max fields keep the larger value and Histogram fields merge
// bucket by bucket. Exported nested structs, struct pointers and maps of
// struct pointers are walked, allocating on the dst side as needed; any
// other field is left alone. Merging into a zero value takes a snapshot.
//
// The walk uses reflection, so it belongs on the /metrics path, never on a
// request path.
func Merge[T any](dst, src *T) {
	mergeValue(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem())
}

func mergeValue(dst, src reflect.Value) {
	switch d := dst.Addr().Interface().(type) {
	case *Counter:
		d.Add(src.Addr().Interface().(*Counter).Load())
		return
	case *Max:
		d.Observe(src.Addr().Interface().(*Max).Load())
		return
	case *Histogram:
		d.merge(src.Addr().Interface().(*Histogram))
		return
	}
	switch dst.Kind() {
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			if dst.Type().Field(i).IsExported() {
				mergeValue(dst.Field(i), src.Field(i))
			}
		}
	case reflect.Pointer:
		if src.IsNil() {
			return
		}
		if dst.IsNil() {
			dst.Set(reflect.New(dst.Type().Elem()))
		}
		mergeValue(dst.Elem(), src.Elem())
	case reflect.Map:
		if src.Len() == 0 {
			return
		}
		if dst.IsNil() {
			dst.Set(reflect.MakeMap(dst.Type()))
		}
		iter := src.MapRange()
		for iter.Next() {
			d := dst.MapIndex(iter.Key())
			if !d.IsValid() {
				d = reflect.New(dst.Type().Elem().Elem())
				dst.SetMapIndex(iter.Key(), d)
			}
			mergeValue(d.Elem(), iter.Value().Elem())
		}
	}
}
