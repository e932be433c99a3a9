package main

import (
	"errors"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // reversed, so percentile must sort
	}
	return out
}

func TestPercentile(t *testing.T) {
	cases := []struct {
		n     int
		q     float64
		want  float64
		refus bool
	}{
		{n: 1000, q: 0.99, want: 990},
		{n: 999, q: 0.99, refus: true}, // 9 samples beyond p99
		{n: 20, q: 0.50, want: 10},
		{n: 19, q: 0.50, refus: true},
		{n: 0, q: 0.50, refus: true},
		{n: 2000, q: 0.50, want: 1000},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.q)
		if c.refus {
			if err == nil {
				t.Errorf("n=%d p%g: got %v, want a refusal", c.n, 100*c.q, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("n=%d p%g: %v", c.n, 100*c.q, err)
			continue
		}
		if got.Value != c.want || got.N != c.n {
			t.Errorf("n=%d p%g = %v (n=%d), want %v (n=%d)", c.n, 100*c.q, got.Value, got.N, c.want, c.n)
		}
	}
}

func TestTallyCountsEachOperationOnce(t *testing.T) {
	bad := errors.New("boom")
	cases := []struct {
		name      string
		status    int
		err, derr error
		want      tally
	}{
		{"ok", 200, nil, nil, tally{Attempted: 1, OK: 1}},
		{"200 with undecodable body", 200, nil, bad, tally{Attempted: 1, Failed: 1}},
		{"shed", 429, nil, nil, tally{Attempted: 1, Shed: 1}},
		{"timeout status", 504, nil, nil, tally{Attempted: 1, Failed: 1}},
		{"transport error", 0, bad, nil, tally{Attempted: 1, Failed: 1}},
		{"server error with undecodable body", 500, nil, bad, tally{Attempted: 1, Failed: 1}},
	}
	var all tally
	for _, c := range cases {
		var got tally
		got.add(classify(c.status, c.err, c.derr))
		if got != c.want {
			t.Errorf("%s: tally %+v, want %+v", c.name, got, c.want)
		}
		all.merge(got)
	}
	if all.Attempted != int64(len(cases)) || all.OK+all.Shed+all.Failed != all.Attempted {
		t.Errorf("merged tally %+v does not count each operation once", all)
	}
	if got, want := all.errorRatio(), 5.0/6; got != want {
		t.Errorf("error ratio %v, want %v", got, want)
	}
}

func TestCovered(t *testing.T) {
	cases := []struct {
		win   ival
		parts []ival
		want  int64
	}{
		{ival{0, 10}, nil, 0},
		{ival{0, 10}, []ival{{2, 4}, {3, 6}}, 4},         // overlap counted once
		{ival{0, 10}, []ival{{-5, 2}, {8, 20}}, 4},       // clipped to the window
		{ival{0, 10}, []ival{{1, 2}, {4, 5}, {1, 2}}, 2}, // duplicates
		{ival{0, 10}, []ival{{6, 4}}, 0},                 // inverted
	}
	for _, c := range cases {
		if got := covered(c.win, c.parts); got != c.want {
			t.Errorf("covered(%v, %v) = %d, want %d", c.win, c.parts, got, c.want)
		}
	}
}

// Two requests served by one flush each lose their own wait and the shared
// scoring time, and nothing else.
func TestSelfTimeWhenOneFlushServesTwoRequests(t *testing.T) {
	f := &flush{first: 5, parts: []ival{{5, 6}, {6, 7}, {7, 7}, {7, 8}}}
	cases := []struct {
		h          ival
		self, wait int64
	}{
		{ival{0, 10}, 2, 5},
		{ival{1, 9}, 1, 4},
	}
	for _, c := range cases {
		self, wait, scored := requestSelf(c.h, f)
		if !scored || self != c.self || wait != c.wait {
			t.Errorf("handler %v: self %d wait %d scored %v, want self %d wait %d", c.h, self, wait, scored, c.self, c.wait)
		}
	}
	if self, _, scored := requestSelf(ival{3, 7}, nil); scored || self != 4 {
		t.Errorf("cache hit: self %d scored %v, want all 4 self", self, scored)
	}
	flushes := map[int64]*flush{1: {first: 2}, 2: f, 3: {first: 20}}
	if got := flushFor(flushes, []int64{1, 2, 3}, ival{3, 10}); got != f {
		t.Errorf("flushFor picked %+v, want the flush that started inside the handler", got)
	}
}
