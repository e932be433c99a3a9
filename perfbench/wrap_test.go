package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"testing"

	"mpass/internal/corpus"
	"mpass/internal/detect"
	"mpass/internal/engine"
)

// modelDir holds a small trained suite shared by the tests below.
var modelDir string

func TestMain(m *testing.M) {
	code, err := withModels(m)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(code)
}

func withModels(m *testing.M) (int, error) {
	dir, err := os.MkdirTemp("", "perfbench-models-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	set, err := train(20, 20)
	if err != nil {
		return 0, err
	}
	if err := engine.SaveDir(dir, set); err != nil {
		return 0, err
	}
	modelDir = dir
	return m.Run(), nil
}

func loadModels(t *testing.T) *engine.Set {
	t.Helper()
	set, _, err := engine.LoadPath(modelDir)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func sampleRaws(n int) [][]byte {
	g := corpus.NewGenerator(99)
	raws := make([][]byte, n)
	for i := range raws {
		raws[i] = g.Sample(corpus.Family(i % 2)).Raw
	}
	return raws
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// The traced set must be the same program: same digest, same capabilities
// through the probes, the same MPass ensemble, and bit-identical scores and
// gradients.
func TestWrapSetKeepsTheProgram(t *testing.T) {
	set := loadModels(t)
	rec := newRecorder()
	rec.on.Store(true)
	traced, err := wrapSet(set, rec)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Version() != set.Version() {
		t.Fatalf("traced set version %s, want %s", traced.Version(), set.Version())
	}
	raws := sampleRaws(6)
	for i, d := range set.Drivers() {
		td := traced.Drivers()[i]
		_, ps := engine.StreamerOf(d)
		_, ts := engine.StreamerOf(td)
		_, pq := engine.QuantizerOf(d)
		_, tq := engine.QuantizerOf(td)
		if ps != ts || pq != tq {
			t.Errorf("%s: streaming %v/%v quantizer %v/%v (plain/traced)", d.Name(), ps, ts, pq, tq)
		}
		pt, _ := d.(detect.Thresholder)
		tt, ok := td.(detect.Thresholder)
		if !ok || pt.DecisionThreshold() != tt.DecisionThreshold() {
			t.Errorf("%s: traced driver lost its decision threshold", d.Name())
		}
		if !sameBits(d.ScoreBatch(raws), td.ScoreBatch(raws)) {
			t.Errorf("%s: ScoreBatch differs under tracing", d.Name())
		}
		for _, raw := range raws {
			if !sameBits([]float64{d.Score(raw)}, []float64{td.Score(raw)}) {
				t.Errorf("%s: Score differs under tracing", d.Name())
			}
		}
	}
	for _, target := range set.Names() {
		plain := engine.GradientModels(set, target)
		wrapped := engine.GradientModels(traced, target)
		if len(plain) != len(wrapped) {
			t.Fatalf("target %s: ensemble of %d, traced %d", target, len(plain), len(wrapped))
		}
		for k := range plain {
			tg, ok := wrapped[k].(*tracedGradDriver)
			if !ok || tg.g != plain[k] {
				t.Errorf("target %s: ensemble member %d is %T, not the traced %s", target, k, wrapped[k], plain[k].Name())
				continue
			}
			a := plain[k].InputGradient(raws[0], 0)
			b := wrapped[k].InputGradient(raws[0], 0)
			if a.Score != b.Score || !sameBits(a.Grad, b.Grad) {
				t.Errorf("target %s: %s gradient differs under tracing", target, plain[k].Name())
			}
			a.Release()
			b.Release()
		}
	}
	spans, members := rec.snapshot()
	kinds := map[spanKind]int{}
	for _, s := range spans {
		kinds[s.kind]++
	}
	if kinds[spanScoreBatch] != set.Len() || kinds[spanGradient] == 0 || len(members) != len(raws) {
		t.Errorf("recorded %v spans and %d flush members", kinds, len(members))
	}
}

// A traced stack serves the same answers: a streamed scan takes the
// streaming path with the same scores, and a campaign has the same
// per-job outcomes, hence the same ASR and AVQ.
func TestTracedStackServesTheSameAnswers(t *testing.T) {
	set := loadModels(t)
	in := newInputs(3, 1, set.Names())
	big := append(append([]byte(nil), in.hot[0].raw...), make([]byte, 3<<19)...)
	cl := &http.Client{}
	defer cl.CloseIdleConnections()
	type outcome struct {
		scan   []byte
		stream int64
		jobs   []string
	}
	var got [2]outcome
	for i := range got {
		var rec *recorder
		if i == 1 {
			rec = newRecorder()
			rec.on.Store(true)
		}
		st, err := buildStack(modelDir, t.TempDir(), 1, false, rec)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, st.base+"/v1/scan", bytes.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		status, data, err := do(cl, req)
		if err != nil || status != http.StatusOK {
			t.Fatalf("streamed scan: status %d, %v", status, err)
		}
		var doc scanDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		got[i].scan, _ = json.Marshal(doc)
		got[i].stream = st.replicas[0].srv.Metrics().ScansStreamed.Load()

		c := runCampaign(context.Background(), cl, st.base, in.jobs, rec)
		if c.t.OK != int64(len(in.jobs)) {
			t.Fatalf("campaign: %+v %v", c.t, c.errors)
		}
		sort.Slice(c.jobs, func(a, b int) bool { return c.jobs[a].id < c.jobs[b].id })
		for _, j := range c.jobs {
			got[i].jobs = append(got[i].jobs, fmt.Sprintf("%s %s success=%v queries=%d rounds=%d",
				j.id, j.spec.target, *j.view.Success, *j.view.Queries, *j.view.Rounds))
		}
		if err := st.close(); err != nil {
			t.Fatal(err)
		}
	}
	if got[0].stream != 1 || got[1].stream != 1 {
		t.Errorf("streamed scans plain %d traced %d, want 1 each", got[0].stream, got[1].stream)
	}
	if !bytes.Equal(got[0].scan, got[1].scan) {
		t.Errorf("streamed scan differs under tracing:\n%s\n%s", got[0].scan, got[1].scan)
	}
	if fmt.Sprint(got[0].jobs) != fmt.Sprint(got[1].jobs) {
		t.Errorf("campaign differs under tracing:\nplain  %v\ntraced %v", got[0].jobs, got[1].jobs)
	}
}
