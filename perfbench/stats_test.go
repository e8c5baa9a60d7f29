package main

import (
	"errors"
	"net/http"
	"testing"
	"time"

	"rtmap/internal/serve"
	"rtmap/internal/trace"
)

func TestPercentileRuleLeavesTenBeyond(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 95: 95, 99: 99, 100: 100} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("p%g of 1..100 = %g, want %g", p, got, want)
		}
	}
	for p, n := range map[float64]int{50: 20, 95: 200, 99: 1000} {
		if got := need(p); got != n {
			t.Errorf("need(%g) = %d, want %d", p, got, n)
		}
		if beyond(n, p) != minBeyond || beyond(n-1, p) >= minBeyond {
			t.Errorf("p%g: %d samples leave %d beyond, %d leave %d", p, n, beyond(n, p), n-1, beyond(n-1, p))
		}
	}
}

func TestWindowedKeepsEnoughSamplesPerWindow(t *testing.T) {
	reqs := make([]done, 2500)
	for i := range reqs {
		// Every request 1 ms apart, 1 ms wall, two samples; the list
		// arrives out of completion order.
		j := len(reqs) - 1 - i
		reqs[i] = done{at: time.Duration(j+1) * time.Millisecond, wall: time.Millisecond, samples: 2}
	}
	rate, p50, tailMS, k := windowed(reqs, 99)
	if k != 2 {
		t.Fatalf("2500 requests at p99 make %d windows, want 2 of at least %d", k, need(99))
	}
	if rate < 1999 || rate > 2001 || p50 != 1 || tailMS != 1 {
		t.Errorf("rate %g p50 %g tail %g, want 2000/s, 1 ms, 1 ms", rate, p50, tailMS)
	}

	// A stall confined to one of five windows moves no median.
	reqs = make([]done, 100)
	for i := range reqs {
		wall := time.Millisecond
		if i < 20 {
			wall = 50 * time.Millisecond
		}
		reqs[i] = done{at: time.Duration(i+1) * time.Millisecond, wall: wall, samples: 1}
	}
	if _, p50, tailMS, k = windowed(reqs, 50); k != 5 || p50 != 1 || tailMS != 1 {
		t.Errorf("stalled first window: k %d p50 %g tail %g, want 5 windows reading 1 ms", k, p50, tailMS)
	}
}

func TestUnattributedNeverNegative(t *testing.T) {
	httpIv := interval{0, 100}
	for _, c := range []struct {
		name string
		ivs  []interval
		want time.Duration
	}{
		{"one sample tiles wait, queue, exec", []interval{{10, 40}, {40, 50}, {50, 90}}, 20},
		{"two samples in one batch overlap once", []interval{{10, 50}, {12, 50}, {50, 60}, {50, 60}, {60, 90}, {60, 90}}, 20},
		{"two batches with a gap", []interval{{0, 30}, {50, 80}}, 40},
		{"spans past the http span are clipped", []interval{{-20, 60}, {60, 130}}, 0},
		{"no item spans", nil, 100},
	} {
		r := reqLayers{http: 100, covered: time.Duration(union(c.ivs, httpIv))}
		if got := r.unattributed(); got != c.want {
			t.Errorf("%s: unattributed %d, want %d", c.name, got, c.want)
		}
	}
	// Clock skew between spans can make covered exceed http.
	if got := (reqLayers{http: 10, covered: 12}).unattributed(); got != 0 {
		t.Errorf("covered beyond http: unattributed %d, want 0", got)
	}
}

func TestJoinByTraceID(t *testing.T) {
	walls := map[string]time.Duration{"a": 1000, "b": 2000}
	spans := []trace.Span{
		{TraceID: "a", Name: "route", Start: 0, Dur: 950},
		{TraceID: "a", Name: "http", Start: 100, Dur: 800},
		{TraceID: "a", Name: "wait", Start: 150, Dur: 100},
		{TraceID: "a", Name: "wait", Start: 160, Dur: 90},
		{TraceID: "a", Name: "queue", Start: 250, Dur: 50},
		{TraceID: "a", Name: "exec", Start: 300, Dur: 400},
		{TraceID: "b", Name: "http", Start: 0, Dur: 1500},
		{TraceID: "other", Name: "http", Start: 0, Dur: 5},
	}
	rows, err := join(walls, spans)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2 (spans of unknown IDs are ignored)", len(rows))
	}
	var a reqLayers
	for _, r := range rows {
		if r.wall == 1000 {
			a = r
		}
	}
	want := reqLayers{wall: 1000, route: 950, http: 800, wait: 100, queue: 50, exec: 400, covered: 550}
	if a != want {
		t.Errorf("request a joined as %+v, want %+v", a, want)
	}
	if a.unattributed() != 250 {
		t.Errorf("request a: unattributed %d, want 250", a.unattributed())
	}

	delete(walls, "b")
	walls["lost"] = 10
	if _, err := join(walls, spans); err == nil {
		t.Error("a request whose http span is missing joined without error")
	}
}

func TestErrorShareAccounting(t *testing.T) {
	b := &body{logits: [][]int32{{1, 2, 3}}, argmax: []int{2}}
	ok := &serve.InferResponse{Results: []serve.InferResult{{Logits: []int32{1, 2, 3}, Argmax: 2,
		Batch: serve.BatchInfo{Size: 2, SimEnergyPJ: 10}}}}
	wrong := &serve.InferResponse{Results: []serve.InferResult{{Logits: []int32{1, 2, 4}, Argmax: 2}}}
	short := &serve.InferResponse{}

	w := newWindow(time.Now())
	w.record(b, shot{status: http.StatusOK, resp: ok, checked: b.check(ok)}, "t1")
	w.record(b, shot{status: http.StatusOK, resp: wrong, checked: b.check(wrong)}, "")
	w.record(b, shot{status: http.StatusOK, resp: short, checked: b.check(short)}, "")
	w.record(b, shot{status: http.StatusTooManyRequests, err: errors.New("HTTP 429")}, "")
	w.record(b, shot{status: http.StatusServiceUnavailable, err: errors.New("HTTP 503")}, "")
	w.record(b, shot{err: errors.New("connection refused")}, "")
	w.record(b, shot{status: http.StatusInternalServerError, err: errors.New("HTTP 500")}, "")

	want := tally{attempted: 7, failed: 2, refused: 2, mismatched: 2}
	if w.tally != want {
		t.Errorf("tally %+v, want %+v", w.tally, want)
	}
	if got := w.errorShare(); got != 6.0/7 {
		t.Errorf("error share %g, want 6/7", got)
	}
	if len(w.reqs) != 1 || w.samples != 1 || w.energyPerInferPJ() != 5 || w.batches != 0.5 || len(w.traced) != 1 {
		t.Errorf("only the correct reply may count: reqs %d samples %d energy %g batches %g traced %d",
			len(w.reqs), w.samples, w.energyPerInferPJ(), w.batches, len(w.traced))
	}
	if (tally{}).errorShare() != 1 {
		t.Error("a window with no attempts must not read as error-free")
	}
}
