package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestRingWrapOldestFirst(t *testing.T) {
	tr := New(4, 0, 0)
	for i := 0; i < 10; i++ {
		tr.Record(Span{Name: "exec", Stage: i, Device: -1, Replica: -1})
	}
	got := tr.Snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(got))
	}
	for i, sp := range got {
		if want := 6 + i; sp.Stage != want {
			t.Errorf("snapshot[%d].Stage = %d, want %d (oldest-first)", i, sp.Stage, want)
		}
	}
	if tr.Total() != 10 {
		t.Errorf("Total = %d, want 10", tr.Total())
	}
}

func TestSnapshotBeforeWrap(t *testing.T) {
	tr := New(8, 0, 0)
	tr.Record(Span{Name: "http"})
	tr.Record(Span{Name: "wait"})
	got := tr.Snapshot()
	if len(got) != 2 || got[0].Name != "http" || got[1].Name != "wait" {
		t.Fatalf("snapshot = %+v, want [http wait]", got)
	}
}

func TestSampling(t *testing.T) {
	tr := New(0, 3, 2)
	var reqs, layers int
	for i := 0; i < 12; i++ {
		if tr.SampleRequest() {
			reqs++
		}
	}
	if reqs != 4 {
		t.Errorf("SampleRequest hit %d of 12 with 1-in-3, want 4", reqs)
	}
	for i := 0; i < 10; i++ {
		if tr.SampleLayers() {
			layers++
		}
	}
	if layers != 5 {
		t.Errorf("SampleLayers hit %d of 10 with 1-in-2, want 5", layers)
	}

	off := New(0, 0, 0)
	if off.SampleRequest() || off.SampleLayers() {
		t.Error("sampling disabled (0) must never sample")
	}
}

func TestSinkJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := New(0, 0, 0)
	tr.SetSink(&buf)
	want := []Span{
		{TraceID: "abc", Name: "http", Model: "tinycnn", Device: -1, Replica: -1, Stage: -1, Dur: 100},
		{TraceID: "abc", Name: "stage", Device: 1, Replica: 0, Stage: 2, Batch: 8, Dur: 50, Detail: "x"},
	}
	for _, sp := range want {
		tr.Record(sp)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var got []Span
	for sc.Scan() {
		var sp Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		got = append(got, sp)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d spans, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d round-trip = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewID()
		if len(id) != 16 {
			t.Fatalf("NewID() = %q, want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

func TestFlushWithoutSink(t *testing.T) {
	tr := New(0, 0, 0)
	tr.Record(Span{Name: "exec"})
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush without sink: %v", err)
	}
}

// Nearest-rank percentiles over tiny samples: every p must stay in
// range and follow the ceil(p·n)-1 definition.
func TestPercentileNearestRank(t *testing.T) {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	cases := []struct {
		name   string
		sorted []time.Duration
		p      float64
		want   float64 // ms
	}{
		{"empty", nil, 0.99, 0},
		{"empty max", nil, 1.0, 0},
		{"n=1 p0", []time.Duration{ms(5)}, 0, 5},
		{"n=1 p50", []time.Duration{ms(5)}, 0.5, 5},
		{"n=1 max", []time.Duration{ms(5)}, 1.0, 5},
		{"n=2 p50 is the lower rank", []time.Duration{ms(1), ms(9)}, 0.5, 1},
		{"n=2 p95", []time.Duration{ms(1), ms(9)}, 0.95, 9},
		{"n=2 max", []time.Duration{ms(1), ms(9)}, 1.0, 9},
		{"n=2 p0 clamps low", []time.Duration{ms(1), ms(9)}, 0, 1},
		// ceil(0.5·4)-1 = 1: the 2nd of 4 observations.
		{"n=4 p50", []time.Duration{ms(1), ms(2), ms(3), ms(4)}, 0.5, 2},
		// ceil(0.99·100)-1 = 98 — the old int(p·(n-1)) truncation hit 98
		// too, but ceil(0.95·100)-1 = 94 vs the old 94.05→94; the
		// definitions diverge at e.g. p=0.9: ceil(90)-1 = 89 vs 89.1→89.
		{"n=100 p99", ramp(ms, 100), 0.99, 99},
		{"n=100 max in range", ramp(ms, 100), 1.0, 100},
	}
	for _, tc := range cases {
		if got := Percentile(tc.sorted, tc.p).Seconds() * 1e3; got != tc.want {
			t.Errorf("%s: Percentile(p=%g) = %g ms, want %g", tc.name, tc.p, got, tc.want)
		}
	}
}

func ramp(ms func(float64) time.Duration, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = ms(float64(i + 1))
	}
	return out
}
