package trace

import (
	"bufio"
	"cmp"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// Span is one timed phase of a request's path through the serving
// stack. The taxonomy (docs/ARCHITECTURE.md "Observability"):
//
//	http     whole /v1/infer handler, wall time (the request's root span)
//	wait     micro-batcher coalescing: item enqueue → batch dispatch
//	queue    fleet queue: batch dispatch → execution start on a device
//	hop      inter-stage transfer of a sharded batch: forward → next stage start
//	exec     whole-model execution of one batch on one device
//	stage    one pipeline stage of a sharded batch (Stage is the index)
//	layer    one layer's ExecPlan interpretation (sampled; Detail names the layer)
//	requeue  failover: the batch reached a dead device (Device) and was requeued
//	shed     admission refused the request (HTTP 429); Detail is the
//	         rejection cause with the live queue-delay estimate
//	expired  the request's deadline passed before execution — at admission,
//	         in the formation queue, on the device queue, or during a
//	         failover requeue; Detail names where
//
// shed and expired are terminal spans: a trace carrying one has no exec
// or stage span, which is how rtmap-trace attributes scheduler rejections
// separately from served work.
//
// Device, Replica and Stage are -1 when the dimension does not apply.
// Spans are plain values with no per-field indirection so recording one
// copies a fixed-size struct and allocates nothing.
type Span struct {
	TraceID string `json:"trace_id"`
	Name    string `json:"name"`
	Model   string `json:"model,omitempty"`
	Device  int    `json:"device"`
	Replica int    `json:"replica"`
	Stage   int    `json:"stage"`
	// Batch is the coalesced batch size the spanned work ran in (0 when
	// not batch-bound).
	Batch int `json:"batch,omitempty"`
	// Start is the span's wall-clock start (UnixNano); Dur its duration.
	Start int64 `json:"start_unix_ns"`
	Dur   int64 `json:"dur_ns"`
	// Detail carries span-specific context: the layer name of a layer
	// span, the failover attempt of a requeue span.
	Detail string `json:"detail,omitempty"`
}

// DefaultCapacity is the span ring size used when a Tracer is built
// with capacity <= 0.
const DefaultCapacity = 4096

// Tracer collects spans into a bounded in-memory ring buffer (newest
// spans overwrite the oldest once full) and, optionally, streams every
// span to a JSONL sink. The record path is allocation-free and a
// single mutex-guarded struct copy, so tracing a sampled request costs
// nanoseconds and tracing nothing costs one branch.
type Tracer struct {
	sampleEvery int // trace 1-in-N headerless requests; 0 = header-only
	layerEvery  int // record layer spans for 1-in-N traced requests; 0 = never

	reqN   atomic.Uint64
	layerN atomic.Uint64

	mu    sync.Mutex
	ring  []Span
	total uint64 // spans ever recorded; ring holds the last len(ring)
	sink  *bufio.Writer
	enc   *json.Encoder
}

// New returns a Tracer with the given ring capacity (<= 0 selects
// DefaultCapacity). sampleEvery traces 1-in-N requests that carry no
// trace header (0 honors only explicit headers); layerEvery records
// per-layer spans for 1-in-N traced requests (0 disables layer spans).
func New(capacity, sampleEvery, layerEvery int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{
		sampleEvery: sampleEvery,
		layerEvery:  layerEvery,
		ring:        make([]Span, capacity),
	}
}

// SetSink streams every subsequently recorded span to w as one JSON
// object per line (the rtmap-serve -trace-out format). The writer is
// buffered; call Flush before reading what it produced.
func (t *Tracer) SetSink(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sink = bufio.NewWriter(w)
	t.enc = json.NewEncoder(t.sink)
}

// Record stores one span. The hot path is a ring-slot copy under the
// mutex; the JSONL sink (when configured) is written inside the same
// critical section so lines never interleave.
//
//rtmap:noalloc
func (t *Tracer) Record(sp Span) {
	t.mu.Lock()
	t.ring[int(t.total%uint64(len(t.ring)))] = sp
	t.total++
	if t.enc != nil {
		t.sinkLocked(sp)
	}
	t.mu.Unlock()
}

// sinkLocked encodes one span onto the JSONL sink. Kept out of Record
// so the ring fast path stays allocation-free (encoding allocates, but
// only runs when a sink is configured). Called with t.mu held.
func (t *Tracer) sinkLocked(sp Span) {
	_ = t.enc.Encode(sp)
}

// SampleRequest reports whether the next headerless request should be
// traced (1-in-sampleEvery; false when sampling is off).
func (t *Tracer) SampleRequest() bool {
	if t.sampleEvery <= 0 {
		return false
	}
	return t.reqN.Add(1)%uint64(t.sampleEvery) == 0
}

// SampleLayers reports whether the next traced request should also
// record per-layer spans (1-in-layerEvery; false when disabled).
func (t *Tracer) SampleLayers() bool {
	if t.layerEvery <= 0 {
		return false
	}
	return t.layerN.Add(1)%uint64(t.layerEvery) == 0
}

// Snapshot returns the retained spans, oldest first.
func (t *Tracer) Snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := uint64(len(t.ring))
	if t.total <= n {
		return append([]Span(nil), t.ring[:t.total]...)
	}
	out := make([]Span, 0, n)
	head := int(t.total % n)
	out = append(out, t.ring[head:]...)
	return append(out, t.ring[:head]...)
}

// Total returns how many spans were ever recorded; Total minus the
// snapshot length is how many the bounded ring dropped.
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Flush drains the JSONL sink's buffer (no-op without a sink).
func (t *Tracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sink == nil {
		return nil
	}
	return t.sink.Flush()
}

// idCounter disambiguates IDs if the random source ever fails.
var idCounter atomic.Uint64

// NewID returns a fresh 16-hex-character trace ID. IDs are random so
// concurrent clients and servers never collide; the generator is off
// every hot path (one call per traced request).
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%015x", idCounter.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// Percentile returns the nearest-rank p-quantile of an ascending slice:
// the smallest element with at least ceil(p·n) observations at or below
// it. The rank clamps to [1, n], so p=0, p=1 and tiny samples (n=0/1/2)
// are all well-defined; an empty slice yields the zero value.
func Percentile[T cmp.Ordered](sorted []T, p float64) T {
	var zero T
	n := len(sorted)
	if n == 0 {
		return zero
	}
	i := min(max(int(math.Ceil(p*float64(n)))-1, 0), n-1)
	return sorted[i]
}
