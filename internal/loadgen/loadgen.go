package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rtmap/internal/serve"
	"rtmap/internal/tensor"
	"rtmap/internal/workload"
)

// maxInFlight bounds the open loop's concurrent requests: under
// overload the pacer blocks instead of piling up goroutines, which turns
// excess arrivals into client-side queueing every run sees alike.
const maxInFlight = 512

// Body is one pre-built /v1/infer payload. Want, when set, holds the
// expected logits of each result; otherwise every 200 for this body must
// match the first 200 seen for it.
type Body struct {
	JSON []byte
	Want [][]int32
}

// Bodies builds n bodies from the req template, each carrying batch
// synthetic inputs of the given shape (workload.InputData at seed).
func Bodies(req serve.InferRequest, shape tensor.Shape, n, batch int, seed uint64) ([]Body, error) {
	data := workload.InputData(shape, n*batch, seed)
	out := make([]Body, n)
	for i := range out {
		req.Inputs = data[i*batch : (i+1)*batch]
		b, err := json.Marshal(&req)
		if err != nil {
			return nil, err
		}
		out[i].JSON = b
	}
	return out, nil
}

// Class is one entry of a request mix: the priority class header and
// the deadline budget its requests carry (0 = none), drawn in
// proportion to Weight.
type Class struct {
	Name       string
	Weight     int
	DeadlineMS float64
}

// schedule fills one slot per unit of total weight, each going to the
// class furthest behind its weight share (Bresenham-style), so classes
// interleave and two runs offer the same class sequence.
func schedule(classes []Class) []*Class {
	total := 0
	for _, c := range classes {
		total += c.Weight
	}
	out := make([]*Class, 0, total)
	assigned := make([]int, len(classes))
	for i := 0; i < total; i++ {
		best, bestLag := 0, -1.0
		for j, c := range classes {
			lag := float64(c.Weight)*float64(i+1)/float64(total) - float64(assigned[j])
			if lag > bestLag {
				best, bestLag = j, lag
			}
		}
		assigned[best]++
		out = append(out, &classes[best])
	}
	return out
}

// Options shapes one run. Request n uses body n mod len(Bodies) (or its
// worker's body when Pinned) and class n of the mix schedule.
type Options struct {
	URL     string // server or router base URL; requests POST URL/v1/infer
	Bodies  []Body
	Classes []Class // request mix; nil sends no class or deadline headers

	Workers  int           // closed-loop workers (per body when Pinned)
	Pinned   bool          // give every body its own Workers instead of one shared pool
	Rate     float64       // > 0: open loop at this many arrivals per second
	Duration time.Duration // stop issuing after this long (0: when ctx ends)

	Retries     int           // re-fires per request on retryable outcomes
	Timeout     time.Duration // client timeout per attempt (0: none)
	TraceSample int           // send a trace ID on 1-in-N requests (0: none)

	// Transport, when set, carries every request instead of TCP (an
	// in-process server, whose socket and HTTP overhead would otherwise
	// share the host with what the run measures).
	Transport http.RoundTripper
}

// Tally is the outcome ledger of a set of requests, by final outcome.
type Tally struct {
	DeadlineMS  float64
	Sent        int64
	OK          int64
	Goodput     int64 // OK and inside the request's deadline budget
	Shed        int64 // HTTP 429
	Expired     int64 // HTTP 503 of kind "expired"
	Unavailable int64 // any other HTTP 503
	Failed      int64 // every other outcome
}

// Result is one run's ledger.
type Result struct {
	Elapsed    time.Duration // first issue to last completion
	Total      Tally
	Classes    map[string]*Tally        // per class; nil without a mix
	Categories map[string]int64         // taxonomy tally across attempts
	Latencies  []time.Duration          // per-request wall of each OK, retries included
	Attempts   []time.Duration          // per-attempt round trip, every outcome
	Retries    int64                    // re-fired attempts
	Checked    int64                    // OKs compared against a reference answer
	Mismatches int64                    // OKs whose logits differ from it
	Samples    []string                 // the first few failure descriptions
	Traces     map[string]time.Duration // sampled trace ID -> wall of its OK
}

// outcome is one attempt's classified result.
type outcome struct {
	category string
	kind     string    // error document kind of a non-200
	logits   [][]int32 // per result, 200s only
	detail   string    // failure description
}

type gen struct {
	ctx      context.Context
	o        Options
	until    time.Time
	url      string
	client   *http.Client
	schedule []*Class
	prefix   string
	n        atomic.Int64

	mu    sync.Mutex
	first [][][]int32 // per body: the reference answer
	res   Result
}

// client builds the run's HTTP client: Transport when set, otherwise a
// TCP transport keeping an idle connection per concurrent request.
func (o Options) client() *http.Client {
	if o.Transport != nil {
		return &http.Client{Transport: o.Transport, Timeout: o.Timeout}
	}
	conns := o.Workers
	if o.Rate > 0 {
		conns = maxInFlight
	} else if o.Pinned {
		conns *= len(o.Bodies)
	}
	return &http.Client{
		Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns},
		Timeout:   o.Timeout,
	}
}

// Warm sends Bodies[0] once and requires a 200: it admits (compiles) the
// model before a measured run.
func Warm(o Options) error {
	client := o.client()
	defer client.CloseIdleConnections()
	resp, err := client.Post(o.URL+"/v1/infer", "application/json", bytes.NewReader(o.Bodies[0].JSON))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body) // quoted in the error only
		return fmt.Errorf("warm-up: HTTP %d: %.200s", resp.StatusCode, raw)
	}
	return nil
}

// Run drives load until ctx ends or Duration elapses, then waits for the
// requests in flight. Requests carry ctx: one cut short by its end is
// cancelled and left out of the ledger.
func Run(ctx context.Context, o Options) *Result {
	g := &gen{
		ctx:      ctx,
		o:        o,
		url:      o.URL + "/v1/infer",
		client:   o.client(),
		schedule: schedule(o.Classes),
		prefix:   fmt.Sprintf("load%09x.", time.Now().UnixNano()&0xfffffffff),
		first:    make([][][]int32, len(o.Bodies)),
		res:      Result{Categories: map[string]int64{}, Traces: map[string]time.Duration{}},
	}
	defer g.client.CloseIdleConnections()
	if o.Classes != nil {
		g.res.Classes = map[string]*Tally{}
		for _, c := range o.Classes {
			g.res.Classes[c.Name] = &Tally{DeadlineMS: c.DeadlineMS}
		}
	}
	start := time.Now()
	if o.Duration > 0 {
		g.until = start.Add(o.Duration)
	}
	if o.Rate > 0 {
		pace(g.issuing, o.Rate, func(n int) { g.fire(n, n%len(o.Bodies)) })
	} else {
		g.closedLoop()
	}
	g.res.Elapsed = time.Since(start)
	return &g.res
}

func (g *gen) issuing() bool {
	return g.ctx.Err() == nil && (g.until.IsZero() || time.Now().Before(g.until))
}

// closedLoop runs workers that each fire their next request as soon as
// the previous one returns: one shared pool cycling the bodies, or with
// Pinned, Workers per body. A shared pool equalizes per-body rates (the
// slowest owner gates every cycle); pinned workers let each body's
// owner run at its own capacity.
func (g *gen) closedLoop() {
	pools := 1
	if g.o.Pinned {
		pools = len(g.o.Bodies)
	}
	var wg sync.WaitGroup
	for p := 0; p < pools; p++ {
		for w := 0; w < max(g.o.Workers, 1); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for g.issuing() {
					n := int(g.n.Add(1) - 1)
					b := n % len(g.o.Bodies)
					if g.o.Pinned {
						b = p
					}
					g.fire(n, b)
				}
			}()
		}
	}
	wg.Wait()
}

// pace calls fire(n) for n = 0, 1, ... at rate arrivals per second while
// issuing holds, each on its own goroutine. Catch-up pacing: every
// wakeup dispatches all the arrivals the schedule owes, because a
// sleep or ticker tops out near the kernel timer granularity and
// silently under-delivers rates above a few hundred per second.
func pace(issuing func() bool, rate float64, fire func(n int)) {
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for n := 0; issuing(); time.Sleep(time.Millisecond) {
		for due := int(rate * time.Since(start).Seconds()); n < due; n++ {
			sem <- struct{}{}
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				defer func() { <-sem }()
				fire(n)
			}(n)
		}
	}
	wg.Wait()
}

// fire issues request n with body b end to end: attempts, retries with
// capped backoff, and the final outcome into the ledger.
func (g *gen) fire(n, b int) {
	var class *Class
	if len(g.schedule) > 0 {
		class = g.schedule[n%len(g.schedule)]
	}
	var traceID string
	if k := g.o.TraceSample; k > 0 && (n+1)%k == 0 {
		traceID = fmt.Sprintf("%s%d", g.prefix, n+1)
	}
	t0 := time.Now()
	var out outcome
	for attempt := 0; ; attempt++ {
		a0 := time.Now()
		out = g.attempt(g.o.Bodies[b].JSON, class, traceID)
		if out.category == "cancelled" {
			return
		}
		g.mu.Lock()
		g.res.Attempts = append(g.res.Attempts, time.Since(a0))
		g.res.Categories[out.category]++
		g.mu.Unlock()
		if attempt >= g.o.Retries || !retryable(out) {
			break
		}
		backoff := min((10*time.Millisecond)<<min(attempt, 5), 250*time.Millisecond)
		select {
		case <-g.ctx.Done():
			return
		case <-time.After(backoff):
		}
		g.mu.Lock()
		g.res.Retries++
		g.mu.Unlock()
	}
	g.record(b, class, traceID, time.Since(t0), out)
}

// attempt sends one request, setting the trace, class and deadline
// headers, and classifies what came back.
func (g *gen) attempt(body []byte, class *Class, traceID string) outcome {
	req, err := http.NewRequestWithContext(g.ctx, http.MethodPost, g.url, bytes.NewReader(body))
	if err != nil {
		return outcome{category: "other", detail: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(serve.TraceHeader, traceID)
	}
	if class != nil {
		req.Header.Set(serve.ClassHeader, class.Name)
		if class.DeadlineMS > 0 {
			req.Header.Set(serve.DeadlineHeader, fmt.Sprintf("%g", class.DeadlineMS))
		}
	}
	resp, err := g.client.Do(req)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		return outcome{category: classify(g.ctx, 0, err), detail: err.Error()}
	}
	out := outcome{category: classify(g.ctx, resp.StatusCode, nil)}
	if resp.StatusCode != http.StatusOK {
		var doc struct {
			Kind string `json:"kind"`
		}
		_ = json.Unmarshal(raw, &doc) // a body that is no error document has no kind
		out.kind = doc.Kind
		out.detail = fmt.Sprintf("HTTP %d: %.120s", resp.StatusCode, raw)
		return out
	}
	var ans struct {
		Results []struct {
			Logits []int32 `json:"logits"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &ans); err != nil {
		return outcome{category: "other", detail: "malformed 200: " + err.Error()}
	}
	for _, r := range ans.Results {
		out.logits = append(out.logits, r.Logits)
	}
	return out
}

// classify maps an attempt onto the taxonomy: HTTP answers by status,
// transport failures by cause, and any failure after the caller's own
// ctx ended as cancelled. The categories say how a run failed: a
// refused dial means nobody listens, a timeout that something accepted
// and stalled, a 503 that a server answered and declined.
func classify(ctx context.Context, status int, err error) string {
	switch {
	case err == nil && status == http.StatusOK:
		return "ok"
	case err == nil && status == http.StatusTooManyRequests:
		return "http_429"
	case err == nil && status == http.StatusServiceUnavailable:
		return "http_503"
	case err == nil && status >= 500:
		return "http_5xx"
	case err == nil && status >= 400:
		return "http_4xx"
	case err == nil:
		return "other"
	case ctx.Err() != nil:
		return "cancelled"
	case errors.Is(err, syscall.ECONNREFUSED):
		return "connect_refused"
	case errors.Is(err, syscall.ECONNRESET), errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return "reset" // the peer dropped the connection before a full answer
	}
	if ne := net.Error(nil); errors.As(err, &ne) && ne.Timeout() {
		return "timeout"
	}
	return "other"
}

// retryable reports whether an attempt is transient enough to re-fire:
// refused dials, timeouts, resets, and 503s other than an expired
// deadline (a shedding or draining server invites a retry; an expired
// budget cannot succeed on one).
func retryable(out outcome) bool {
	switch out.category {
	case "connect_refused", "timeout", "reset":
		return true
	case "http_503":
		return out.kind != "expired"
	}
	return false
}

// record books a request's final outcome into the total and class
// ledgers, and checks a 200's logits against its body's reference.
func (g *gen) record(b int, class *Class, traceID string, wall time.Duration, out outcome) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := &g.res
	good := class == nil || class.DeadlineMS == 0 || wall.Seconds()*1e3 <= class.DeadlineMS
	r.Total.add(out, good)
	if class != nil {
		r.Classes[class.Name].add(out, good)
	}
	if out.category != "ok" {
		if out.category != "http_429" && out.category != "http_503" {
			r.sample(fmt.Sprintf("body %d: %s: %s", b, out.category, out.detail))
		}
		return
	}
	r.Latencies = append(r.Latencies, wall)
	if traceID != "" {
		r.Traces[traceID] = wall
	}
	want := g.o.Bodies[b].Want
	if want == nil {
		if want = g.first[b]; want == nil {
			g.first[b] = out.logits
			return
		}
	}
	r.Checked++
	if !slices.EqualFunc(want, out.logits, slices.Equal[[]int32]) {
		r.Mismatches++
		r.sample(fmt.Sprintf("body %d: logits diverged from the reference answer", b))
	}
}

func (t *Tally) add(out outcome, good bool) {
	t.Sent++
	switch {
	case out.category == "ok":
		t.OK++
		if good {
			t.Goodput++
		}
	case out.category == "http_429":
		t.Shed++
	case out.category == "http_503" && out.kind == "expired":
		t.Expired++
	case out.category == "http_503":
		t.Unavailable++
	default:
		t.Failed++
	}
}

func (r *Result) sample(s string) {
	if len(r.Samples) < 8 {
		r.Samples = append(r.Samples, s)
	}
}
