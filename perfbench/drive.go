package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"rtmap/internal/serve"
)

// client is the benchmark's load generator: one keep-alive connection
// per caller, each caller waiting for its reply before the next send.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string, callers int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: callers, MaxConnsPerHost: callers}
	return &client{hc: &http.Client{Transport: tr}, url: url + "/v1/infer"}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// shot is one request's outcome.
type shot struct {
	wall    time.Duration // send to last response byte
	status  int
	resp    *serve.InferResponse // decoded 200 body
	err     error                // transport, status or decode failure
	checked error                // reference mismatch of a 200 body
}

func (c *client) send(b *body, traceID string) shot {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(b.json))
	if err != nil {
		return shot{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(serve.TraceHeader, traceID)
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return shot{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s := shot{wall: time.Since(t0), status: resp.StatusCode, err: err}
	if s.err != nil {
		return s
	}
	if resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return s
	}
	var out serve.InferResponse
	if err := json.Unmarshal(data, &out); err != nil {
		s.err = fmt.Errorf("decoding response: %w", err)
		return s
	}
	s.resp, s.checked = &out, b.check(&out)
	return s
}

// firstCorrect sends b once and fails unless the reply is correct.
func (c *client) firstCorrect(b *body) error {
	s := c.send(b, "")
	if s.err == nil {
		s.err = s.checked
	}
	return s.err
}

// window is what a closed-loop run measured.
type window struct {
	tally
	start   time.Time
	reqs    []done        // correct requests only
	samples int           // samples of correct requests
	batches float64       // Σ over served samples of 1 / batch size
	elapsed time.Duration // first send to last reply
	// energyPJ and served are, per model variant, the sum over served
	// samples of their batch's energy divided by its size, and the
	// number of samples served.
	energyPJ map[uint64]float64
	served   map[uint64]int
	traced   map[string]time.Duration
	kept     []*serve.InferResponse // a few replies for the encode probe
	firstErr error
}

const keepReplies = 64

func (w *window) merge(o *window) {
	w.tally.add(o.tally)
	w.reqs = append(w.reqs, o.reqs...)
	w.samples += o.samples
	w.batches += o.batches
	for v, e := range o.energyPJ {
		w.energyPJ[v] += e
		w.served[v] += o.served[v]
	}
	for id, d := range o.traced {
		w.traced[id] = d
	}
	if room := keepReplies - len(w.kept); room > 0 {
		w.kept = append(w.kept, o.kept[:min(room, len(o.kept))]...)
	}
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
}

func newWindow(start time.Time) *window {
	return &window{start: start, traced: map[string]time.Duration{}, energyPJ: map[uint64]float64{}, served: map[uint64]int{}}
}

// record books one reply to b.
func (w *window) record(b *body, s shot, traceID string) {
	w.attempted++
	switch {
	case s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable:
		w.refused++
	case s.err != nil:
		w.failed++
	case s.checked != nil:
		w.mismatched++
	}
	if err := firstOf(s.err, s.checked); err != nil {
		if w.firstErr == nil {
			w.firstErr = err
		}
		return
	}
	w.reqs = append(w.reqs, done{at: time.Since(w.start), wall: s.wall, samples: len(s.resp.Results)})
	w.samples += len(s.resp.Results)
	for _, r := range s.resp.Results {
		w.energyPJ[b.variant] += r.Batch.SimEnergyPJ / float64(r.Batch.Size)
		w.batches += 1 / float64(r.Batch.Size)
	}
	w.served[b.variant] += len(s.resp.Results)
	if traceID != "" {
		w.traced[traceID] = s.wall
	}
	if len(w.kept) < keepReplies {
		w.kept = append(w.kept, s.resp)
	}
}

func firstOf(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// drive runs callers closed-loop over the fixture's bodies for d. With
// tag non-empty every request carries a fresh trace ID under that tag,
// and more reports whether another traced request still fits the span
// rings; a caller stops early once it does not.
func (c *client) drive(f *fixture, callers int, d time.Duration, tag string, more func() bool) *window {
	start := time.Now()
	deadline := start.Add(d)
	parts := make([]*window, callers)
	var wg sync.WaitGroup
	for k := range parts {
		parts[k] = newWindow(start)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := parts[k]
			for i := 0; time.Now().Before(deadline); i++ {
				id := ""
				if tag != "" {
					if !more() {
						break
					}
					id = fmt.Sprintf("%s-%d-%d", tag, k, i)
				}
				b := f.bodies[(k+i)%len(f.bodies)]
				w.record(b, c.send(b, id), id)
			}
		}()
	}
	wg.Wait()
	out := newWindow(start)
	out.elapsed = time.Since(start)
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// energyPerInferPJ is the simulated energy per sample, averaged over the
// model variants with equal weight, so that the mix of variants a run
// happened to serve does not move it.
func (w *window) energyPerInferPJ() float64 {
	var sum float64
	for v, e := range w.energyPJ {
		sum += e / float64(w.served[v])
	}
	return sum / float64(len(w.energyPJ))
}

// inferPerS is samples served per second of the window.
func (w *window) inferPerS() float64 { return float64(w.samples) / w.elapsed.Seconds() }
