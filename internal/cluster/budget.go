package cluster

import (
	"slices"
	"sync"
	"time"

	"rtmap/internal/trace"
)

// RetryBudget is a per-model token bucket bounding retry (and hedge)
// amplification: every first attempt of a request earns EarnPerRequest
// tokens (capped at Burst), every retry or hedge spends one. With the
// default 0.1/16 parameters, sustained retries are bounded at ~10% of
// offered load — a total-outage retry storm decays to a trickle instead
// of multiplying the overload that caused it, which is the whole point
// of budgeting retries instead of counting them per request.
type RetryBudget struct {
	// EarnPerRequest tokens are credited per first attempt (default
	// 0.1); Burst caps the accumulated balance (default 16), which is
	// also the initial balance so cold-start failures can still fail
	// over.
	EarnPerRequest float64
	Burst          float64

	mu sync.Mutex
	m  map[string]*bucket
}

type bucket struct{ tokens float64 }

// NewRetryBudget builds a budget table. Zero parameters select the
// defaults (0.1 earned per request, burst 16).
func NewRetryBudget(earn, burst float64) *RetryBudget {
	if earn <= 0 {
		earn = 0.1
	}
	if burst <= 0 {
		burst = 16
	}
	return &RetryBudget{EarnPerRequest: earn, Burst: burst, m: map[string]*bucket{}}
}

// Earn credits the model's bucket for one accepted first attempt.
func (rb *RetryBudget) Earn(model string) {
	rb.mu.Lock()
	b := rb.bucketLocked(model)
	if b.tokens += rb.EarnPerRequest; b.tokens > rb.Burst {
		b.tokens = rb.Burst
	}
	rb.mu.Unlock()
}

// Spend takes one token for a retry or hedge; false means the budget is
// exhausted and the caller must give up rather than amplify.
func (rb *RetryBudget) Spend(model string) bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	b := rb.bucketLocked(model)
	// The epsilon absorbs float accumulation error: ten 0.1-earns sum to
	// 0.9999999999999999, which must still buy one retry.
	if b.tokens < 1-1e-9 {
		return false
	}
	if b.tokens--; b.tokens < 0 {
		b.tokens = 0
	}
	return true
}

// Balance returns the model's current token balance (tests, /cluster).
func (rb *RetryBudget) Balance(model string) float64 {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.bucketLocked(model).tokens
}

// bucketLocked returns the model's bucket, creating it with a full
// burst allowance. Called with rb.mu held.
func (rb *RetryBudget) bucketLocked(model string) *bucket {
	b := rb.m[model]
	if b == nil {
		b = &bucket{tokens: rb.Burst}
		rb.m[model] = b
	}
	return b
}

// latencyWindow tracks recent attempt latencies for one model and
// serves the p95 the hedge delay derives from. A fixed ring of samples
// with a memoized quantile: recomputing the p95 every refreshEvery
// observations keeps the per-attempt cost at one mutex and one store.
type latencyWindow struct {
	mu      sync.Mutex
	samples [128]time.Duration
	n       int // total observations
	p95     time.Duration
	scratch []time.Duration
}

const refreshEvery = 32

// observe records one attempt latency.
func (lw *latencyWindow) observe(d time.Duration) {
	lw.mu.Lock()
	lw.samples[lw.n%len(lw.samples)] = d
	lw.n++
	if lw.n%refreshEvery == 0 || lw.p95 == 0 {
		lw.refreshLocked()
	}
	lw.mu.Unlock()
}

// refreshLocked recomputes the memoized p95. Called with lw.mu held.
func (lw *latencyWindow) refreshLocked() {
	lw.scratch = append(lw.scratch[:0], lw.samples[:min(lw.n, len(lw.samples))]...)
	slices.Sort(lw.scratch)
	lw.p95 = trace.Percentile(lw.scratch, 0.95)
}

// quantile95 returns the memoized p95 (0 until a sample exists).
func (lw *latencyWindow) quantile95() time.Duration {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.p95
}

// Latencies is the per-model attempt-latency table.
type Latencies struct {
	mu sync.Mutex
	m  map[string]*latencyWindow
}

// NewLatencies builds an empty latency table.
func NewLatencies() *Latencies { return &Latencies{m: map[string]*latencyWindow{}} }

// Observe records one successful attempt's latency for the model.
func (l *Latencies) Observe(model string, d time.Duration) {
	l.window(model).observe(d)
}

// P95 returns the model's current p95 attempt latency, or fallback when
// no samples exist yet.
func (l *Latencies) P95(model string, fallback time.Duration) time.Duration {
	if p := l.window(model).quantile95(); p > 0 {
		return p
	}
	return fallback
}

func (l *Latencies) window(model string) *latencyWindow {
	l.mu.Lock()
	defer l.mu.Unlock()
	w := l.m[model]
	if w == nil {
		w = &latencyWindow{}
		l.m[model] = w
	}
	return w
}
