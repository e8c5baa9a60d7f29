package cluster

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"rtmap/internal/serve"
)

// attemptBuckets are the upper bounds (seconds) of the router's latency
// histograms: serve's bounds plus le="10", since attempts can stall up
// to their class timeout.
var attemptBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// attemptResultNames classify proxied attempts for the per-node counter.
const (
	attemptOK        = "ok"        // 2xx relayed
	attemptReject    = "rejected"  // 4xx/503 relayed (shed, expired, client error)
	attemptRefused   = "refused"   // connect-level failure, safe to retry
	attemptTimeout   = "timeout"   // attempt deadline expired
	attemptError     = "error"     // transport failure after the request left
	attemptCancelled = "cancelled" // our own cancellation (hedge loser, client gone) — not a node failure
)

// Metrics accumulates the router's counters for /metrics (Prometheus
// text format, hand-rolled like internal/serve: the module carries no
// dependencies).
type Metrics struct {
	mu sync.Mutex

	requests   int64 // proxied /v1/infer requests
	relayedOK  int64
	relayedErr int64 // requests answered with a router-generated error
	sheds      int64 // all-owners-open/down 503s

	retries         int64
	hedges          int64
	hedgeWins       int64 // hedge attempt delivered the winning response
	budgetExhausted int64

	// attempts[node][result] counts proxied attempts per node.
	attempts map[string]map[string]int64

	attemptLat serve.Hist // per-attempt wall time, all nodes
	requestLat serve.Hist // per-request wall time through the router
}

// NewMetrics returns an empty router metrics set.
func NewMetrics() *Metrics {
	return &Metrics{
		attempts:   map[string]map[string]int64{},
		attemptLat: serve.NewHist(attemptBuckets),
		requestLat: serve.NewHist(attemptBuckets),
	}
}

// ObserveRequest records one finished proxied request.
func (m *Metrics) ObserveRequest(wall time.Duration, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests++
	if ok {
		m.relayedOK++
	} else {
		m.relayedErr++
	}
	m.requestLat.Observe(wall.Seconds())
}

// ObserveAttempt records one proxied attempt against one node.
func (m *Metrics) ObserveAttempt(node, result string, wall time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byNode := m.attempts[node]
	if byNode == nil {
		byNode = map[string]int64{}
		m.attempts[node] = byNode
	}
	byNode[result]++
	m.attemptLat.Observe(wall.Seconds())
}

// ObserveRetry, ObserveHedge, ObserveShed and ObserveBudgetExhausted
// count the policy decisions the chaos suite and dashboards watch.
func (m *Metrics) ObserveRetry() { m.mu.Lock(); m.retries++; m.mu.Unlock() }

// ObserveHedge records a hedge attempt being launched; won reports
// (later) that the hedge delivered the winning response.
func (m *Metrics) ObserveHedge(won bool) {
	m.mu.Lock()
	if won {
		m.hedgeWins++
	} else {
		m.hedges++
	}
	m.mu.Unlock()
}

// ObserveShed counts one all-owners-unavailable 503.
func (m *Metrics) ObserveShed() { m.mu.Lock(); m.sheds++; m.mu.Unlock() }

// ObserveBudgetExhausted counts one retry/hedge suppressed by an empty
// token bucket.
func (m *Metrics) ObserveBudgetExhausted() { m.mu.Lock(); m.budgetExhausted++; m.mu.Unlock() }

// Counters returns the headline counters (tests and the bench).
func (m *Metrics) Counters() (requests, retries, hedges, hedgeWins, sheds int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.requests, m.retries, m.hedges, m.hedgeWins, m.sheds
}

// WritePrometheus renders the router series. health, breakers and extra
// contribute the gauge families owned elsewhere.
func (m *Metrics) WritePrometheus(w io.Writer, health *Health, breakers *Breakers) {
	m.mu.Lock()
	snap := struct {
		requests, relayedOK, relayedErr, sheds      int64
		retries, hedges, hedgeWins, budgetExhausted int64
	}{m.requests, m.relayedOK, m.relayedErr, m.sheds, m.retries, m.hedges, m.hedgeWins, m.budgetExhausted}
	attempts := make(map[string]map[string]int64, len(m.attempts))
	for n, byNode := range m.attempts {
		c := make(map[string]int64, len(byNode))
		for k, v := range byNode {
			c[k] = v
		}
		attempts[n] = c
	}
	attemptLat := m.attemptLat.Clone()
	requestLat := m.requestLat.Clone()
	m.mu.Unlock()

	fmt.Fprintf(w, "# TYPE rtmap_router_requests_total counter\nrtmap_router_requests_total %d\n", snap.requests)
	fmt.Fprintf(w, "# TYPE rtmap_router_requests_ok_total counter\nrtmap_router_requests_ok_total %d\n", snap.relayedOK)
	fmt.Fprintf(w, "# TYPE rtmap_router_requests_failed_total counter\nrtmap_router_requests_failed_total %d\n", snap.relayedErr)
	fmt.Fprintf(w, "# TYPE rtmap_router_sheds_total counter\nrtmap_router_sheds_total %d\n", snap.sheds)
	fmt.Fprintf(w, "# TYPE rtmap_router_retries_total counter\nrtmap_router_retries_total %d\n", snap.retries)
	fmt.Fprintf(w, "# TYPE rtmap_router_hedges_total counter\nrtmap_router_hedges_total %d\n", snap.hedges+snap.hedgeWins)
	fmt.Fprintf(w, "# TYPE rtmap_router_hedge_wins_total counter\nrtmap_router_hedge_wins_total %d\n", snap.hedgeWins)
	fmt.Fprintf(w, "# TYPE rtmap_router_retry_budget_exhausted_total counter\nrtmap_router_retry_budget_exhausted_total %d\n", snap.budgetExhausted)

	fmt.Fprintf(w, "# TYPE rtmap_router_attempts_total counter\n")
	nodes := make([]string, 0, len(attempts))
	for n := range attempts {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		results := make([]string, 0, len(attempts[n]))
		for r := range attempts[n] {
			results = append(results, r)
		}
		sort.Strings(results)
		for _, r := range results {
			fmt.Fprintf(w, "rtmap_router_attempts_total{node=%q,result=%q} %d\n", n, r, attempts[n][r])
		}
	}

	if health != nil {
		fmt.Fprintf(w, "# TYPE rtmap_router_node_up gauge\n")
		snap := health.Snapshot()
		for _, nh := range snap {
			up := 0
			if nh.State != StateDown.String() {
				up = 1
			}
			fmt.Fprintf(w, "rtmap_router_node_up{node=%q,state=%q} %d\n", nh.Node, nh.State, up)
		}
		fmt.Fprintf(w, "# TYPE rtmap_router_node_probe_failures_total counter\n")
		for _, nh := range snap {
			fmt.Fprintf(w, "rtmap_router_node_probe_failures_total{node=%q} %d\n", nh.Node, nh.ProbeFail)
		}
	}
	if breakers != nil {
		opens, resets := breakers.Stats()
		fmt.Fprintf(w, "# TYPE rtmap_router_breaker_opens_total counter\nrtmap_router_breaker_opens_total %d\n", opens)
		fmt.Fprintf(w, "# TYPE rtmap_router_breaker_resets_total counter\nrtmap_router_breaker_resets_total %d\n", resets)
		if health != nil {
			fmt.Fprintf(w, "# TYPE rtmap_router_breaker_open gauge\n")
			for _, nh := range health.Snapshot() {
				open := 0
				if breakers.State(nh.Node) == BreakerOpen {
					open = 1
				}
				fmt.Fprintf(w, "rtmap_router_breaker_open{node=%q} %d\n", nh.Node, open)
			}
		}
	}

	fmt.Fprintf(w, "# TYPE rtmap_router_attempt_seconds histogram\n")
	attemptLat.Write(w, "rtmap_router_attempt_seconds", "")
	fmt.Fprintf(w, "# TYPE rtmap_router_request_seconds histogram\n")
	requestLat.Write(w, "rtmap_router_request_seconds", "")
}
