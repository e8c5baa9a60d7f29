package cluster

import (
	"strings"
	"testing"
	"time"
)

// The router's latency histograms render in the classic Prometheus
// layout over its 13 bucket bounds (up to le="10"): cumulative buckets,
// then +Inf, _sum and _count. Pinned byte for byte so a shared
// histogram type cannot drift the exposition.
func TestRouterHistogramExposition(t *testing.T) {
	m := NewMetrics()
	for _, d := range []time.Duration{300 * time.Microsecond, 3 * time.Millisecond, 700 * time.Millisecond, 5 * time.Second, 20 * time.Second} {
		m.ObserveAttempt("n1", attemptOK, d)
	}
	m.ObserveRequest(2*time.Millisecond, true)

	var b strings.Builder
	m.WritePrometheus(&b, nil, nil)
	out := b.String()
	want := `# TYPE rtmap_router_attempt_seconds histogram
rtmap_router_attempt_seconds_bucket{le="0.0005"} 1
rtmap_router_attempt_seconds_bucket{le="0.001"} 1
rtmap_router_attempt_seconds_bucket{le="0.0025"} 1
rtmap_router_attempt_seconds_bucket{le="0.005"} 2
rtmap_router_attempt_seconds_bucket{le="0.01"} 2
rtmap_router_attempt_seconds_bucket{le="0.025"} 2
rtmap_router_attempt_seconds_bucket{le="0.05"} 2
rtmap_router_attempt_seconds_bucket{le="0.1"} 2
rtmap_router_attempt_seconds_bucket{le="0.25"} 2
rtmap_router_attempt_seconds_bucket{le="0.5"} 2
rtmap_router_attempt_seconds_bucket{le="1"} 3
rtmap_router_attempt_seconds_bucket{le="2.5"} 3
rtmap_router_attempt_seconds_bucket{le="10"} 4
rtmap_router_attempt_seconds_bucket{le="+Inf"} 5
rtmap_router_attempt_seconds_sum 25.7033
rtmap_router_attempt_seconds_count 5
# TYPE rtmap_router_request_seconds histogram
rtmap_router_request_seconds_bucket{le="0.0005"} 0
rtmap_router_request_seconds_bucket{le="0.001"} 0
rtmap_router_request_seconds_bucket{le="0.0025"} 1
rtmap_router_request_seconds_bucket{le="0.005"} 1
rtmap_router_request_seconds_bucket{le="0.01"} 1
rtmap_router_request_seconds_bucket{le="0.025"} 1
rtmap_router_request_seconds_bucket{le="0.05"} 1
rtmap_router_request_seconds_bucket{le="0.1"} 1
rtmap_router_request_seconds_bucket{le="0.25"} 1
rtmap_router_request_seconds_bucket{le="0.5"} 1
rtmap_router_request_seconds_bucket{le="1"} 1
rtmap_router_request_seconds_bucket{le="2.5"} 1
rtmap_router_request_seconds_bucket{le="10"} 1
rtmap_router_request_seconds_bucket{le="+Inf"} 1
rtmap_router_request_seconds_sum 0.002
rtmap_router_request_seconds_count 1
`
	i := strings.Index(out, "# TYPE rtmap_router_attempt_seconds histogram")
	if i < 0 || out[i:] != want {
		t.Fatalf("histogram exposition:\n%s\nwant:\n%s", out[max(i, 0):], want)
	}
}
