package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The open-loop pacer must deliver its target rate: a sleep- or
// ticker-paced loop tops out near the kernel timer granularity and
// offers about half of 2000/s.
func TestPaceDeliversTargetRate(t *testing.T) {
	const rate = 2000
	var fired atomic.Int64
	until := time.Now().Add(time.Second)
	pace(func() bool { return time.Now().Before(until) }, rate, func(int) { fired.Add(1) })
	if got := fired.Load(); got < rate*95/100 {
		t.Fatalf("pacer fired %d requests in 1s at %d/s, want at least 95%% of target", got, rate)
	}
}

// The class schedule is proportional, interleaved and one slot per unit
// of weight.
func TestScheduleProportionalInterleaved(t *testing.T) {
	s := schedule([]Class{{Name: "a", Weight: 5}, {Name: "b", Weight: 3}, {Name: "c", Weight: 2}})
	got := ""
	for _, c := range s {
		got += c.Name
	}
	if want := "abcaabacba"; got != want {
		t.Fatalf("schedule %q, want %q", got, want)
	}
}

// hang answers nothing until the client goes away.
var hang http.HandlerFunc = func(w http.ResponseWriter, r *http.Request) {
	io.ReadAll(r.Body) // the server notices a closed connection only once the body is consumed
	<-r.Context().Done()
}

// Every taxonomy category and the retry rule, against a real server (or
// a real closed port).
func TestClassifyAndRetryRule(t *testing.T) {
	status := func(code int, doc string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(code)
			io.WriteString(w, doc)
		}
	}
	// drop hijacks the connection and closes it without an answer; with
	// rst the close carries a TCP reset instead of a FIN.
	drop := func(rst bool) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			if rst {
				conn.(*net.TCPConn).SetLinger(0)
			}
			conn.Close()
		}
	}
	cases := []struct {
		name      string
		handler   http.HandlerFunc // nil: dial a closed port
		category  string
		retryable bool
	}{
		{"200", status(200, `{"results":[{"logits":[1,2]}]}`), "ok", false},
		{"429", status(429, `{"kind":"shed"}`), "http_429", false},
		{"4xx", status(404, `{"kind":"not_found"}`), "http_4xx", false},
		{"5xx", status(500, `{"kind":"internal"}`), "http_5xx", false},
		{"503 expired", status(503, `{"kind":"expired"}`), "http_503", false},
		{"503 unavailable", status(503, `{"kind":"unavailable"}`), "http_503", true},
		{"503 without kind", status(503, ``), "http_503", true},
		{"refused", nil, "connect_refused", true},
		{"closed without answer", drop(false), "reset", true},
		{"reset", drop(true), "reset", true},
		{"client timeout", hang, "timeout", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var url string
			if tc.handler == nil {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				url = "http://" + ln.Addr().String()
				ln.Close()
			} else {
				srv := httptest.NewServer(tc.handler)
				defer srv.Close()
				url = srv.URL
			}
			g := &gen{ctx: context.Background(), url: url, client: &http.Client{Timeout: 200 * time.Millisecond}}
			out := g.attempt([]byte(`{}`), nil, "")
			if out.category != tc.category {
				t.Fatalf("category %q (%s), want %q", out.category, out.detail, tc.category)
			}
			if got := retryable(out); got != tc.retryable {
				t.Fatalf("retryable = %v, want %v", got, tc.retryable)
			}
		})
	}
}

// A request cut short by the caller's own context is cancelled, not a
// failure of the server.
func TestCancelledIsNotAnOutcome(t *testing.T) {
	srv := httptest.NewServer(hang)
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	res := Run(ctx, Options{URL: srv.URL, Bodies: []Body{{JSON: []byte(`{}`)}}, Workers: 2})
	if res.Total.Sent != 0 || len(res.Categories) != 0 {
		t.Fatalf("cancelled requests were booked: %+v %v", res.Total, res.Categories)
	}
}

// fakeServer answers each body with logits derived from its seed. With
// corrupt, the 5th answer for seed 1 (checked against the first one)
// and the 3rd for seed 3 (checked against Want) come back wrong; with
// fail503, every odd attempt is a retryable 503.
func fakeServer(t *testing.T, corrupt, fail503 bool) *httptest.Server {
	var mu sync.Mutex
	var n int
	perSeed := map[int32]int{}
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct{ Seed int32 }
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		mu.Lock()
		n++
		odd := n%2 == 1
		perSeed[req.Seed]++
		k := perSeed[req.Seed]
		mu.Unlock()
		if fail503 && odd {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		logit := req.Seed
		if corrupt && (req.Seed == 1 && k == 5 || req.Seed == 3 && k == 3) {
			logit = -1
		}
		fmt.Fprintf(w, `{"results":[{"logits":[%d,7]}]}`, logit)
	}))
}

func TestRunChecksEveryAnswer(t *testing.T) {
	bodies := []Body{{JSON: []byte(`{"seed":1}`)}, {JSON: []byte(`{"seed":2}`)}, {JSON: []byte(`{"seed":3}`), Want: [][]int32{{3, 7}}}}
	for _, tc := range []struct {
		name    string
		corrupt bool
		want    int64
	}{{"clean", false, 0}, {"two corrupted answers", true, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			srv := fakeServer(t, tc.corrupt, false)
			defer srv.Close()
			res := Run(context.Background(), Options{URL: srv.URL, Bodies: bodies, Workers: 2, Pinned: true, Duration: 200 * time.Millisecond})
			if res.Total.OK < 10 || res.Total.OK != res.Total.Sent || int64(len(res.Latencies)) != res.Total.OK {
				t.Fatalf("ledger %+v with %d latencies", res.Total, len(res.Latencies))
			}
			// Two bodies set their reference with their first answer.
			if res.Checked != res.Total.OK-2 {
				t.Errorf("checked %d of %d answers, want all but the 2 first answers", res.Checked, res.Total.OK)
			}
			if res.Mismatches != tc.want {
				t.Errorf("mismatches %d, want %d (samples %v)", res.Mismatches, tc.want, res.Samples)
			}
		})
	}
}

func TestRunRetriesAndClassLedger(t *testing.T) {
	srv := fakeServer(t, false, true)
	defer srv.Close()
	classes := []Class{{Name: "interactive", Weight: 1, DeadlineMS: 1e4}, {Name: "bulk", Weight: 1}}
	res := Run(context.Background(), Options{
		URL: srv.URL, Bodies: []Body{{JSON: []byte(`{"seed":1}`)}}, Classes: classes,
		Rate: 200, Duration: 300 * time.Millisecond, Retries: 1,
	})
	// Concurrent requests' attempts interleave, so a retry can draw a
	// 503 too; every request still ends as an OK or a 503.
	if res.Total.Sent == 0 || res.Total.OK+res.Total.Unavailable != res.Total.Sent {
		t.Fatalf("ledger %+v", res.Total)
	}
	if res.Retries == 0 || int64(len(res.Attempts)) != res.Total.Sent+res.Retries {
		t.Fatalf("%d retries, %d attempts for %d requests", res.Retries, len(res.Attempts), res.Total.Sent)
	}
	var sent, good int64
	for _, c := range res.Classes {
		sent += c.Sent
		good += c.Goodput
	}
	if sent != res.Total.Sent || good != res.Total.Goodput || res.Total.Goodput != res.Total.OK {
		t.Fatalf("class ledgers (sent %d, goodput %d) disagree with the total %+v", sent, good, res.Total)
	}
}
