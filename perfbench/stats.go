package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"rtmap/internal/trace"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// rank returns the nearest-rank index of percentile p (0 < p <= 100)
// in a sorted slice of n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return max(r, 1) - 1
}

// beyond is how many of n sorted samples lie above the nearest-rank
// p-th percentile.
func beyond(n int, p float64) int { return n - 1 - rank(n, p) }

// percentile returns the nearest-rank p-th percentile of sorted, or 0
// for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

// median sorts xs in place and returns its median (nearest rank).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return percentile(xs, 50)
}

// sortedMS converts durations to sorted milliseconds.
func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// maxWindows caps how many consecutive windows a run is split into.
const maxWindows = 10

// need is the fewest samples whose p-th percentile has minBeyond
// samples beyond it.
func need(p float64) int {
	n := 1
	for beyond(n, p) < minBeyond {
		n++
	}
	return n
}

// done is one correct request: when it completed, counted from the start
// of the run, its client wall time, and its sample count.
type done struct {
	at, wall time.Duration
	samples  int
}

// windowed splits the requests, in completion order, into as many
// consecutive windows of equal request count (up to maxWindows) as
// leave every window enough samples for its p-th percentile, and
// returns the medians over the windows of the sample rate, the median
// latency and the p-th percentile latency in milliseconds. A burst of
// load from outside the benchmark then moves one window, not the
// figure.
func windowed(reqs []done, p float64) (rate, p50, tailMS float64, k int) {
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].at < reqs[j].at })
	k = max(1, min(maxWindows, len(reqs)/need(p)))
	rates, mids, tails := make([]float64, k), make([]float64, k), make([]float64, k)
	var from time.Duration
	for j := 0; j < k; j++ {
		part := reqs[j*len(reqs)/k : (j+1)*len(reqs)/k]
		walls := make([]time.Duration, len(part))
		samples := 0
		for i, r := range part {
			walls[i] = r.wall
			samples += r.samples
		}
		to := part[len(part)-1].at
		rates[j] = float64(samples) / (to - from).Seconds()
		from = to
		lat := sortedMS(walls)
		mids[j], tails[j] = percentile(lat, 50), percentile(lat, p)
	}
	return median(rates), median(mids), median(tails), k
}

// tally counts the outcome of every request attempted in a measured
// window.
type tally struct {
	attempted  int
	failed     int // transport errors and non-refusal HTTP errors
	refused    int // 429 and 503 answers
	mismatched int // 200 answers whose outputs differ from the reference
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.refused += o.refused
	t.mismatched += o.mismatched
}

// bad is every request that did not return correct outputs.
func (t tally) bad() int { return t.failed + t.refused + t.mismatched }

// errorShare is (failed + refused + mismatched) / attempted.
func (t tally) errorShare() float64 {
	if t.attempted == 0 {
		return 1
	}
	return float64(t.bad()) / float64(t.attempted)
}

// reqLayers is one traced request's wall time split by the spans that
// share its trace ID.
type reqLayers struct {
	wall  time.Duration // client-measured
	route time.Duration // router's route span; 0 on a direct node
	http  time.Duration // node's http span
	// wait, queue and exec are the longest such span among the
	// request's samples.
	wait, queue, exec time.Duration
	// covered is how much of the http span the request's wait, queue
	// and exec spans cover together, overlaps counted once.
	covered time.Duration
}

// unattributed is the part of the node's http span that no wait, queue
// or exec span covers. It is never negative.
func (r reqLayers) unattributed() time.Duration { return max(r.http-r.covered, 0) }

type interval struct{ lo, hi int64 }

// union is the total length of ivs, overlaps counted once, with every
// interval clipped to clip.
func union(ivs []interval, clip interval) int64 {
	var cut []interval
	for _, iv := range ivs {
		iv.lo, iv.hi = max(iv.lo, clip.lo), min(iv.hi, clip.hi)
		if iv.hi > iv.lo {
			cut = append(cut, iv)
		}
	}
	sort.Slice(cut, func(i, j int) bool { return cut[i].lo < cut[j].lo })
	var total, end int64
	end = math.MinInt64
	for _, iv := range cut {
		if iv.lo > end {
			total += iv.hi - iv.lo
			end = iv.hi
		} else if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// join attaches spans to the client wall times of the requests that
// carried their trace IDs. Spans of other IDs are ignored. It fails when
// a request has no http span: its spans were dropped or never recorded,
// and a ledger built without them would be wrong.
func join(walls map[string]time.Duration, spans []trace.Span) ([]reqLayers, error) {
	type acc struct {
		r      reqLayers
		httpIv interval
		items  []interval
		seen   bool
	}
	byID := make(map[string]*acc, len(walls))
	for _, sp := range spans {
		wall, ok := walls[sp.TraceID]
		if !ok {
			continue
		}
		a := byID[sp.TraceID]
		if a == nil {
			a = &acc{r: reqLayers{wall: wall}}
			byID[sp.TraceID] = a
		}
		d := time.Duration(sp.Dur)
		iv := interval{sp.Start, sp.Start + sp.Dur}
		switch sp.Name {
		case "route":
			a.r.route = d
		case "http":
			a.r.http, a.httpIv, a.seen = d, iv, true
		case "wait":
			a.r.wait = max(a.r.wait, d)
			a.items = append(a.items, iv)
		case "queue":
			a.r.queue = max(a.r.queue, d)
			a.items = append(a.items, iv)
		case "exec":
			a.r.exec = max(a.r.exec, d)
			a.items = append(a.items, iv)
		}
	}
	out := make([]reqLayers, 0, len(walls))
	for id := range walls {
		a := byID[id]
		if a == nil || !a.seen {
			return nil, fmt.Errorf("trace %s: no http span", id)
		}
		a.r.covered = time.Duration(union(a.items, a.httpIv))
		out = append(out, a.r)
	}
	return out, nil
}
