package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"syscall"
	"time"

	"rtmap/internal/core"
	"rtmap/internal/dataflow"
	"rtmap/internal/serve"
	"rtmap/internal/sim"
	"rtmap/internal/tensor"
	"rtmap/internal/trace"
)

// spanRing is the span capacity of every node and router ring in a
// traced run (about 15 MB each). Traced requests stop before a node's
// ring could wrap, so no span is dropped.
const spanRing = 1 << 17

// layers is the traced run: half the time untraced, for the runtime
// counters and the tracing-overhead baseline, then half traced with a
// trace ID on every request; then timed calls into each layer.
func layers(f *fixture, d time.Duration) (*measured, error) {
	w := f.w
	s, _, err := setUp(f, spanRing)
	if err != nil {
		return nil, err
	}
	c := newClient(s.url, w.callers)
	warm(c, f)

	attempts0, requests0 := routerCounts(s)
	rt0 := sampleRuntime()
	plain := c.drive(f, w.callers, d/2, "", nil)
	rt1 := sampleRuntime()
	// Spans one request can leave on a node: http, and wait, queue and
	// exec per sample. Router rings fill slower: one route span per
	// request.
	perReq := uint64(1 + 3*w.batch)
	more := func() bool {
		for _, n := range s.nodes {
			if n.Tracer().Total()+uint64(w.callers)*perReq > spanRing {
				return false
			}
		}
		return true
	}
	traced := c.drive(f, w.callers, d/2, "t", more)
	c.close()
	attempts, requests := routerCounts(s)
	attempts, requests = attempts-attempts0, requests-requests0

	var t tally
	t.add(plain.tally)
	t.add(traced.tally)
	firstErr := firstOf(plain.firstErr, traced.firstErr)

	spans, dropped, err := collectSpans(s)
	if err != nil {
		return nil, firstOf(err, s.close())
	}
	if dropped > 0 {
		return nil, firstOf(fmt.Errorf("span rings dropped %d spans; no per-layer figure is printed", dropped), s.close())
	}
	rows, err := join(traced.traced, spans)
	if err != nil {
		return nil, firstOf(err, s.close())
	}
	regUS := probeRegistry(s.nodes[s.owner(w, w.variants[0])], spec(w, w.variants[0]))
	routed := s.router != nil
	if err := s.close(); err != nil {
		return nil, err
	}

	decode, err := timeReps(0.5, 5, func(i int) error {
		var req serve.InferRequest
		return json.NewDecoder(bytes.NewReader(f.bodies[i%len(f.bodies)].json)).Decode(&req)
	})
	if err != nil {
		return nil, err
	}
	encode, err := timeReps(0.2, 5, func(i int) error {
		return json.NewEncoder(io.Discard).Encode(plain.kept[i%len(plain.kept)])
	})
	if err != nil {
		return nil, err
	}
	off, err := offline(f)
	if err != nil {
		return nil, err
	}

	col := func(get func(reqLayers) time.Duration) []float64 {
		ds := make([]time.Duration, len(rows))
		for i, r := range rows {
			ds[i] = get(r)
		}
		return sortedMS(ds)
	}
	n := len(rows)
	p50 := func(get func(reqLayers) time.Duration) float64 { return percentile(col(get), 50) }
	toNode := p50(func(r reqLayers) time.Duration { return r.wall - r.http })
	transport := toNode
	hop := reading{Name: "cluster.hop_ms_p50", Unit: "ms", Feeds: "latency_p50_ms", Note: "no router on this workload"}
	perAttempt := reading{Name: "cluster.attempts_per_req", Unit: "attempts/req", Feeds: "ok_share", Note: "no router on this workload"}
	if routed {
		transport = p50(func(r reqLayers) time.Duration { return r.wall - r.route })
		hop = reading{Name: hop.Name, Value: toNode, Unit: hop.Unit, Samples: n, Feeds: hop.Feeds,
			Note: "client wall minus the node's http span"}
		perAttempt = reading{Name: perAttempt.Name, Value: float64(attempts) / float64(requests), Unit: perAttempt.Unit,
			Samples: int(requests), Feeds: perAttempt.Feeds, Note: "router attempts, retries and hedges included, per request"}
	}
	reqs := float64(plain.attempted)
	rs := []reading{
		{Name: "transport.ms_p50", Value: transport, Unit: "ms", Samples: n, Feeds: "latency_p50_ms",
			Note: "client wall minus the first server span (the router's route span when routed)"},
		hop, perAttempt,
		{Name: "serve.http_ms_p50", Value: p50(func(r reqLayers) time.Duration { return r.http }), Unit: "ms", Samples: n, Feeds: "latency_p50_ms"},
		{Name: "serve.unattributed_ms_p50", Value: p50(reqLayers.unattributed), Unit: "ms", Samples: n, Feeds: "latency_p50_ms",
			Note: "http span minus what the request's wait, queue and exec spans cover"},
		{Name: "serve.decode_ms", Value: median(decode) * 1e3, Unit: "ms", Samples: len(decode), Feeds: "latency_p50_ms"},
		{Name: "serve.encode_ms", Value: median(encode) * 1e3, Unit: "ms", Samples: len(encode), Feeds: "latency_p50_ms"},
		{Name: "serve.registry_get_us", Value: regUS, Unit: "us", Samples: registryRounds, Feeds: "latency_p50_ms",
			Note: fmt.Sprintf("median of %d rounds of %d calls", registryRounds, registryReps)},
		{Name: "serve.wait_ms_p50", Value: p50(func(r reqLayers) time.Duration { return r.wait }), Unit: "ms", Samples: n, Feeds: "latency_p50_ms"},
		{Name: "serve.batch_size_mean", Value: float64(plain.samples) / plain.batches, Unit: "samples", Samples: plain.samples, Feeds: "infer_per_s"},
		{Name: "serve.queue_ms_p50", Value: p50(func(r reqLayers) time.Duration { return r.queue }), Unit: "ms", Samples: n, Feeds: "latency_tail_ms"},
		{Name: "sim.exec_ms_p50", Value: p50(func(r reqLayers) time.Duration { return r.exec }), Unit: "ms", Samples: n, Feeds: "latency_p50_ms"},
		{Name: "sim.forward_ms", Value: median(off.forward) * 1e3, Unit: "ms", Samples: len(off.forward), Feeds: "latency_p50_ms",
			Note: fmt.Sprintf("sim.ForwardAPBatch of %d samples", w.batch)},
		{Name: "ap.ops_per_infer", Value: float64(off.ops), Unit: "count", Samples: 1, Feeds: "sim_energy_uj_per_infer",
			Note: "static instruction count of the compiled tile programs"},
		{Name: "model.build_s", Value: median(off.build), Unit: "s", Samples: len(off.build), Feeds: "setup_s"},
		{Name: "core.compile_s", Value: median(off.compile), Unit: "s", Samples: len(off.compile), Feeds: "setup_s"},
		{Name: "verify.audit_s", Value: median(off.audit), Unit: "s", Samples: len(off.audit), Feeds: "setup_s"},
		{Name: "dataflow.verify_s", Value: median(off.dataflow), Unit: "s", Samples: len(off.dataflow), Feeds: "setup_s"},
		{Name: "trace.spans_dropped", Value: float64(dropped), Unit: "count", Samples: len(spans)},
		{Name: "trace.overhead_pct", Value: 100 * (plain.inferPerS() - traced.inferPerS()) / plain.inferPerS(), Unit: "%",
			Samples: plain.samples + traced.samples, Feeds: "infer_per_s", Note: "traced against untraced infer_per_s"},
		{Name: "go.allocs_per_req", Value: float64(rt1.mallocs-rt0.mallocs) / reqs, Unit: "allocs/req", Samples: plain.attempted, Feeds: "infer_per_s"},
		{Name: "go.alloc_kb_per_req", Value: float64(rt1.allocBytes-rt0.allocBytes) / 1024 / reqs, Unit: "KiB/req", Samples: plain.attempted, Feeds: "infer_per_s"},
		{Name: "go.cpu_ms_per_req", Value: ms(rt1.cpu-rt0.cpu) / reqs, Unit: "ms/req", Samples: plain.attempted, Feeds: "infer_per_s"},
	}
	return &measured{tally: t, readings: rs, firstErr: firstErr}, nil
}

// runtimeSample is the whole process's allocation and CPU counters.
type runtimeSample struct {
	mallocs, allocBytes uint64
	cpu                 time.Duration
}

func sampleRuntime() runtimeSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return runtimeSample{mallocs: m.Mallocs, allocBytes: m.TotalAlloc, cpu: cpu}
}

// routerCounts returns the router's attempts so far (first tries,
// retries and hedges) and its requests; zeros without a router.
func routerCounts(s *stack) (attempts, requests int64) {
	if s.router == nil {
		return 0, 0
	}
	requests, retries, hedges, _, _ := s.router.Metrics().Counters()
	return requests + retries + hedges, requests
}

// collectSpans gathers every node's and the router's retained spans and
// how many the rings dropped.
func collectSpans(s *stack) ([]trace.Span, uint64, error) {
	var spans []trace.Span
	var dropped uint64
	for _, n := range s.nodes {
		snap := n.Tracer().Snapshot()
		dropped += n.Tracer().Total() - uint64(len(snap))
		spans = append(spans, snap...)
	}
	if s.router == nil {
		return spans, dropped, nil
	}
	resp, err := http.Get(s.url + "/debug/traces")
	if err != nil {
		return nil, 0, fmt.Errorf("router spans: %w", err)
	}
	defer resp.Body.Close()
	var body struct {
		Spans   []trace.Span `json:"spans"`
		Dropped uint64       `json:"dropped"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, 0, fmt.Errorf("router spans: %w", err)
	}
	return append(spans, body.Spans...), dropped + body.Dropped, nil
}

const registryRounds, registryReps = 21, 1000

// probeRegistry times Registry.Get of the resident model: the median
// over registryRounds rounds of the mean of registryReps calls, in
// microseconds.
func probeRegistry(n *serve.Server, sp serve.Spec) float64 {
	rounds := make([]float64, registryRounds)
	for i := range rounds {
		t0 := time.Now()
		for k := 0; k < registryReps; k++ {
			if _, err := n.Registry().Get(sp); err != nil {
				panic(err) // the model answered correct replies a moment ago
			}
		}
		rounds[i] = float64(time.Since(t0).Nanoseconds()) / 1e3 / registryReps
	}
	return median(rounds)
}

// timeReps calls f at least minReps times and until budget seconds have
// passed, and returns each call's duration in seconds.
func timeReps(budget float64, minReps int, f func(i int) error) ([]float64, error) {
	var out []float64
	var spent float64
	for i := 0; i < minReps || spent < budget; i++ {
		t0 := time.Now()
		if err := f(i); err != nil {
			return nil, err
		}
		d := time.Since(t0).Seconds()
		out = append(out, d)
		spent += d
	}
	return out, nil
}

// offlineLayers are the set-up layers and the engine, timed by direct
// calls on the workload's first model variant and payloads.
type offlineLayers struct {
	build, compile, audit, dataflow, forward []float64
	ops                                      int
}

// offline times the model builder, a cold core.Compile (fresh cache,
// programs kept, as the registry compiles), the plan audit and the
// dataflow verifier on each fresh artifact, and sim.ForwardAPBatch at
// the workload's batch size.
func offline(f *fixture) (*offlineLayers, error) {
	w := f.w
	cfg := modelConfig(w.variants[0])
	build := builders[w.model]
	o := &offlineLayers{}
	var err error
	if o.build, err = timeReps(0.3, 3, func(int) error { build(cfg); return nil }); err != nil {
		return nil, err
	}
	net := build(cfg)
	var comp *core.Compiled
	// At least one compile, and more while they fit in half a second: a
	// cold ResNet-18 compile alone takes several seconds.
	for spent := 0.0; len(o.compile) < 1 || spent < 0.5; {
		cc := core.DefaultConfig()
		cc.Cache = core.NewCache()
		cc.KeepPrograms = true
		comp = nil // let the previous artifact go before the next is built
		t0 := time.Now()
		if comp, err = core.Compile(net, cc); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := core.VerifyCompiled(comp); err != nil {
			return nil, err
		}
		t2 := time.Now()
		if _, _, err := dataflow.VerifyOrCertify(comp, core.NewCache()); err != nil {
			return nil, err
		}
		t3 := time.Now()
		o.compile = append(o.compile, t1.Sub(t0).Seconds())
		o.audit = append(o.audit, t2.Sub(t1).Seconds())
		o.dataflow = append(o.dataflow, t3.Sub(t2).Seconds())
		spent += t3.Sub(t0).Seconds()
	}
	var ins []*tensor.Float
	for _, b := range f.bodies {
		if b.variant == w.variants[0] {
			ins = b.inputs
			break
		}
	}
	if o.forward, err = timeReps(0.5, 3, func(int) error {
		_, err := sim.ForwardAPBatch(comp, ins)
		return err
	}); err != nil {
		return nil, err
	}
	for _, lp := range comp.Layers {
		for _, sp := range lp.StripPlans {
			for _, tp := range sp.Programs {
				o.ops += len(tp.Prog.Instrs)
			}
		}
	}
	return o, nil
}
