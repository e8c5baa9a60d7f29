// Command rtmap-load is a load generator for rtmap-serve: it discovers
// the model's input shape from /v1/models, pre-builds a pool of synthetic
// request payloads, drives /v1/infer through internal/loadgen in
// closed-loop (fixed concurrency) or open-loop (fixed arrival rate, with
// catch-up pacing so the offered rate is the one asked for) mode, and
// reports throughput and latency percentiles — the serving path's
// benchmark harness. Every 200 is checked bit for bit against the first
// answer for its payload; a mismatch fails the run like an error.
//
//	rtmap-load -url http://127.0.0.1:8080 -model tinycnn -duration 5s -concurrency 8
//	rtmap-load -model tinycnn -rate 200 -duration 10s     # open loop, 200 req/s
//	rtmap-load -model tinycnn -batch 4 -bit-exact -json
//	rtmap-load -model tinycnn -trace-sample 16            # trace 1-in-16, join vs server spans
//	rtmap-load -model tinycnn -rate 400 -mix "interactive:50:25,standard:30:100,bulk:20:0"
//
// With -mix, each request carries a priority class and deadline drawn
// from a deterministic 100-slot schedule of class:weight:deadline_ms
// entries (deadline 0 = none). Sheds (HTTP 429) and expiries (HTTP 503
// kind "expired") are counted per class rather than as errors, and the
// report adds goodput: requests that returned 200 within their own
// deadline budget — the serving metric the SLO scheduler optimizes.
//
// With -trace-sample N, one in N requests carries an X-Rtmap-Trace
// header; after the run the generator scrapes the server's /debug/traces
// and joins each sampled request's client wall time against the server's
// phase breakdown (wait/queue/exec/stage/hop), so queueing delay is
// attributable from a single report.
//
// Every outcome is classified into an error taxonomy — ok, http_429,
// http_503, http_4xx, http_5xx, connect_refused, timeout, reset, other —
// reported as a per-category tally, so a failed run says *how* it failed
// (a refused dial and a shed read very differently). -retry N re-fires
// a request up to N times on transient categories (refused, timeout,
// reset, non-expired 503) with capped exponential backoff; the report
// then distinguishes per-attempt latency (each wire round trip) from
// per-request latency (what the caller actually waited, retries and
// backoff included). -rejects-ok treats clean backpressure (429/503) as
// an expected outcome instead of an error — the right stance when
// driving the cluster router, whose load shedding is part of the
// contract being measured.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	neturl "net/url"
	"os"
	"slices"
	"strings"
	"time"

	"rtmap/internal/loadgen"
	"rtmap/internal/serve"
	"rtmap/internal/tensor"
	"rtmap/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rtmap-load: ")
	var (
		url         = flag.String("url", "http://127.0.0.1:8080", "rtmap-serve base URL")
		modelName   = flag.String("model", "tinycnn", "model to load (see /v1/models)")
		bits        = flag.Int("bits", 4, "activation precision")
		sparsity    = flag.Float64("sparsity", 0.8, "weight sparsity")
		seed        = flag.Uint64("seed", 1, "model weight seed (payload seed derives from it)")
		duration    = flag.Duration("duration", 5*time.Second, "measurement duration")
		concurrency = flag.Int("concurrency", 4, "closed-loop worker count")
		rate        = flag.Float64("rate", 0, "open-loop arrival rate in req/s (0 = closed loop)")
		batch       = flag.Int("batch", 1, "inputs per request")
		payloads    = flag.Int("payloads", 16, "distinct pre-built payloads cycled through")
		bitExact    = flag.Bool("bit-exact", false, "request bit-exact AP execution instead of the software reference")
		jsonOut     = flag.Bool("json", false, "emit the results as JSON")
		outFile     = flag.String("out", "", "also write the JSON report to this file (BENCH_*.json artifact feed)")
		inspect     = flag.Bool("inspect", false, "print one response's batch accounting (device path, pipeline stages, simulated cost) before the run")
		traceSample = flag.Int("trace-sample", 0, "send an X-Rtmap-Trace header on 1-in-N requests and join client wall time against the server's /debug/traces phase breakdown (0 disables)")
		mixSpec     = flag.String("mix", "", "per-request SLO mix as class:weight:deadline_ms entries, e.g. \"interactive:50:25,standard:30:100,bulk:20:0\" (deadline 0 = none); sheds and expiries count per class, and the report adds goodput")
		retries     = flag.Int("retry", 0, "client-side retries per request on transient failures (refused/timeout/reset/non-expired 503), with capped exponential backoff")
		rejectsOK   = flag.Bool("rejects-ok", false, "count clean backpressure (HTTP 429/503) as rejections rather than errors — for servers/routers whose shedding is expected")
	)
	flag.Parse()

	mix, err := parseMix(*mixSpec)
	if err != nil {
		log.Fatalf("-mix: %v", err)
	}

	shape, err := discoverShape(*url, *modelName)
	if err != nil {
		log.Fatal(err)
	}
	bodies, err := loadgen.Bodies(serve.InferRequest{
		Model: *modelName, ActBits: *bits, Sparsity: sparsity, Seed: *seed, BitExact: *bitExact,
	}, shape, max(*payloads, 1), max(*batch, 1), *seed+1000)
	if err != nil {
		log.Fatal(err)
	}

	load := loadgen.Options{
		URL: *url, Bodies: bodies, Classes: mix,
		Workers: *concurrency, Rate: *rate, Duration: *duration,
		Retries: *retries, TraceSample: *traceSample,
	}
	// Warm-up: admit (compile) the model before the measurement window.
	if err := loadgen.Warm(load); err != nil {
		log.Fatal(err)
	}
	if *inspect {
		if err := inspectOnce(*url+"/v1/infer", bodies[0].JSON); err != nil {
			log.Fatalf("inspect request: %v", err)
		}
	}

	res := loadgen.Run(context.Background(), load)
	var tr map[string]any
	if *traceSample > 0 {
		tr = joinTraces(*url, *modelName, res.Traces)
	}
	errs := report(res, reportInput{
		model: *modelName, mode: mode(*rate), bitExact: *bitExact, batch: *batch,
		mix: mix != nil, rejectsOK: *rejectsOK, trace: tr,
	}, *jsonOut, *outFile)
	if errs > 0 || res.Mismatches > 0 {
		os.Exit(1)
	}
}

// parseMix decodes "class:weight:deadline_ms,..." into a request mix; an
// empty spec returns nil (SLO headers off).
func parseMix(spec string) ([]loadgen.Class, error) {
	if spec == "" {
		return nil, nil
	}
	var mix []loadgen.Class
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("entry %q: want class:weight:deadline_ms", part)
		}
		c := loadgen.Class{Name: strings.TrimSpace(fields[0])}
		if _, err := fmt.Sscanf(fields[1], "%d", &c.Weight); err != nil || c.Weight <= 0 {
			return nil, fmt.Errorf("entry %q: weight must be a positive integer", part)
		}
		if _, err := fmt.Sscanf(fields[2], "%g", &c.DeadlineMS); err != nil || c.DeadlineMS < 0 {
			return nil, fmt.Errorf("entry %q: deadline_ms must be a non-negative number", part)
		}
		mix = append(mix, c)
	}
	return mix, nil
}

func mode(rate float64) string {
	if rate > 0 {
		return "open"
	}
	return "closed"
}

// discoverShape asks the server for the model's input shape, so the
// generator needs no local model build and stays honest about what the
// server actually serves.
func discoverShape(baseURL, model string) (tensor.Shape, error) {
	resp, err := http.Get(baseURL + "/v1/models")
	if err != nil {
		return tensor.Shape{}, fmt.Errorf("querying /v1/models: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return tensor.Shape{}, fmt.Errorf("/v1/models: HTTP %d", resp.StatusCode)
	}
	var list struct {
		Available []struct {
			Model     string `json:"model"`
			InputNCHW [4]int `json:"input_nchw"`
		} `json:"available"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return tensor.Shape{}, fmt.Errorf("decoding /v1/models: %w", err)
	}
	for _, m := range list.Available {
		if m.Model == model {
			s := m.InputNCHW
			return tensor.Shape{N: s[0], C: s[1], H: s[2], W: s[3]}, nil
		}
	}
	return tensor.Shape{}, fmt.Errorf("model %q not served at %s", model, baseURL)
}

// joinTraces scrapes /debug/traces and aggregates the server's spans for
// every sampled request (trace ID -> client wall time):
// wait/queue/http take the max across a trace's spans (requeues re-emit
// them), exec/stage/hop sum (a sharded request spends exec time in
// several stage spans). Logs and returns a partial report when the
// scrape fails, so a load run never fails on the join.
func joinTraces(baseURL, model string, wall map[string]time.Duration) map[string]any {
	sampled := len(wall)
	out := map[string]any{"sampled": sampled, "joined": 0}
	if sampled == 0 {
		return out
	}
	resp, err := http.Get(baseURL + "/debug/traces?model=" + neturl.QueryEscape(model))
	if err != nil {
		log.Printf("trace join: %v", err)
		return out
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Printf("trace join: /debug/traces: HTTP %d", resp.StatusCode)
		return out
	}
	var body struct {
		Spans []trace.Span `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		log.Printf("trace join: decoding /debug/traces: %v", err)
		return out
	}

	maxPhases := map[string]bool{"http": true, "wait": true, "queue": true}
	agg := map[string]map[string]time.Duration{} // trace ID -> phase -> ns
	for _, sp := range body.Spans {
		if _, ours := wall[sp.TraceID]; !ours {
			continue
		}
		p := agg[sp.TraceID]
		if p == nil {
			p = map[string]time.Duration{}
			agg[sp.TraceID] = p
		}
		d := time.Duration(sp.Dur)
		if maxPhases[sp.Name] {
			p[sp.Name] = max(p[sp.Name], d)
		} else {
			p[sp.Name] += d
		}
	}

	byPhase := map[string][]time.Duration{}
	var walls []time.Duration
	for id, phases := range agg {
		walls = append(walls, wall[id])
		for name, d := range phases {
			byPhase[name] = append(byPhase[name], d)
		}
	}
	out["joined"] = len(agg)
	if len(agg) < sampled {
		log.Printf("trace join: %d of %d sampled traces missing from /debug/traces (ring buffer wrapped? raise rtmap-serve -trace-buf)",
			sampled-len(agg), sampled)
	}
	if len(walls) > 0 {
		out["client_wall_ms"] = quantilesMS(walls, "p50", "p95", "p99")
	}
	server := map[string]map[string]float64{}
	for name, ds := range byPhase {
		server[name] = quantilesMS(ds, "p50", "p95", "p99")
	}
	if len(server) > 0 {
		out["server_phase_ms"] = server
	}
	return out
}

// quantilesMS sorts ds and returns the named nearest-rank quantiles
// ("p50", "p95", "p99", "max") in milliseconds.
func quantilesMS(ds []time.Duration, names ...string) map[string]float64 {
	slices.Sort(ds)
	ps := map[string]float64{"p50": 0.50, "p95": 0.95, "p99": 0.99, "max": 1.0}
	out := map[string]float64{}
	for _, name := range names {
		out[name] = trace.Percentile(ds, ps[name]).Seconds() * 1e3
	}
	return out
}

// inspectOnce fires one request and prints the server's batch accounting
// for its first sample: the simulated device (or, for sharded models,
// the pipeline stage count and device path) and the simulated cost.
func inspectOnce(url string, body []byte) error {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var out serve.InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return err
	}
	if len(out.Results) == 0 {
		return fmt.Errorf("response carries no results")
	}
	b := out.Results[0].Batch
	if b.Stages > 0 {
		log.Printf("batch accounting: %d pipeline stages via devices %v, coalesced size %d, sim %.1f ns (%.1f ns/sample), %.1f pJ",
			b.Stages, b.Path, b.Size, b.SimLatencyNS, b.SimPerSampleNS, b.SimEnergyPJ)
	} else {
		log.Printf("batch accounting: device %d, coalesced size %d, sim %.1f ns (%.1f ns/sample), %.1f pJ",
			b.Device, b.Size, b.SimLatencyNS, b.SimPerSampleNS, b.SimEnergyPJ)
	}
	return nil
}

type reportInput struct {
	model     string
	mode      string
	bitExact  bool
	batch     int
	mix       bool           // -mix set: sheds and expiries are expected per-class outcomes
	rejectsOK bool           // every 429/503 is an expected rejection
	trace     map[string]any // joinTraces output; nil when -trace-sample is off
}

// report prints (or writes) the run's report and returns its error
// count. Clean backpressure is an expected rejection under -rejects-ok
// (any 429/503) or -mix (sheds and expiries); otherwise it fails the
// run like any other non-200.
func report(res *loadgen.Result, in reportInput, jsonOut bool, outFile string) int64 {
	tot := res.Total
	var rejected int64
	if in.mix || in.rejectsOK {
		rejected = tot.Shed + tot.Expired
	}
	if in.rejectsOK {
		rejected += tot.Unavailable
	}
	errs := tot.Sent - tot.OK - rejected
	elapsed := res.Elapsed.Seconds()
	n := len(res.Latencies)
	lat := quantilesMS(res.Latencies, "p50", "p95", "p99", "max")
	var sum time.Duration
	for _, d := range res.Latencies {
		sum += d
	}
	lat["mean"] = 0
	if n > 0 {
		lat["mean"] = sum.Seconds() * 1e3 / float64(n)
	}
	reqPerSec := float64(n) / elapsed
	offered := float64(tot.Sent) / elapsed
	out := map[string]any{
		"model":         in.model,
		"mode":          in.mode,
		"bit_exact":     in.bitExact,
		"batch":         in.batch,
		"requests":      n,
		"errors":        errs,
		"rejected":      rejected,
		"mismatches":    res.Mismatches,
		"elapsed_s":     elapsed,
		"offered_per_s": offered,
		"req_per_s":     reqPerSec,
		"infer_per_s":   reqPerSec * float64(in.batch),
		"latency_ms":    lat,
	}
	if len(res.Categories) > 0 {
		out["categories"] = res.Categories
	}
	// Per-attempt latency diverges from per-request latency exactly when
	// retries fired: each attempt is one wire round trip, the request is
	// what the caller waited (attempts plus backoff).
	var attemptLat map[string]float64
	if res.Retries > 0 {
		attemptLat = quantilesMS(res.Attempts, "p50", "p95", "p99", "max")
		out["retries"] = res.Retries
		out["attempts"] = len(res.Attempts)
		out["attempt_latency_ms"] = attemptLat
	}
	if in.trace != nil {
		out["trace"] = in.trace
	}
	// A class's non-expected rejections (see report's doc) are failures.
	shed := func(c *loadgen.Tally) int64 {
		if in.rejectsOK {
			return c.Shed + c.Unavailable
		}
		return c.Shed
	}
	if res.Classes != nil {
		classes := map[string]any{}
		for name, c := range res.Classes {
			classes[name] = map[string]any{
				"deadline_ms": c.DeadlineMS,
				"sent":        c.Sent,
				"accepted":    c.OK,
				"shed":        shed(c),
				"expired":     c.Expired,
				"failed":      c.Sent - c.OK - shed(c) - c.Expired,
				"goodput":     c.Goodput,
			}
		}
		out["slo"] = map[string]any{
			"classes":       classes,
			"goodput":       tot.Goodput,
			"goodput_per_s": float64(tot.Goodput) / elapsed,
		}
	}
	if outFile != "" {
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(outFile, append(b, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", outFile)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatal(err)
		}
		return errs
	}
	fmt.Printf("%s (%s loop, batch %d, bit_exact=%v): %d requests, %d rejected, %d errors, %d mismatches in %.2fs\n",
		in.model, in.mode, in.batch, in.bitExact, n, rejected, errs, res.Mismatches, elapsed)
	fmt.Printf("throughput: %.1f req/s (%.1f inferences/s) at %.1f req/s offered\n",
		reqPerSec, reqPerSec*float64(in.batch), offered)
	fmt.Printf("latency ms: mean %.2f  p50 %.2f  p95 %.2f  p99 %.2f  max %.2f\n",
		lat["mean"], lat["p50"], lat["p95"], lat["p99"], lat["max"])
	if nonOK := int64(len(res.Attempts)) - res.Categories["ok"]; nonOK > 0 {
		fmt.Print("outcomes:")
		for _, name := range sortedKeys(res.Categories) {
			if name != "ok" {
				fmt.Printf("  %s %d", name, res.Categories[name])
			}
		}
		fmt.Println()
	}
	if res.Retries > 0 {
		fmt.Printf("retries: %d (%d attempts total); attempt latency ms: p50 %.2f  p95 %.2f  p99 %.2f\n",
			res.Retries, len(res.Attempts), attemptLat["p50"], attemptLat["p95"], attemptLat["p99"])
	}
	if res.Classes != nil {
		fmt.Printf("goodput: %.1f req/s in-deadline (%d of %d sent)\n",
			float64(tot.Goodput)/elapsed, tot.Goodput, tot.Sent)
		for _, name := range sortedKeys(res.Classes) {
			c := res.Classes[name]
			fmt.Printf("  %-11s deadline %6.1fms: sent %5d  ok %5d  goodput %5d  shed %5d  expired %5d  failed %3d\n",
				name, c.DeadlineMS, c.Sent, c.OK, c.Goodput, shed(c), c.Expired, c.Sent-c.OK-shed(c)-c.Expired)
		}
	}
	if in.trace != nil {
		fmt.Printf("trace join: %v sampled, %v joined via /debug/traces\n", in.trace["sampled"], in.trace["joined"])
		if phases, ok := in.trace["server_phase_ms"].(map[string]map[string]float64); ok {
			wall, _ := in.trace["client_wall_ms"].(map[string]float64)
			fmt.Printf("  p50 ms: client %.2f", wall["p50"])
			for _, name := range []string{"http", "wait", "queue", "exec", "stage", "hop"} {
				if q, ok := phases[name]; ok {
					fmt.Printf("  %s %.2f", name, q["p50"])
				}
			}
			fmt.Println()
		}
	}
	return errs
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
