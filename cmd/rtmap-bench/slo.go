package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"rtmap"
	"rtmap/internal/loadgen"
	"rtmap/internal/serve"
	"rtmap/internal/workload"
)

// sloSection is the JSON artifact of the SLO-scheduling benchmark
// (bench/BENCH_slo.json): two serving arms driven with the identical
// open-loop mixed-deadline workload on identical hardware, compared on
// goodput — requests answered 200 within their own deadline budget.
//
//   - "static": fixed devices/replicas, SLO machinery disabled. The
//     server runs throughput-only FIFO batching; deadlines exist only in
//     the client's ledger.
//   - "slo": deadline-aware formation, load shedding, and the
//     autoscaler growing the deployment from one replica, all on.
//
// The CI smoke job regenerates this artifact; GoodputRatio dropping
// toward 1.0 means the scheduler stopped earning its complexity, and
// any bit-exactness violation fails the run outright.
type sloSection struct {
	Network   string  `json:"network"`
	DurationS float64 `json:"duration_s_per_arm"`
	// WallScale is the serve.Options.WallScale dilation factor both arms
	// run under: simulated device latency is honored as wall time, so
	// service time — and therefore all queueing and deadline behaviour —
	// is governed by the paper's cost model instead of host CPU speed.
	WallScale float64 `json:"wall_scale"`
	// OfferedPerSec is the open-loop arrival rate both arms receive,
	// calibrated to ~1.3x the measured capacity of the static
	// configuration so deadline pressure is real but bounded.
	OfferedPerSec float64       `json:"offered_per_s"`
	Mix           []sloMixEntry `json:"mix"`
	Static        sloArm        `json:"static"`
	SLO           sloArm        `json:"slo"`
	// GoodputRatio is SLO-arm goodput over static-arm goodput at the
	// same offered load; the acceptance floor is 1.5.
	GoodputRatio float64 `json:"goodput_ratio"`
	// BitExactChecked counts the 200s compared against a reference: the
	// bit-exact bodies (one in 8) against the standalone engine's logits,
	// the rest against the first answer for their body.
	// BitExactViolations counts those that differed. Must be zero.
	BitExactViolations int64 `json:"bit_exact_violations"`
	BitExactChecked    int64 `json:"bit_exact_checked"`
}

// sloMixEntry documents one class of the driven workload.
type sloMixEntry struct {
	Class      string  `json:"class"`
	WeightPct  int     `json:"weight_pct"`
	DeadlineMS float64 `json:"deadline_ms"` // 0 = none
}

// sloArm is one serving configuration's measured outcome ledger.
type sloArm struct {
	Config        string                 `json:"config"`
	Sent          int64                  `json:"sent"`
	Accepted      int64                  `json:"accepted"`
	Shed          int64                  `json:"shed"`
	Expired       int64                  `json:"expired"`
	Failed        int64                  `json:"failed"`
	Goodput       int64                  `json:"goodput"`
	GoodputPerSec float64                `json:"goodput_per_s"`
	FinalReplicas int                    `json:"final_replicas"`
	Classes       map[string]sloArmClass `json:"classes"`
}

// sloArmClass is one class's slice of an arm's ledger.
type sloArmClass struct {
	DeadlineMS float64 `json:"deadline_ms"`
	Sent       int64   `json:"sent"`
	Accepted   int64   `json:"accepted"`
	Shed       int64   `json:"shed"`
	Expired    int64   `json:"expired"`
	Goodput    int64   `json:"goodput"`
}

// sloSweep builds the shared workload, calibrates the offered rate
// against a throwaway static server, then drives both arms with the
// identical schedule.
func sloSweep(seed uint64, dur time.Duration, noCache bool, progress func(string)) (*sloSection, error) {
	const devices, maxBatch = 4, 8
	// Dilation factor: tinycnn's batch-8 simulated latency is ~8.7us, so
	// x1000 makes one device worth ~1.1ms of wall time per item. That
	// puts the device — not the HTTP handler — on the critical path,
	// which is the regime the scheduler exists for: replicas add real
	// capacity, backlogs convert into missed deadlines, and the
	// autoscaler's cost-model pricing matches observed wall time.
	const wallScale = 1000
	mix := []loadgen.Class{
		{Name: "interactive", Weight: 5, DeadlineMS: 50},
		{Name: "standard", Weight: 3, DeadlineMS: 200},
		{Name: "bulk", Weight: 2},
	}
	bodies, err := buildSLOBodies(seed)
	if err != nil {
		return nil, err
	}
	sec := &sloSection{Network: "tinycnn", DurationS: dur.Seconds(), WallScale: wallScale}
	for _, c := range mix {
		sec.Mix = append(sec.Mix, sloMixEntry{Class: c.Name, WeightPct: c.Weight * 10, DeadlineMS: c.DeadlineMS})
	}

	staticOpts := serve.Options{
		Devices: devices, Replicas: 2, MaxBatch: maxBatch, MaxModels: 2,
		Window: 2 * time.Millisecond, DisableSLO: true,
		WallScale: wallScale,
		NoCache:   noCache, Logf: func(string, ...any) {},
	}
	// Shedding bound sized to the tightest deadline: a backlog worth more
	// than half an interactive budget cannot serve that class in time.
	sloOpts := serve.Options{
		Devices: devices, Replicas: 1, MaxBatch: maxBatch, MaxModels: 2,
		Window:        2 * time.Millisecond,
		MaxQueueDelay: 25 * time.Millisecond,
		Autoscale:     true, AutoscaleInterval: 100 * time.Millisecond,
		WallScale: wallScale,
		NoCache:   noCache, Logf: func(string, ...any) {},
	}

	// Calibration: the static configuration's closed-loop throughput on a
	// throwaway server, so the offered rate tracks the host instead of a
	// hardcoded number. Enough workers to keep every replica's batcher
	// full: with dilated devices this is saturation throughput, not
	// latency-bound round trips. Reference-path bodies only.
	progress("calibrating offered load against the static configuration")
	cal, _, err := inProcess(staticOpts, loadgen.Options{Bodies: bodies[:1], Workers: 64, Duration: 700 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	if cal.Total.OK != cal.Total.Sent {
		return nil, fmt.Errorf("calibration: %d of %d requests failed: %v", cal.Total.Sent-cal.Total.OK, cal.Total.Sent, cal.Samples)
	}
	if cal.Total.OK == 0 {
		return nil, fmt.Errorf("calibration measured zero throughput")
	}
	sec.OfferedPerSec = float64(cal.Total.OK) / cal.Elapsed.Seconds() * 1.3

	load := loadgen.Options{Bodies: bodies, Classes: mix, Rate: sec.OfferedPerSec, Duration: dur}
	for _, arm := range []struct {
		out    *sloArm
		opts   serve.Options
		config string
	}{
		{&sec.Static, staticOpts, "static 2 replicas, SLO off"},
		{&sec.SLO, sloOpts, "autoscale from 1 replica, shed at 25ms backlog"},
	} {
		progress(fmt.Sprintf("driving %s arm at %.0f req/s for %v", arm.config, sec.OfferedPerSec, dur))
		res, replicas, err := inProcess(arm.opts, load)
		if err != nil {
			return nil, err
		}
		*arm.out = sloArmOf(arm.config, res, dur)
		arm.out.FinalReplicas = replicas
		sec.BitExactChecked += res.Checked
		sec.BitExactViolations += res.Mismatches
	}

	if sec.Static.Goodput > 0 {
		sec.GoodputRatio = float64(sec.SLO.Goodput) / float64(sec.Static.Goodput)
	}
	return sec, nil
}

// buildSLOBodies pre-builds the 32-body pool both arms cycle: every 8th
// body (index 7 mod 8) requests bit-exact AP execution and carries the
// standalone engine's logits, which the serving path must reproduce bit
// for bit, deadline pressure or not; the rest use the software
// reference path.
func buildSLOBodies(seed uint64) ([]loadgen.Body, error) {
	const pool, exactPool = 28, 4
	net, err := buildNet("tinycnn", seed)
	if err != nil {
		return nil, err
	}
	sparsity := 0.8
	req := serve.InferRequest{Model: "tinycnn", ActBits: 4, Sparsity: &sparsity, Seed: seed}
	ref, err := loadgen.Bodies(req, net.InputShape, pool, 1, seed+1000)
	if err != nil {
		return nil, err
	}
	req.BitExact = true
	exact, err := loadgen.Bodies(req, net.InputShape, exactPool, 1, seed+1000+pool)
	if err != nil {
		return nil, err
	}
	cfg := rtmap.CompileConfigWithCache(nil, false)
	cfg.KeepPrograms = true
	comp, err := rtmap.Compile(net, cfg)
	if err != nil {
		return nil, err
	}
	for i, in := range workload.Inputs(net.InputShape, exactPool, seed+1000+pool) {
		tr, err := rtmap.RunFunctional(comp, in)
		if err != nil {
			return nil, err
		}
		exact[i].Want = [][]int32{tr.Logits().Data}
	}
	var bodies []loadgen.Body
	for i := 0; i < pool+exactPool; i++ {
		if i%8 == 7 {
			bodies = append(bodies, exact[i/8])
		} else {
			bodies = append(bodies, ref[i-i/8])
		}
	}
	return bodies, nil
}

// inProcess builds a server from opts, warms it (admission compiles the
// model outside any measurement), drives load through a transport that
// calls the server's handler directly, and reports the load ledger and
// the model's final replica count. In process because on a small host a
// loopback listener's socket and client overhead eats into the measured
// capacity and so shrinks the overload both arms are compared under.
func inProcess(opts serve.Options, load loadgen.Options) (*loadgen.Result, int, error) {
	srv := serve.New(opts)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	load.URL = "http://in-process"
	load.Transport = handlerTransport{srv.Handler()}
	if err := loadgen.Warm(load); err != nil {
		return nil, 0, err
	}
	res := loadgen.Run(context.Background(), load)
	replicas := 0
	if loaded := srv.Registry().Loaded(); len(loaded) > 0 {
		replicas = loaded[0].Replicas
	}
	return res, replicas, nil
}

// handlerTransport serves each request by calling h in process.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	w := httptest.NewRecorder()
	t.h.ServeHTTP(w, r)
	return w.Result(), nil
}

// sloArmOf turns one arm's load ledger into its artifact section.
func sloArmOf(config string, res *loadgen.Result, dur time.Duration) sloArm {
	t := res.Total
	arm := sloArm{
		Config: config, Sent: t.Sent, Accepted: t.OK, Shed: t.Shed, Expired: t.Expired,
		Failed: t.Unavailable + t.Failed, Goodput: t.Goodput,
		GoodputPerSec: float64(t.Goodput) / dur.Seconds(),
		Classes:       map[string]sloArmClass{},
	}
	for name, c := range res.Classes {
		arm.Classes[name] = sloArmClass{
			DeadlineMS: c.DeadlineMS, Sent: c.Sent, Accepted: c.OK,
			Shed: c.Shed, Expired: c.Expired, Goodput: c.Goodput,
		}
	}
	return arm
}
