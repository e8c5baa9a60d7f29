package main

import (
	"context"
	"fmt"
	"time"

	"rtmap/internal/cluster"
	"rtmap/internal/cluster/chaos"
	"rtmap/internal/core"
	"rtmap/internal/loadgen"
	"rtmap/internal/serve"
)

// Cluster-sweep shape: enough tinycnn seed-variants that the hash ring
// spreads keys over every node with overwhelming probability, pinned
// closed-loop workers so each node runs at its own device-bound
// capacity, and wall-time dilation so that capacity follows the cost
// model instead of host HTTP overhead (same rationale as the SLO
// bench's dilation).
const (
	clusterVariants  = 24
	clusterWorkers   = 2 // pinned workers per variant
	clusterWallScale = 2000
)

// clusterArm is one measured load window (bench/BENCH_cluster.json).
type clusterArm struct {
	Nodes      int     `json:"nodes"`
	WallS      float64 `json:"wall_s"`
	Sent       int64   `json:"sent"`
	OK         int64   `json:"ok"`
	Rejected   int64   `json:"rejected"`
	Errors     int64   `json:"errors"`
	Mismatches int64   `json:"mismatches"`
	OKPerSec   float64 `json:"ok_per_s"`
}

// clusterRecovery is the node-kill phase: detection latency in wall
// time and in completed health-probe cycles, plus the tally of the
// drive that ran across the kill (its gates are Errors == 0 and
// Mismatches == 0 — the kill must not drop accepted requests or bend
// results).
type clusterRecovery struct {
	Victim           string     `json:"victim"`
	HealthIntervalMS float64    `json:"health_interval_ms"`
	DetectMS         float64    `json:"detect_ms"`
	DetectCycles     int64      `json:"detect_cycles"`
	AcrossKill       clusterArm `json:"across_kill"`
}

// clusterSection is the JSON artifact of rtmap-bench -cluster.
type clusterSection struct {
	Network    string          `json:"network"`
	Variants   int             `json:"variants"`
	Workers    int             `json:"pinned_workers_per_variant"`
	WallScale  float64         `json:"wall_scale"`
	Arms       []clusterArm    `json:"arms"`
	Scaling3v1 float64         `json:"scaling_3v1"`
	Recovery   clusterRecovery `json:"recovery"`
}

// clusterSweep measures the router tier: aggregate throughput at 1 and
// 3 nodes under identical dilated load, then a mid-load node kill on
// the 3-node cluster timing how fast the health table confirms the
// death. The artifact's acceptance gates: scaling_3v1 >= 2.5 and
// recovery.detect_cycles <= 1 (passive connect-refused reports from
// live traffic beat the active prober to the threshold).
func clusterSweep(dur time.Duration, progress func(string)) (*clusterSection, error) {
	healthInterval := 100 * time.Millisecond
	cache := core.NewCache() // shared across arms: the 3-node arm admits warm
	nodeOpts := serve.Options{
		Devices: 2, MaxBatch: 8, Window: time.Millisecond, Queue: 256,
		MaxModels: clusterVariants + 2,
		WallScale: clusterWallScale,
		Cache:     cache,
		Logf:      func(string, ...any) {},
	}
	routerOpts := cluster.Options{
		Health: cluster.HealthOptions{
			Interval: healthInterval, Timeout: 250 * time.Millisecond,
			FailThreshold: 3, SuccessThreshold: 2,
		},
		Breaker:     cluster.BreakerOptions{Threshold: 5, Cooloff: 500 * time.Millisecond},
		MaxAttempts: 3,
		Logf:        func(string, ...any) {},
	}
	sh, _ := serve.ZooShape("tinycnn")
	var bodies []loadgen.Body
	for v := 1; v <= clusterVariants; v++ {
		b, err := loadgen.Bodies(serve.InferRequest{Model: "tinycnn", Seed: uint64(v)}, sh, 1, 2, 7)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, b...)
	}
	load := func(c *chaos.Cluster, dur time.Duration) loadgen.Options {
		return loadgen.Options{
			URL: c.RouterURL(), Bodies: bodies, Workers: clusterWorkers, Pinned: true,
			Duration: dur, Timeout: 30 * time.Second,
		}
	}

	sec := &clusterSection{
		Network: "tinycnn", Variants: clusterVariants,
		Workers: clusterWorkers, WallScale: clusterWallScale,
	}
	for _, n := range []int{1, 3} {
		progress(fmt.Sprintf("cluster arm: %d node(s), %d variants, %s window", n, clusterVariants, dur))
		c, err := chaos.Start(chaos.Options{Nodes: n, Node: nodeOpts, Router: routerOpts})
		if err != nil {
			return nil, err
		}
		loadgen.Run(context.Background(), load(c, time.Second)) // admit every variant
		arm := clusterArmOf(loadgen.Run(context.Background(), load(c, dur)))
		arm.Nodes = n
		sec.Arms = append(sec.Arms, *arm)

		if n == 3 {
			rec, err := clusterKill(c, load(c, 0), healthInterval, progress)
			if err != nil {
				c.Close()
				return nil, err
			}
			sec.Recovery = *rec
		}
		c.Close()
	}
	if a := sec.Arms[0].OKPerSec; a > 0 {
		sec.Scaling3v1 = sec.Arms[1].OKPerSec / a
	}
	return sec, nil
}

// clusterArmOf summarizes one load run as an arm.
func clusterArmOf(res *loadgen.Result) *clusterArm {
	t, wall := res.Total, res.Elapsed.Seconds()
	return &clusterArm{
		WallS: wall, Sent: t.Sent, OK: t.OK, Rejected: t.Shed + t.Expired + t.Unavailable,
		Errors: t.Failed, Mismatches: res.Mismatches,
		OKPerSec: float64(t.OK) / wall,
	}
}

// clusterKill kills the busiest node mid-load and times detection.
func clusterKill(c *chaos.Cluster, load loadgen.Options, healthInterval time.Duration, progress func(string)) (*clusterRecovery, error) {
	// Background load across the kill; the arm that just finished left
	// every variant admitted, so no warmup is needed.
	rctx, rcancel := context.WithCancel(context.Background())
	defer rcancel()
	done := make(chan *loadgen.Result, 1)
	go func() { done <- loadgen.Run(rctx, load) }()
	time.Sleep(500 * time.Millisecond) // steady state before the kill

	// Victim: the primary owner of the most variants — the node whose
	// death moves the most traffic.
	ring := c.Router().Ring()
	counts := map[string]int{}
	for v := 1; v <= clusterVariants; v++ {
		key := cluster.RouteKey("tinycnn", 0, nil, uint64(v))
		counts[ring.Owners(key, 1)[0]]++
	}
	victim, victimIdx := "", -1
	for i := 0; i < c.Nodes(); i++ {
		if url := c.NodeURL(i); victim == "" || counts[url] > counts[victim] {
			victim, victimIdx = url, i
		}
	}

	progress(fmt.Sprintf("cluster kill: %s (owns %d/%d variants)", victim, counts[victim], clusterVariants))
	health := c.Router().Health()
	cycles0 := health.Cycles()
	t0 := time.Now()
	if err := c.Kill(victimIdx); err != nil {
		return nil, err
	}
	for health.State(victim) != cluster.StateDown {
		if time.Since(t0) > 10*time.Second {
			return nil, fmt.Errorf("cluster bench: %s not marked down 10s after kill", victim)
		}
		time.Sleep(2 * time.Millisecond)
	}
	detect := time.Since(t0)
	detectCycles := health.Cycles() - cycles0

	time.Sleep(500 * time.Millisecond) // post-kill window at 2 nodes
	rcancel()
	across := clusterArmOf(<-done)
	across.Nodes = 3
	return &clusterRecovery{
		Victim:           victim,
		HealthIntervalMS: float64(healthInterval) / 1e6,
		DetectMS:         float64(detect) / 1e6,
		DetectCycles:     detectCycles,
		AcrossKill:       *across,
	}, nil
}
