package chaos

import (
	"context"
	"testing"
	"time"

	"rtmap/internal/cluster"
	"rtmap/internal/dispatch"
	"rtmap/internal/loadgen"
	"rtmap/internal/serve"
)

// testOptions is the fast-reflex cluster the suite runs: 3 small nodes,
// 50ms probes, sub-second breaker cooloff, tight attempt timeouts.
func testOptions() Options {
	return Options{
		Nodes: 3,
		Node: serve.Options{
			Devices:  2,
			MaxBatch: 4,
			Window:   time.Millisecond,
			Queue:    64,
		},
		Router: cluster.Options{
			Health: cluster.HealthOptions{
				Interval: 50 * time.Millisecond,
				// Timeout > the slow fault's 50ms delay: a slow node must
				// fail requests' attempt timeouts, not its health probes.
				Timeout:          250 * time.Millisecond,
				FailThreshold:    3,
				SuccessThreshold: 2,
			},
			Breaker: cluster.BreakerOptions{Threshold: 5, Cooloff: 250 * time.Millisecond},
			Timeout: dispatch.AttemptTimeouts{
				Interactive: 2 * time.Second,
				Standard:    5 * time.Second,
				Bulk:        10 * time.Second,
			},
		},
	}
}

// drive is the suite's load: closed-loop clients cycling tinycnn and
// tinyresnet (seed 1, two samples per request) through the router,
// every request carrying class when one is given.
func drive(t *testing.T, c *Cluster, workers int, class string) loadgen.Options {
	t.Helper()
	var bodies []loadgen.Body
	for _, m := range []string{"tinycnn", "tinyresnet"} {
		sh, _ := serve.ZooShape(m)
		b, err := loadgen.Bodies(serve.InferRequest{Model: m, Seed: 1}, sh, 1, 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b...)
	}
	o := loadgen.Options{URL: c.RouterURL(), Bodies: bodies, Workers: workers, Timeout: 30 * time.Second}
	if class != "" {
		o.Classes = []loadgen.Class{{Name: class, Weight: 1}}
	}
	return o
}

// driveDuring runs the load in the background, hands control to body,
// then stops the load and returns its ledger.
func driveDuring(o loadgen.Options, body func()) *loadgen.Result {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *loadgen.Result)
	go func() { done <- loadgen.Run(ctx, o) }()
	body()
	cancel()
	return <-done
}

// waitState polls until the router's health table reads the node in the
// wanted state.
func waitState(t *testing.T, c *Cluster, i int, want cluster.NodeState, within time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	for time.Since(start) < within {
		if c.Router().Health().State(c.NodeURL(i)) == want {
			return time.Since(start)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("node %d never reached state %v within %v (state %v)",
		i, want, within, c.Router().Health().State(c.NodeURL(i)))
	return 0
}

// victimFor returns the index of the node that primarily owns the
// driven variant (model, seed 1): the node whose death actually moves
// traffic. Killing an arbitrary index could pick a node that owns
// neither driven model and prove nothing about failover.
func victimFor(t *testing.T, c *Cluster, model string) int {
	t.Helper()
	key := cluster.RouteKey(model, 0, nil, 1)
	owner := c.Router().Ring().Owners(key, 1)[0]
	for i := 0; i < c.Nodes(); i++ {
		if c.NodeURL(i) == owner {
			return i
		}
	}
	t.Fatalf("owner %s of %s is not a chaos node", owner, model)
	return -1
}

func assertClean(t *testing.T, res *loadgen.Result) {
	t.Helper()
	t.Logf("chaos load: %+v, %d checked, %d mismatches (%v)", res.Total, res.Checked, res.Mismatches, res.Categories)
	if res.Total.OK == 0 {
		t.Fatal("no request succeeded at all")
	}
	if res.Total.Failed != 0 || res.Mismatches != 0 {
		t.Fatalf("chaos gates violated: %d failed, %d mismatches, samples: %v", res.Total.Failed, res.Mismatches, res.Samples)
	}
}

// TestChaosKillRestartMidLoad is the headline scenario: a node is
// hard-killed under load and later revived. Gates: zero accepted
// requests dropped, bit-exact results throughout, the dead node is
// confirmed down and rebalanced around, and the rejoiner comes back
// from probation with a clean breaker.
func TestChaosKillRestartMidLoad(t *testing.T) {
	c, err := Start(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	victim := victimFor(t, c, "tinycnn")
	report := driveDuring(drive(t, c, 6, ""), func() {
		time.Sleep(700 * time.Millisecond) // warm both models on their owners

		if err := c.Kill(victim); err != nil {
			t.Error(err)
			return
		}
		detect := waitState(t, c, victim, cluster.StateDown, 5*time.Second)
		t.Logf("kill confirmed down in %v", detect)
		time.Sleep(500 * time.Millisecond) // serve through the hole

		if err := c.Restart(victim); err != nil {
			t.Error(err)
			return
		}
		waitState(t, c, victim, cluster.StateUp, 5*time.Second)
		if got := c.Router().Breakers().State(c.NodeURL(victim)); got != cluster.BreakerClosed {
			t.Errorf("rejoined node's breaker is %v, want closed (clean probation slate)", got)
		}
		time.Sleep(500 * time.Millisecond) // serve with the rejoiner back
	})
	assertClean(t, report)

	_, retries, _, _, _ := c.Router().Metrics().Counters()
	if retries == 0 {
		t.Error("a mid-load kill should have forced at least one retry")
	}
	opens, resets := c.Router().Breakers().Stats()
	if resets == 0 {
		t.Errorf("rejoin never reset a breaker (opens %d, resets %d)", opens, resets)
	}
}

// TestChaosHangFault black-holes one node at the wire: connections open
// and never answer. The class-derived attempt timeout must unstick
// every attempt and fail it over.
func TestChaosHangFault(t *testing.T) {
	opts := testOptions()
	opts.Router.Timeout = dispatch.AttemptTimeouts{
		Interactive: 400 * time.Millisecond,
		Standard:    400 * time.Millisecond,
		Bulk:        time.Second,
	}
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	report := driveDuring(drive(t, c, 4, ""), func() {
		time.Sleep(600 * time.Millisecond)
		c.Inject(1, cluster.Fault{Kind: cluster.FaultHang})
		// Hung probes time out too, so health confirms the node down and
		// routing moves off it; in the window before that, attempts hit
		// their 400ms timeout and fail over.
		waitState(t, c, 1, cluster.StateDown, 5*time.Second)
		time.Sleep(400 * time.Millisecond)
		c.Inject(1, cluster.Fault{})
		waitState(t, c, 1, cluster.StateUp, 5*time.Second)
		time.Sleep(300 * time.Millisecond)
	})
	assertClean(t, report)
}

// TestChaosSlowFault delays every response from one node by 50ms. That
// is degradation, not death: the node must stay routable and the run
// stays clean with no forced failover.
func TestChaosSlowFault(t *testing.T) {
	c, err := Start(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	report := driveDuring(drive(t, c, 4, "interactive"), func() {
		time.Sleep(500 * time.Millisecond)
		c.Inject(2, cluster.Fault{Kind: cluster.FaultSlow, Delay: 50 * time.Millisecond})
		time.Sleep(time.Second)
		if got := c.Router().Health().State(c.NodeURL(2)); got == cluster.StateDown {
			t.Error("a merely slow node was declared down")
		}
		c.Inject(2, cluster.Fault{})
	})
	assertClean(t, report)
}

// TestChaosPartitionHealsWithoutRestart cuts the wire to one node (the
// node itself keeps running) and then heals it: the node must return to
// service with no restart — the operational difference between a
// partition and a crash.
func TestChaosPartitionHealsWithoutRestart(t *testing.T) {
	c, err := Start(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	report := driveDuring(drive(t, c, 4, ""), func() {
		time.Sleep(600 * time.Millisecond)
		c.Inject(0, cluster.Fault{Kind: cluster.FaultPartition})
		waitState(t, c, 0, cluster.StateDown, 5*time.Second)
		time.Sleep(400 * time.Millisecond)
		c.Inject(0, cluster.Fault{}) // heal: no Restart call
		recover := waitState(t, c, 0, cluster.StateUp, 5*time.Second)
		t.Logf("partition healed to up in %v", recover)
		time.Sleep(300 * time.Millisecond)
	})
	assertClean(t, report)
}

// TestChaosFlapFault alternates one node dead/alive on a 300ms period —
// the pathological case for naive health checking. Probation's
// one-strike rule keeps the flapper from absorbing traffic it will
// drop, and the run must stay clean.
func TestChaosFlapFault(t *testing.T) {
	c, err := Start(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	report := driveDuring(drive(t, c, 4, ""), func() {
		time.Sleep(600 * time.Millisecond)
		c.Inject(1, cluster.Fault{Kind: cluster.FaultFlap, Period: 300 * time.Millisecond})
		time.Sleep(2 * time.Second)
		c.Inject(1, cluster.Fault{})
		waitState(t, c, 1, cluster.StateUp, 5*time.Second)
		time.Sleep(300 * time.Millisecond)
	})
	assertClean(t, report)
}

// TestChaosInteractiveHedgingUnderKill drives interactive traffic (the
// hedging path) through a mid-load kill: hedges and retries may race
// freely, and every accepted answer must still be bit-exact.
func TestChaosInteractiveHedgingUnderKill(t *testing.T) {
	c, err := Start(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	victim := victimFor(t, c, "tinycnn")
	report := driveDuring(drive(t, c, 6, "interactive"), func() {
		time.Sleep(700 * time.Millisecond)
		if err := c.Kill(victim); err != nil {
			t.Error(err)
			return
		}
		waitState(t, c, victim, cluster.StateDown, 5*time.Second)
		time.Sleep(500 * time.Millisecond)
	})
	assertClean(t, report)
}
