package sim

import (
	"fmt"
	"testing"

	"rtmap/internal/core"
	"rtmap/internal/model"
	"rtmap/internal/tensor"
)

// assertTraceEqual fails on the first layer whose output codes differ.
func assertTraceEqual(t *testing.T, net *model.Network, got, want *model.IntTrace, label string) {
	t.Helper()
	for i := range net.Layers {
		if !got.Outputs[i].Equal(want.Outputs[i]) {
			t.Fatalf("%s: layer %d (%s) diverges", label, i, net.Layers[i].Name)
		}
	}
}

// The batched engine's core property: ForwardAPBatch is bit-identical to
// per-item ForwardAP AND to the retained pre-ExecPlan interpreter
// (ForwardAPBaseline) for N ∈ {1, 3, 8}, on both a sequential and a
// residual network.
func TestForwardAPBatchMatchesSerial(t *testing.T) {
	nets := map[string]*model.Network{
		"tinycnn":    model.TinyCNN(model.DefaultConfig()),
		"tinyresnet": model.TinyResNet(model.DefaultConfig()),
	}
	if !testing.Short() {
		// 3- and 4-lane plans: item b's rows start at b·n, so with n not
		// a multiple of the lane count items share machine words.
		nets["miniresnet18-8bit"] = model.MiniResNet18(eightBit, 32, 32)
	}
	for name, net := range nets {
		c := compileNet(t, net, true)
		for _, n := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("%s/N=%d", name, n), func(t *testing.T) {
				ins := make([]*tensor.Float, n)
				for i := range ins {
					ins[i] = randInput(uint64(100*n+i), net.InputShape)
				}
				got, err := ForwardAPBatch(c, ins)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != n {
					t.Fatalf("%d traces for %d inputs", len(got), n)
				}
				for i, in := range ins {
					serial, err := ForwardAP(c, in)
					if err != nil {
						t.Fatal(err)
					}
					assertTraceEqual(t, net, got[i], serial, fmt.Sprintf("item %d vs serial", i))
					base, err := ForwardAPBaseline(c, in)
					if err != nil {
						t.Fatal(err)
					}
					assertTraceEqual(t, net, got[i], base, fmt.Sprintf("item %d vs baseline", i))
				}
			})
		}
	}
}

// Randomized single conv layers across strides, pads, kernel shapes and
// channel counts: the batched engine must equal the pre-ExecPlan
// interpreter (and through it, the direct integer convolution) item by
// item.
func TestRunConvBatchMatchesBaseline(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		cin := 1 + trial%5
		k := 1 + trial%3
		stride := 1 + trial%2
		h := k + 3 + trial
		net := singleConvNet(uint64(trial+21), cin, 2+trial, k, stride, k/2, h, 0.5)
		c := compileNet(t, net, true)

		const n = 5
		ins := make([]*tensor.Int, n)
		for b := range ins {
			in := randInput(uint64(trial*10+b), net.InputShape)
			tr, err := net.ForwardInt(in)
			if err != nil {
				t.Fatal(err)
			}
			ins[b] = tr.InputCodes
		}
		outs, err := RunConvBatch(c, 0, ins)
		if err != nil {
			t.Fatal(err)
		}
		for b, in := range ins {
			want, err := runConvBaseline(c, 0, in)
			if err != nil {
				t.Fatal(err)
			}
			if !outs[b].Equal(want) {
				t.Fatalf("trial %d item %d: batched conv != baseline", trial, b)
			}
		}
	}
}

// StepBatch under a shard plan: a batch of runs advanced stage by stage
// must end bit-identical to ForwardAP, and mismatched-stage batches must
// fall back to individual stepping rather than corrupt state.
func TestStepBatchMatchesStep(t *testing.T) {
	net := model.TinyResNet(model.DefaultConfig())
	c := compileNet(t, net, true)
	rep := Analyze(c)
	costs := make([]float64, len(rep.Layers))
	for i, lr := range rep.Layers {
		costs[i] = lr.LatencyNS
	}
	sp, err := core.Partition(c, 3, costs)
	if err != nil {
		t.Fatal(err)
	}

	const n = 4
	ins := make([]*tensor.Float, n)
	runs := make([]*ShardRun, n)
	for i := range ins {
		ins[i] = randInput(uint64(i+500), net.InputShape)
		runs[i], err = NewShardRun(c, sp, ins[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	for !runs[0].Done() {
		for i, err := range StepBatch(runs, true, nil) {
			if err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
		}
	}
	for i, in := range ins {
		ref, err := ForwardAP(c, in)
		if err != nil {
			t.Fatal(err)
		}
		if !runs[i].Logits().Equal(ref.Logits()) {
			t.Fatalf("run %d: sharded batch logits diverge from ForwardAP", i)
		}
	}

	// Mismatched stages: one fresh run alongside finished ones falls back
	// to per-run stepping; the finished runs report completion errors and
	// the fresh one still advances correctly.
	fresh, err := NewShardRun(c, sp, ins[0])
	if err != nil {
		t.Fatal(err)
	}
	mixed := []*ShardRun{runs[0], fresh}
	for !fresh.Done() {
		errs := StepBatch(mixed, true, nil)
		if errs[0] == nil {
			t.Fatal("completed run must error on further steps")
		}
		if errs[1] != nil {
			t.Fatalf("fresh run: %v", errs[1])
		}
	}
	ref, err := ForwardAP(c, ins[0])
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Logits().Equal(ref.Logits()) {
		t.Fatal("fallback-stepped run diverges from ForwardAP")
	}
}

// The pooled steady-state path is allocation-free per call: once the
// pools have seen the workload's shapes, RunConvBatchInto performs a
// whole batched layer execution without a single heap allocation.
// testing.AllocsPerRun divides total allocations by the run count, so
// stray pool refills (a GC emptying a sync.Pool mid-measurement) wash
// out instead of flaking the gate.
func TestRunConvBatchIntoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	net := model.TinyCNN(model.DefaultConfig())
	c := compileNet(t, net, true)

	const n = 4
	ins := make([]*tensor.Int, n)
	outs := make([]*tensor.Int, n)
	spec := c.Net.Layers[0].ConvSpec()
	for b := range ins {
		in := randInput(uint64(b+900), net.InputShape)
		tr, err := net.ForwardInt(in)
		if err != nil {
			t.Fatal(err)
		}
		ins[b] = tr.InputCodes
		outs[b] = tensor.NewInt(spec.OutShape(tr.InputCodes.Shape))
	}
	run := func() {
		if err := RunConvBatchInto(c, 0, ins, outs); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		run() // warm the pools, the worker fleet, and every ExecPlan
	}
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("steady-state RunConvBatchInto allocates %.1f times per call, want 0", avg)
	}
}

// benchNet compiles a zoo network with programs retained for the
// functional-execution benchmarks.
func benchNet(b *testing.B, name string) (*model.Network, *core.Compiled) {
	b.Helper()
	var net *model.Network
	switch name {
	case "tinycnn":
		net = model.TinyCNN(model.DefaultConfig())
	case "miniresnet18":
		net = model.MiniResNet18(model.DefaultConfig(), 32, 32)
	case "resnet18":
		net = model.ResNet18(model.DefaultConfig())
	default:
		b.Fatalf("unknown bench network %q", name)
	}
	cfg := core.DefaultConfig()
	cfg.KeepPrograms = true
	c, err := core.Compile(net, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return net, c
}

// BenchmarkRunFunctional measures single-stream functional execution on
// the batched ExecPlan engine (batch = 1). The resnet18 case is the
// ISSUE's headline metric and runs only without -short (it simulates a
// full ImageNet-scale inference per iteration).
func BenchmarkRunFunctional(b *testing.B) {
	for _, name := range []string{"tinycnn", "miniresnet18", "resnet18"} {
		b.Run(name, func(b *testing.B) {
			if testing.Short() && name == "resnet18" {
				b.Skip("full ImageNet-scale functional simulation")
			}
			net, c := benchNet(b, name)
			in := randInput(7, net.InputShape)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ForwardAP(c, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunFunctionalBaseline is the same workload on the retained
// pre-ExecPlan interpreter — the A/B partner of BenchmarkRunFunctional.
func BenchmarkRunFunctionalBaseline(b *testing.B) {
	for _, name := range []string{"tinycnn", "miniresnet18"} {
		b.Run(name, func(b *testing.B) {
			net, c := benchNet(b, name)
			in := randInput(7, net.InputShape)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ForwardAPBaseline(c, in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunConvBatch measures one conv layer at increasing batch
// sizes; ns/op is divided by the batch so the per-inference amortization
// is directly visible.
func BenchmarkRunConvBatch(b *testing.B) {
	for _, name := range []string{"tinycnn", "miniresnet18"} {
		net, c := benchNet(b, name)
		for _, batch := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/batch%d", name, batch), func(b *testing.B) {
				ins := make([]*tensor.Int, batch)
				outs := make([]*tensor.Int, batch)
				spec := c.Net.Layers[0].ConvSpec()
				for i := range ins {
					tr, err := net.ForwardInt(randInput(uint64(i), net.InputShape))
					if err != nil {
						b.Fatal(err)
					}
					ins[i] = tr.InputCodes
					outs[i] = tensor.NewInt(spec.OutShape(tr.InputCodes.Shape))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := RunConvBatchInto(c, 0, ins, outs); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/infer")
			})
		}
	}
}
