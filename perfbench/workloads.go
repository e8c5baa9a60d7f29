package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"rtmap/internal/model"
	"rtmap/internal/serve"
	"rtmap/internal/tensor"
	synth "rtmap/internal/workload"
)

// workload is one traffic mix. Every caller is closed-loop: it sends its
// next request only once the previous reply is in.
type workload struct {
	name    string
	why     string
	model   string
	batch   int // samples per request
	callers int // never more than the 2 cores the benchmark is sized for
	// tailPct is the tail percentile reported as latency_tail_ms, fixed
	// so that a run of the benchmark's length leaves at least minBeyond
	// samples above it.
	tailPct float64
	routed  bool
	// variants are the model-seed variants the traffic spreads over.
	// They are fixed, not drawn from --seed: the weights set the
	// compiled programs, and with them set-up time and simulated
	// energy, which must not move from one payload seed to the next.
	// The tinycnn variants are ones whose logits vary with the input:
	// under the default seed 1 every logit is 0, which no bit-exact
	// check can tell from a broken engine.
	variants []uint64
	bodies   int // distinct request bodies per variant
	setups   int // cold set-ups per untraced run; setup_s is their median
}

var workloads = []workload{
	{
		name:  "tinycnn-single",
		why:   "one sample per request from 2 callers: the batcher's 2 ms formation window dominates, so batch-formation changes show here",
		model: "tinycnn", batch: 1, callers: 2, tailPct: 95,
		variants: []uint64{12}, bodies: 64, setups: 15,
	},
	{
		name:  "tinycnn-batch8",
		why:   "8 samples per request fill MaxBatch on arrival and bypass the window; decode, encode and handler work dominate",
		model: "tinycnn", batch: 8, callers: 2, tailPct: 95,
		variants: []uint64{12}, bodies: 64, setups: 15,
	},
	{
		name:  "resnet18-single",
		why:   "ResNet-18 at 224x224, single stream as in the paper: AP exec dominates and the cold compile dominates set-up",
		model: "resnet18", batch: 1, callers: 1, tailPct: 50,
		variants: []uint64{1}, bodies: 2, setups: 3,
	},
	{
		name:  "routed-tinycnn-batch8",
		why:   "the tinycnn-batch8 stream through a cluster router over two nodes, one model variant on each: the only run of internal/cluster",
		model: "tinycnn", batch: 8, callers: 2, tailPct: 95, routed: true,
		variants: []uint64{12, 16}, bodies: 32, setups: 15,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// builders are the zoo constructors of the benchmarked models.
var builders = map[string]func(model.Config) *model.Network{
	"tinycnn":  model.TinyCNN,
	"resnet18": model.ResNet18,
}

// Build parameters every request carries: the paper's defaults.
const (
	actBits  = 4
	sparsity = 0.8
)

func modelConfig(variant uint64) model.Config {
	return model.Config{ActBits: actBits, Sparsity: sparsity, Seed: variant}
}

func spec(w workload, variant uint64) serve.Spec {
	return serve.Spec{Model: w.model, ActBits: actBits, Sparsity: sparsity, Seed: variant}
}

// body is one encoded /v1/infer request and the software integer
// reference of each of its samples.
type body struct {
	variant uint64
	json    []byte
	inputs  []*tensor.Float
	logits  [][]int32
	argmax  []int
}

// fixture is a run's traffic: every body the callers send, built from
// the seed before any timing starts.
type fixture struct {
	w      workload
	bodies []*body // variants alternate, so consecutive sends do too
}

// newFixture draws the payloads from seed and computes each sample's
// reference output with model.ForwardInt, which shares no code with the
// AP engine the server replays.
func newFixture(w workload, seed uint64) (*fixture, error) {
	f := &fixture{w: w}
	nets := make([]*model.Network, len(w.variants))
	for vi, v := range w.variants {
		nets[vi] = builders[w.model](modelConfig(v))
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	var refs []func() error
	for i := 0; i < w.bodies; i++ {
		for vi, v := range w.variants {
			net := nets[vi]
			b := &body{variant: v}
			b.inputs = synth.Inputs(net.InputShape, w.batch, rng.Uint64())
			req := serve.InferRequest{Model: w.model, ActBits: actBits, Sparsity: ptr(sparsity),
				Seed: v, BitExact: true}
			for _, in := range b.inputs {
				req.Inputs = append(req.Inputs, in.Data)
			}
			var err error
			if b.json, err = json.Marshal(&req); err != nil {
				return nil, err
			}
			b.logits = make([][]int32, w.batch)
			b.argmax = make([]int, w.batch)
			for k, in := range b.inputs {
				refs = append(refs, func() error {
					tr, err := net.ForwardInt(in)
					if err != nil {
						return fmt.Errorf("reference of variant %d: %w", v, err)
					}
					lg := tr.Logits()
					b.logits[k] = slices.Clone(lg.Data)
					b.argmax[k] = lg.ArgmaxInt()[0]
					return nil
				})
			}
			f.bodies = append(f.bodies, b)
		}
	}
	return f, parallel(refs)
}

// parallel runs the tasks on GOMAXPROCS workers.
func parallel(tasks []func() error) error {
	errs := make([]error, len(tasks))
	next := make(chan int)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = tasks[i]()
			}
		}()
	}
	for i := range tasks {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

func ptr[T any](v T) *T { return &v }

// check compares one decoded response against the body's reference:
// the result count, and every sample's logits and argmax.
func (b *body) check(resp *serve.InferResponse) error {
	if len(resp.Results) != len(b.logits) {
		return fmt.Errorf("%d results for %d samples", len(resp.Results), len(b.logits))
	}
	for k, r := range resp.Results {
		if !slices.Equal(r.Logits, b.logits[k]) {
			return fmt.Errorf("sample %d: logits %v, reference %v", k, r.Logits, b.logits[k])
		}
		if r.Argmax != b.argmax[k] {
			return fmt.Errorf("sample %d: argmax %d, reference %d", k, r.Argmax, b.argmax[k])
		}
	}
	return nil
}
