package sim

import (
	"fmt"

	"rtmap/internal/core"
	"rtmap/internal/model"
	"rtmap/internal/tensor"
)

// ShardRun is the stage-wise functional execution of one input through a
// sharded plan: the unit of work the serving pipeline streams from device
// to device. Each Step executes the next stage against a working store
// seeded ONLY with the tensors the previous stage shipped (the plan's
// XferRefs), so a completed run proves the partition's boundary transfer
// sets were sufficient — a missing tensor fails the step instead of
// silently reading state a real device would not hold.
type ShardRun struct {
	c  *core.Compiled
	sp *core.ShardPlan

	stage int
	// store is the working trace of the next stage: the quantized input
	// before stage 0, then exactly the previous stage's XferRefs.
	store *model.IntTrace

	// trace accumulates every layer output when the run was created with
	// tracing on (ForwardAPSharded); nil otherwise.
	trace  *model.IntTrace
	logits *tensor.Int
}

// NewShardRun quantizes the input and prepares a run positioned before
// stage 0.
func NewShardRun(c *core.Compiled, sp *core.ShardPlan, in *tensor.Float) (*ShardRun, error) {
	if len(sp.Stages) == 0 || sp.Stages[len(sp.Stages)-1].Hi != len(c.Layers) {
		return nil, fmt.Errorf("sim: shard plan does not cover the %d-layer network", len(c.Layers))
	}
	return &ShardRun{c: c, sp: sp, store: quantizeInput(c, in)}, nil
}

// Done reports whether every stage has executed.
func (r *ShardRun) Done() bool { return r.stage >= len(r.sp.Stages) }

// Stage returns the index of the next stage to execute.
func (r *ShardRun) Stage() int { return r.stage }

// Logits returns the final layer output codes; nil until Done.
func (r *ShardRun) Logits() *tensor.Int { return r.logits }

// Step executes the next stage. bitExact selects the word-level AP
// machine for conv/linear layers; false runs the (bit-identical) integer
// software reference.
func (r *ShardRun) Step(bitExact bool) error {
	if r.Done() {
		return fmt.Errorf("sim: shard run already complete")
	}
	st := r.sp.Stages[r.stage]
	if err := execLayersBatch(r.c, []*model.IntTrace{r.store}, st.Lo, st.Hi, bitExact, nil); err != nil {
		return fmt.Errorf("sim: stage %d [%d,%d): %w", r.stage, st.Lo, st.Hi, err)
	}
	return r.finishStage()
}

// StepBatch advances a set of runs positioned at the same stage of the
// same compiled plan by one stage, executing their conv layers through
// the batched engine (one program interpretation per (strip, tile,
// row-group) for all runs). Results are bit-identical to stepping each
// run alone. The returned slice has one entry per run; a batch-wide
// execution failure is attributed to every run it aborted (the runs are
// structurally identical, so it would have failed each of them alone
// too). hook, when non-nil, observes every layer of the batched pass.
// Runs that are mismatched or already complete fall back to individual
// Steps, which drop the hook — mixed batches are a recovery corner, not
// an attribution target.
func StepBatch(runs []*ShardRun, bitExact bool, hook LayerHook) []error {
	errs := make([]error, len(runs))
	if len(runs) == 0 {
		return errs
	}
	uniform := true
	for _, r := range runs {
		if r.c != runs[0].c || r.sp != runs[0].sp || r.stage != runs[0].stage || r.Done() {
			uniform = false
			break
		}
	}
	if !uniform {
		for i, r := range runs {
			errs[i] = r.Step(bitExact)
		}
		return errs
	}
	st := runs[0].sp.Stages[runs[0].stage]
	trs := make([]*model.IntTrace, len(runs))
	for i, r := range runs {
		trs[i] = r.store
	}
	if err := execLayersBatch(runs[0].c, trs, st.Lo, st.Hi, bitExact, hook); err != nil {
		err = fmt.Errorf("sim: stage %d [%d,%d): %w", runs[0].stage, st.Lo, st.Hi, err)
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	for i, r := range runs {
		errs[i] = r.finishStage()
	}
	return errs
}

// finishStage records the executed stage's results and replaces the
// store with one holding only the boundary live set for the next stage
// (or captures the logits on the last one).
func (r *ShardRun) finishStage() error {
	st := r.sp.Stages[r.stage]
	tr := r.store
	n := len(r.c.Net.Layers)
	if r.trace != nil {
		if r.stage == 0 {
			r.trace.InputCodes = tr.InputCodes
		}
		for i := st.Lo; i < st.Hi; i++ {
			r.trace.Outputs[i] = tr.Outputs[i]
			r.trace.Scales[i] = tr.Scales[i]
		}
	}

	if r.stage == len(r.sp.Stages)-1 {
		r.logits = tr.Outputs[n-1]
		r.store = nil
		r.stage++
		return nil
	}
	// Ship exactly the boundary live set to the next stage.
	next := &model.IntTrace{
		Outputs: make([]*tensor.Int, n),
		Scales:  make([]float64, n),
	}
	for _, ref := range st.XferRefs {
		if ref == model.InputRef {
			next.InputCodes = tr.InputCodes
			continue
		}
		if tr.Outputs[ref] == nil {
			return fmt.Errorf("sim: stage %d boundary ref %d not produced", r.stage, ref)
		}
		next.Outputs[ref] = tr.Outputs[ref]
		next.Scales[ref] = tr.Scales[ref]
	}
	r.store = next
	r.stage++
	return nil
}

// ForwardAPSharded replays the network stage by stage under the shard
// plan, each stage isolated to its boundary context, and returns the full
// integer trace. It must be bit-identical to ForwardAP for every plan —
// the sharding analogue of the paper's "retaining software accuracy"
// property.
func ForwardAPSharded(c *core.Compiled, sp *core.ShardPlan, in *tensor.Float) (*model.IntTrace, error) {
	run, err := NewShardRun(c, sp, in)
	if err != nil {
		return nil, err
	}
	run.trace = &model.IntTrace{
		Outputs: make([]*tensor.Int, len(c.Net.Layers)),
		Scales:  make([]float64, len(c.Net.Layers)),
	}
	for !run.Done() {
		if err := run.Step(true); err != nil {
			return nil, err
		}
	}
	return run.trace, nil
}
