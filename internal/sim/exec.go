package sim

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"rtmap/internal/ap"
	"rtmap/internal/core"
	"rtmap/internal/model"
	"rtmap/internal/tensor"
)

// This file is the batched, pooled functional execution engine: the hot
// path that replays compiled AP programs. The CAM array's whole economy
// is amortizing one program over many rows, and the engine mirrors that
// in software — a batch of N inputs lays its im2col rows side by side
// and every (strip, tile, row-group) program is interpreted once for all
// of them, through precompiled ap.ExecPlans, pooled arenas, and a
// persistent worker pool across (tile, row-group) tasks. Results are
// bit-identical to the retained single-input interpreter
// (ForwardAPBaseline); TestForwardAPBatchMatchesSerial proves it.

// i32Pool recycles im2col scratch buffers; machinePool recycles the
// column arenas of inline (non-worker) execution. Both reach an
// allocation-free steady state once the shapes of a workload have been
// seen — TestRunConvBatchIntoAllocFree gates it.
var (
	i32Pool     sync.Pool // *[]int32
	machinePool = sync.Pool{New: func() any { return new(ap.Machine) }}
	ctxPool     = sync.Pool{New: func() any { return new(convCtx) }}
)

func getI32(n int) *[]int32 {
	if p, ok := i32Pool.Get().(*[]int32); ok && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	s := make([]int32, n)
	return &s
}

// convCtx is the shared state of one batched conv execution; tasks index
// into it. Pooled so the steady-state path allocates nothing.
type convCtx struct {
	plan  *core.LayerPlan
	cols  []int32 // im2col scratch: [item][channel][k·P+pos]
	cin   int
	kp    int // K·P per (item, channel) segment
	p     int
	batch int
	outs  []*tensor.Int
	tile  []int // tile row offsets

	wg  sync.WaitGroup
	mu  sync.Mutex
	err error
}

// colSeg returns item b's im2col matrix for global input channel ci.
func (ctx *convCtx) colSeg(b, ci int) []int32 {
	off := (b*ctx.cin + ci) * ctx.kp
	return ctx.cols[off : off+ctx.kp]
}

func (ctx *convCtx) fail(err error) {
	ctx.mu.Lock()
	if ctx.err == nil {
		ctx.err = err
	}
	ctx.mu.Unlock()
}

func (ctx *convCtx) failed() bool {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	return ctx.err != nil
}

// convTask is one (tile, row-group) unit of work: it owns a disjoint
// output region (tile → output channels, row group → output positions)
// and serially accumulates every strip's partial sums into it, so tasks
// never contend and the inter-strip reduction stays exact (int32 adds
// commute bit-exactly regardless of task order).
type convTask struct {
	ctx    *convCtx
	tile   int
	r0, r1 int
}

// The persistent worker pool. Workers own a Machine each (its arena
// grows to the largest shape it has replayed and is then reused), so
// task execution allocates nothing. submitConv never blocks on a
// saturated pool: the submitter runs the task inline instead, which
// keeps progress even when many batched executions overlap (the serving
// fleet runs one per device goroutine).
var (
	workersOnce sync.Once
	workCh      chan convTask
)

func startWorkers() {
	n := runtime.GOMAXPROCS(0)
	workCh = make(chan convTask, 4*n)
	for i := 0; i < n; i++ {
		go func() {
			m := new(ap.Machine)
			for t := range workCh {
				runConvTask(t, m)
			}
		}()
	}
}

func submitConv(t convTask) {
	select {
	case workCh <- t:
	default:
		m := machinePool.Get().(*ap.Machine)
		runConvTask(t, m)
		machinePool.Put(m)
	}
}

// runConvTask executes one (tile, row-group) across every strip and all
// batch items: the machine holds n·batch rows (item b's row group lives
// at rows [b·n, (b+1)·n)) and each strip's program runs once for the
// whole batch.
//
//rtmap:noalloc
func runConvTask(t convTask, m *ap.Machine) {
	ctx := t.ctx
	defer ctx.wg.Done()
	if ctx.failed() {
		return
	}
	n := t.r1 - t.r0
	rows := n * ctx.batch
	for _, sp := range ctx.plan.StripPlans {
		tp := sp.Programs[t.tile]
		plan, err := tp.ExecPlan()
		if err != nil {
			ctx.fail(err)
			return
		}
		m.Reset(plan, rows)
		for virt, bind := range tp.InputBindings {
			chLocal, k := bind[0], bind[1]
			if chLocal >= len(sp.Channels) {
				continue // plane slot unused by this strip's tail
			}
			global := sp.Channels[chLocal]
			for b := 0; b < ctx.batch; b++ {
				src := ctx.colSeg(b, global)[k*ctx.p+t.r0 : k*ctx.p+t.r1]
				m.SetColumnInt32(virt, b*n, src)
			}
		}
		m.Run()
		for o, accV := range tp.AccVirt {
			co := ctx.tile[t.tile] + o
			for b := 0; b < ctx.batch; b++ {
				out := ctx.outs[b]
				base := out.Shape.Index(0, co, 0, 0)
				m.AccumulateColumn(accV, b*n, out.Data[base+t.r0:base+t.r1])
			}
		}
	}
}

// taskChunk picks the row range each task simulates in one machine
// pass. Rows are independent in the word-level semantics, so the camRows
// hardware granularity is not a semantic boundary: fusing row groups
// into one pass amortizes program interpretation over many more rows
// (results stay bit-identical — physically it is several row groups side
// by side). The chunk still splits enough to feed the worker pool and
// caps the machine arena so the column working set stays cache-resident.
func taskChunk(p, tiles, batch, cols, camRows int) int {
	chunk := p
	if w := runtime.GOMAXPROCS(0); tiles < 2*w {
		if c := (p*tiles + 2*w - 1) / (2 * w); c < chunk {
			chunk = c
		}
	}
	if cols > 0 {
		// ~2 MiB of int64 columns per machine.
		if c := (2 << 20) / 8 / (cols * batch); c < chunk {
			chunk = c
		}
	}
	if chunk < min(camRows, p) {
		chunk = min(camRows, p)
	}
	return chunk
}

// RunConvBatchInto executes one compiled conv/linear layer for a batch
// of inputs, accumulating the pre-requantization OFMs into caller-owned
// output tensors (zeroed here; shapes must match the layer output).
// Scratch comes from pools and programs run as precompiled ExecPlans, so
// the steady-state call allocates nothing. Requires Config.KeepPrograms.
func RunConvBatchInto(c *core.Compiled, layerIdx int, ins, outs []*tensor.Int) error {
	plan := c.Layers[layerIdx]
	if plan.Class != core.ClassConv {
		return fmt.Errorf("sim: layer %d (%s) is not conv-like", layerIdx, plan.Name)
	}
	if len(plan.StripPlans) == 0 {
		return fmt.Errorf("sim: layer %d compiled without KeepPrograms", layerIdx)
	}
	if len(ins) == 0 || len(ins) != len(outs) {
		return fmt.Errorf("sim: batch of %d inputs with %d outputs", len(ins), len(outs))
	}
	lay := &c.Net.Layers[layerIdx]
	spec := lay.ConvSpec()
	outShape := spec.OutShape(ins[0].Shape)
	for b, in := range ins {
		if in.Shape.N != 1 {
			return fmt.Errorf("sim: functional simulation runs batch-of-1 tensors, got N=%d", in.Shape.N)
		}
		if in.Shape != ins[0].Shape {
			return fmt.Errorf("sim: batch item %d shape %v != %v", b, in.Shape, ins[0].Shape)
		}
		if outs[b].Shape != outShape {
			return fmt.Errorf("sim: batch output %d shape %v, want %v", b, outs[b].Shape, outShape)
		}
		clear(outs[b].Data)
	}
	for _, sp := range plan.StripPlans {
		if len(sp.Programs) != len(plan.TileSizes) {
			return fmt.Errorf("sim: layer %d: strip has %d programs, want %d",
				layerIdx, len(sp.Programs), len(plan.TileSizes))
		}
	}

	p := plan.P
	camRows := c.Cfg.Par.CAMRows
	kp := spec.Fh * spec.Fw * p

	// im2col every (item, channel) into one pooled scratch buffer.
	scratch := getI32(len(ins) * spec.Cin * kp)
	ctx := ctxPool.Get().(*convCtx)
	ctx.plan, ctx.cols, ctx.cin, ctx.kp, ctx.p = plan, *scratch, spec.Cin, kp, p
	ctx.batch, ctx.outs, ctx.err = len(ins), outs, nil
	for b, in := range ins {
		for ci := 0; ci < spec.Cin; ci++ {
			tensor.Im2ColChannelInto(ctx.colSeg(b, ci), in, 0, ci, spec)
		}
	}
	if cap(ctx.tile) < len(plan.TileSizes) {
		ctx.tile = make([]int, len(plan.TileSizes))
	} else {
		ctx.tile = ctx.tile[:len(plan.TileSizes)]
	}
	off := 0
	for t, ts := range plan.TileSizes {
		ctx.tile[t] = off
		off += ts
	}

	workersOnce.Do(startWorkers)
	maxCols := 0
	for _, tp := range plan.StripPlans[0].Programs {
		if n := len(tp.Prog.Cols); n > maxCols {
			maxCols = n
		}
	}
	chunk := taskChunk(p, len(plan.TileSizes), len(ins), maxCols, camRows)
	for t := range plan.TileSizes {
		for r0 := 0; r0 < p; r0 += chunk {
			r1 := min(r0+chunk, p)
			ctx.wg.Add(1)
			submitConv(convTask{ctx: ctx, tile: t, r0: r0, r1: r1})
		}
	}
	ctx.wg.Wait()
	err := ctx.err
	ctx.plan, ctx.cols, ctx.outs, ctx.err = nil, nil, nil, nil
	ctxPool.Put(ctx)
	i32Pool.Put(scratch)
	return err
}

// RunConvBatch is RunConvBatchInto with freshly allocated outputs: one
// accumulated OFM per batch item, bit-identical to calling RunConv per
// item.
func RunConvBatch(c *core.Compiled, layerIdx int, ins []*tensor.Int) ([]*tensor.Int, error) {
	if len(ins) == 0 {
		return nil, fmt.Errorf("sim: empty batch")
	}
	plan := c.Layers[layerIdx]
	if plan.Class != core.ClassConv {
		return nil, fmt.Errorf("sim: layer %d (%s) is not conv-like", layerIdx, plan.Name)
	}
	spec := c.Net.Layers[layerIdx].ConvSpec()
	outs := make([]*tensor.Int, len(ins))
	for b := range ins {
		outs[b] = tensor.NewInt(spec.OutShape(ins[b].Shape))
	}
	if err := RunConvBatchInto(c, layerIdx, ins, outs); err != nil {
		return nil, err
	}
	return outs, nil
}

// LayerHook observes one layer's execution on the functional engine:
// its index and name, the wall-clock start (UnixNano) and duration of
// the interpretation. Hooks feed the sampled per-layer tracing spans of
// the serving stack; a nil hook costs one branch per layer and no clock
// reads, so the untraced hot path is unchanged.
type LayerHook func(layer int, name string, startUnixNS, durNS int64)

// ForwardAPBatch runs the full network functionally for a batch of
// inputs, every conv/linear layer executed once per (strip, tile,
// row-group) across the whole batch. Each returned trace is bit-identical
// to ForwardAP on the corresponding input.
func ForwardAPBatch(c *core.Compiled, ins []*tensor.Float) ([]*model.IntTrace, error) {
	if len(ins) == 0 {
		return nil, nil
	}
	trs := make([]*model.IntTrace, len(ins))
	for i, in := range ins {
		trs[i] = quantizeInput(c, in)
	}
	if err := execLayersBatch(c, trs, 0, len(c.Net.Layers), true, nil); err != nil {
		return nil, err
	}
	return trs, nil
}

// execLayersBatch executes the layer range [lo, hi) on every trace,
// reading inputs from and writing outputs back to each. bitExact selects
// the executor for conv/linear layers: the batched AP engine (one
// program interpretation per (strip, tile, row-group) for the whole
// batch) or the integer software reference — the two are proved
// bit-identical. An input tensor a trace does not hold is an error, so a
// sharded stage run proves its boundary transfer set is sufficient.
// hook, when non-nil, observes every layer's wall-clock interpretation
// time (one call per layer for the whole batch, not per item).
func execLayersBatch(c *core.Compiled, trs []*model.IntTrace, lo, hi int, bitExact bool, hook LayerHook) error {
	n := c.Net
	getT := func(tr *model.IntTrace, idx int) (*tensor.Int, error) {
		if idx == model.InputRef {
			if tr.InputCodes == nil {
				return nil, fmt.Errorf("sim: network input not resident")
			}
			return tr.InputCodes, nil
		}
		if tr.Outputs[idx] == nil {
			return nil, fmt.Errorf("sim: layer %d output not resident", idx)
		}
		return tr.Outputs[idx], nil
	}
	getS := func(tr *model.IntTrace, idx int) float64 {
		if idx == model.InputRef {
			return float64(n.InputQ.Step)
		}
		return tr.Scales[idx]
	}
	convIns := make([]*tensor.Int, len(trs))
	convOuts := make([]*tensor.Int, len(trs))
	for i := lo; i < hi; i++ {
		l := &n.Layers[i]
		var layerStart time.Time
		if hook != nil {
			layerStart = time.Now()
		}
		if (l.Kind == model.KindConv || l.Kind == model.KindLinear) && bitExact {
			for j, tr := range trs {
				x, err := getT(tr, l.Inputs[0])
				if err != nil {
					return fmt.Errorf("sim: layer %d (%s): %w", i, l.Name, err)
				}
				convIns[j] = x
				convOuts[j] = tensor.NewInt(l.ConvSpec().OutShape(x.Shape))
			}
			if err := RunConvBatchInto(c, i, convIns, convOuts); err != nil {
				return err
			}
			for j, tr := range trs {
				tr.Outputs[i] = convOuts[j]
				tr.Scales[i] = getS(tr, l.Inputs[0]) * float64(l.WScale)
			}
			if hook != nil {
				hook(i, l.Name, layerStart.UnixNano(), time.Since(layerStart).Nanoseconds())
			}
			continue
		}
		for _, tr := range trs {
			x, err := getT(tr, l.Inputs[0])
			if err != nil {
				return fmt.Errorf("sim: layer %d (%s): %w", i, l.Name, err)
			}
			s := getS(tr, l.Inputs[0])
			switch l.Kind {
			case model.KindConv, model.KindLinear:
				tr.Outputs[i] = tensor.ConvIntTernarySparse(x, l.W.W, l.ConvSpec())
				tr.Scales[i] = s * float64(l.WScale)
			case model.KindMaxPool:
				tr.Outputs[i] = tensor.MaxPoolInt(x, l.Pool)
				tr.Scales[i] = s
			case model.KindGlobalAvgPool:
				tr.Outputs[i] = tensor.GlobalAvgPoolInt(x)
				tr.Scales[i] = s
			case model.KindActQuant:
				out := tensor.NewInt(x.Shape)
				scale := s / float64(l.Q.Step)
				for j, cv := range x.Data {
					out.Data[j] = model.RequantCode(cv, scale, l.Q, l.ReLU)
				}
				tr.Outputs[i] = out
				tr.Scales[i] = float64(l.Q.Step)
			case model.KindAdd:
				y, err := getT(tr, l.Inputs[1])
				if err != nil {
					return fmt.Errorf("sim: layer %d (%s): %w", i, l.Name, err)
				}
				out := x.Clone()
				out.AddInt(y)
				tr.Outputs[i] = out
				tr.Scales[i] = s
			case model.KindFlatten:
				tr.Outputs[i] = &tensor.Int{
					Shape: tensor.Shape{N: x.Shape.N, C: x.Shape.C * x.Shape.H * x.Shape.W, H: 1, W: 1},
					Data:  x.Data,
				}
				tr.Scales[i] = s
			default:
				return fmt.Errorf("sim: unknown layer kind %v", l.Kind)
			}
		}
		if hook != nil {
			hook(i, l.Name, layerStart.UnixNano(), time.Since(layerStart).Nanoseconds())
		}
	}
	return nil
}
