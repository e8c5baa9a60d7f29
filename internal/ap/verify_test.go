package ap

import (
	"math/rand/v2"
	"strings"
	"testing"
)

// Opcode.String must be total (diagnostics format arbitrary byte values),
// and every consumer of an invalid opcode must report the same message.
func TestUnknownOpcodeUniformDiagnostics(t *testing.T) {
	if got := OpCopy.String(); got != "copy" {
		t.Fatalf("OpCopy.String() = %q, want \"copy\"", got)
	}
	bad := Opcode(97)
	if got := bad.String(); got != "op(97)" {
		t.Fatalf("Opcode(97).String() = %q, want \"op(97)\"", got)
	}

	const want = "unknown opcode op(97)"
	if got := errUnknownOpcode(bad).Error(); got != want {
		t.Fatalf("errUnknownOpcode = %q, want %q", got, want)
	}
	p := buildProgram([]int{4}, []bool{false})
	p.Instrs = []Instr{{Op: bad, Dst: 1, Width: 4}}
	errV := p.Validate()
	if errV == nil || !strings.HasSuffix(errV.Error(), want) {
		t.Fatalf("Validate() = %v, want suffix %q", errV, want)
	}
	if _, errP := NewExecPlan(p); errP == nil || !strings.HasSuffix(errP.Error(), want) {
		t.Fatalf("NewExecPlan() = %v, want suffix %q", errP, want)
	}
}

// AuditPlan must confirm every plan the real lowering produces: a clean
// compile is the verifier's zero-false-positive contract. Randomized
// programs cover fusion, multi-destination copies and wide columns.
func TestAuditPlanCleanOnRandomPrograms(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x5eed))
		p := randomProgram(rng, trial%2 == 0)
		if p == nil {
			continue
		}
		plan, err := NewExecPlan(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if vs := AuditPlan(p, plan); len(vs) != 0 {
			t.Fatalf("trial %d: audit of a freshly compiled plan reported %d violations, first: %v\nprogram: %v",
				trial, len(vs), vs[0], p.Instrs)
		}
	}
}

// AuditPlan plan-level failures: nil plans and invalid source programs
// are rejected before any structural phase runs.
func TestAuditPlanRejectsBadInputs(t *testing.T) {
	p := buildProgram([]int{4}, []bool{false})
	if vs := AuditPlan(p, nil); len(vs) != 1 || vs[0].Invariant != InvProgram {
		t.Fatalf("nil plan: %v", vs)
	}
	plan, err := NewExecPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	bad := buildProgram([]int{4}, []bool{false})
	bad.Instrs = []Instr{{Op: OpClear, Dst: 99, Width: 4}}
	vs := AuditPlan(bad, plan)
	if len(vs) != 1 || vs[0].Invariant != InvProgram || vs[0].Op != -1 {
		t.Fatalf("invalid program: %v", vs)
	}
	if !strings.Contains(vs[0].String(), InvProgram) {
		t.Fatalf("violation string %q does not name its invariant", vs[0].String())
	}
}

// AuditPlan's lane invariant, one hand-built case per condition: a
// packed layout must be one the machine decodes, must not coexist with
// a wrapping op, and must hold every stored value and every observable
// entry value in a lane. Each plan is first audited clean as lowered,
// then with its layout forced one step denser.
func TestAuditPlanLanes(t *testing.T) {
	cases := []struct {
		name   string
		widths []int
		instrs []Instr
		lanes  int // what the lowering must pick
		anchor int // op the violation anchors to (-1: plan level)
	}{
		// A never-written 20-bit column is decoded as loaded.
		{"entry value", []int{20}, nil, 3, -1},
		// An 8-bit add may wrap, so no packing at all.
		{"wrapping op", []int{8, 8, 8}, []Instr{{Op: OpAdd, Dst: 3, A: 1, B: 2, Width: 8}}, 1, 0},
		// A 16-bit source doubled twice reaches 18 bits: 3 lanes, and
		// the 17-bit first sum already overflows a 16-bit lane.
		{"stored value", []int{16, 24, 24}, []Instr{
			{Op: OpAdd, Dst: 2, A: 1, B: 1, Width: 24},
			{Op: OpAdd, Dst: 3, A: 2, B: 2, Width: 24},
		}, 3, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := buildProgram(tc.widths, make([]bool, len(tc.widths)))
			p.Instrs = tc.instrs
			plan, err := NewExecPlan(p)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Lanes() != tc.lanes {
				t.Fatalf("lowering packs %d lanes, want %d", plan.Lanes(), tc.lanes)
			}
			if vs := AuditPlan(p, plan); len(vs) != 0 {
				t.Fatalf("lowered plan fails its audit: %v", vs)
			}
			plan.lc = newLaneCodec(plan.lc.n+1, 64/(plan.lc.n+1))
			vs := AuditPlan(p, plan)
			if len(vs) == 0 {
				t.Fatalf("a %d×%d layout passed the audit", plan.lc.n, plan.lc.bits)
			}
			for _, v := range vs {
				if v.Invariant != InvLanes {
					t.Fatalf("violation %v, want only %s", v, InvLanes)
				}
			}
			if vs[0].Op != tc.anchor {
				t.Fatalf("first violation %v anchors to op %d, want %d", vs[0], vs[0].Op, tc.anchor)
			}
		})
	}
	// A layout the machine does not decode, even where values would fit.
	p := buildProgram([]int{4}, []bool{true})
	plan, err := NewExecPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	plan.lc = newLaneCodec(plan.lc.n, 15)
	if vs := AuditPlan(p, plan); len(vs) != 1 || vs[0].Invariant != InvLanes || vs[0].Op != -1 {
		t.Fatalf("4×15 layout: %v", vs)
	}
}

// clonePlan deep-copies a plan so a mutation cannot leak into the
// original (plans are shared, immutable artifacts).
func clonePlan(p *ExecPlan) *ExecPlan {
	q := &ExecPlan{
		cols: append([]Col(nil), p.cols...),
		ops:  append([]planOp(nil), p.ops...),
		zero: append([]int32(nil), p.zero...),
		lc:   p.lc,
	}
	for _, m := range p.multi {
		q.multi = append(q.multi, append([]copyDst(nil), m...))
	}
	for _, c := range p.chains {
		q.chains = append(q.chains, append([]chainLink(nil), c...))
	}
	return q
}

// planMutation is one single-op corruption operator. apply mutates plan
// in place and reports whether the operator was applicable; rng picks
// the target op.
type planMutation struct {
	name  string
	apply func(rng *rand.Rand, plan *ExecPlan) bool
}

// pickOp returns the index of a random op satisfying ok, or -1.
func pickOp(rng *rand.Rand, plan *ExecPlan, ok func(*planOp) bool) int {
	var cand []int
	for i := range plan.ops {
		if ok(&plan.ops[i]) {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return -1
	}
	return cand[rng.IntN(len(cand))]
}

// planMutations are the corruption operators of the mutation harness —
// each models a distinct compiler-bug class the verifier must catch:
// mis-lowered opcodes, perturbed operand wiring, unsound wrap-elision
// claims, corrupted flags/side tables, and dropped reset tracking.
var planMutations = []planMutation{
	{"flip-kind", func(rng *rand.Rand, plan *ExecPlan) bool {
		i := pickOp(rng, plan, func(*planOp) bool { return true })
		if i < 0 {
			return false
		}
		op := &plan.ops[i]
		op.kind = planKind((uint8(op.kind) + 1 + uint8(rng.IntN(6))) % 7)
		return true
	}},
	{"invalid-kind", func(rng *rand.Rand, plan *ExecPlan) bool {
		i := pickOp(rng, plan, func(*planOp) bool { return true })
		if i < 0 {
			return false
		}
		plan.ops[i].kind = planKind(7 + rng.IntN(8))
		return true
	}},
	{"perturb-dst", func(rng *rand.Rand, plan *ExecPlan) bool {
		i := pickOp(rng, plan, func(*planOp) bool { return true })
		if i < 0 {
			return false
		}
		op := &plan.ops[i]
		op.dst = (op.dst + 1) % int32(len(plan.cols))
		return true
	}},
	{"perturb-a", func(rng *rand.Rand, plan *ExecPlan) bool {
		i := pickOp(rng, plan, func(op *planOp) bool { return op.kind != planClear })
		if i < 0 {
			return false
		}
		op := &plan.ops[i]
		op.a = (op.a + 1) % int32(len(plan.cols))
		return true
	}},
	{"perturb-b", func(rng *rand.Rand, plan *ExecPlan) bool {
		i := pickOp(rng, plan, func(op *planOp) bool { return op.kind == planAdd || op.kind == planSub })
		if i < 0 {
			return false
		}
		op := &plan.ops[i]
		op.b = (op.b + 1) % int32(len(plan.cols))
		return true
	}},
	{"perturb-width", func(rng *rand.Rand, plan *ExecPlan) bool {
		i := pickOp(rng, plan, func(op *planOp) bool { return op.width > 1 })
		if i < 0 {
			return false
		}
		plan.ops[i].width--
		return true
	}},
	// Widen a claimed range: assert wrap-elision on an op the compiler's
	// own analysis could not prove wrap-free.
	{"claim-wide", func(rng *rand.Rand, plan *ExecPlan) bool {
		i := pickOp(rng, plan, func(op *planOp) bool { return !op.wide() && op.kind != planClear })
		if i < 0 {
			return false
		}
		plan.ops[i].flags |= flagWide
		return true
	}},
	// Drop the mandatory wide flag of a ≥63-bit op, whose truncating
	// wrap constants corrupt the top bits.
	{"drop-wide", func(rng *rand.Rand, plan *ExecPlan) bool {
		i := pickOp(rng, plan, func(op *planOp) bool {
			return op.wide() && plan.cols[op.dst].Width >= 63
		})
		if i < 0 {
			return false
		}
		plan.ops[i].flags &^= flagWide
		return true
	}},
	{"flip-sign-flag", func(rng *rand.Rand, plan *ExecPlan) bool {
		i := pickOp(rng, plan, func(*planOp) bool { return true })
		if i < 0 {
			return false
		}
		plan.ops[i].flags ^= flagUnsigned
		return true
	}},
	{"flip-chain-sign", func(rng *rand.Rand, plan *ExecPlan) bool {
		i := pickOp(rng, plan, func(op *planOp) bool { return op.kind == planFused })
		if i < 0 {
			return false
		}
		chain := plan.chains[plan.ops[i].ext]
		chain[rng.IntN(len(chain))].sgn *= -1
		return true
	}},
	{"perturb-multi-dst", func(rng *rand.Rand, plan *ExecPlan) bool {
		i := pickOp(rng, plan, func(op *planOp) bool { return op.kind == planCopyMulti })
		if i < 0 {
			return false
		}
		dsts := plan.multi[plan.ops[i].ext]
		k := rng.IntN(len(dsts))
		dsts[k].col = (dsts[k].col + 1) % int32(len(plan.cols))
		return true
	}},
	{"drop-op", func(rng *rand.Rand, plan *ExecPlan) bool {
		if len(plan.ops) == 0 {
			return false
		}
		i := rng.IntN(len(plan.ops))
		plan.ops = append(plan.ops[:i], plan.ops[i+1:]...)
		return true
	}},
	// Widen the lane layout past what the plan proves: move to the next
	// denser layout (the lowering already chose the densest sound one),
	// or shrink the lane below the layout's width.
	{"widen-lanes", func(rng *rand.Rand, plan *ExecPlan) bool {
		n, bits := plan.lc.n, int(plan.lc.bits)
		if n < 4 && rng.IntN(2) == 0 {
			n++
			bits = 64 / n
		} else {
			bits -= 1 + rng.IntN(bits/2)
		}
		plan.lc = newLaneCodec(n, bits)
		return true
	}},
	// Drop a reset: remove one column from the zero set, leaking stale
	// arena rows into the next execution.
	{"drop-zero", func(rng *rand.Rand, plan *ExecPlan) bool {
		if len(plan.zero) == 0 {
			return false
		}
		i := rng.IntN(len(plan.zero))
		plan.zero = append(plan.zero[:i], plan.zero[i+1:]...)
		return true
	}},
}

// plansEquivalent proves a mutant that passed the audit is semantically
// harmless: both plans, executed over identical random loads on fresh
// machines, must produce bit-identical values in every column. An
// audit-clean mutant is guaranteed structurally sound, so running it
// cannot fault.
func plansEquivalent(t *testing.T, rng *rand.Rand, p *Program, orig, mut *ExecPlan) bool {
	t.Helper()
	const rows = 5
	var mo, mm Machine
	mo.Reset(orig, rows)
	mm.Reset(mut, rows)
	vals := loadRandom(rng, p, rows)
	v32 := make([]int32, rows)
	for c := 1; c < len(p.Cols); c++ {
		for r, v := range vals[c] {
			v32[r] = int32(v)
		}
		mo.SetColumnInt32(c, 0, v32)
		mm.SetColumnInt32(c, 0, v32)
	}
	mo.Run()
	mm.Run()
	for c := range p.Cols {
		want, got := mo.Column(c), mm.Column(c)
		for r := 0; r < rows; r++ {
			if want[r] != got[r] {
				return false
			}
		}
	}
	return true
}

// Mutation test of the verifier: inject single-op corruptions into
// known-good plans and require AuditPlan to catch ≥95% of them. The few
// escapees must each be proved semantically harmless (bit-identical
// execution against the original plan) and are logged with their
// operator, so every survivor is enumerated and justified.
func TestAuditPlanCatchesMutations(t *testing.T) {
	total, caught := 0, 0
	escapees := map[string]int{}
	for trial := 0; trial < 180; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0xbadc0de))
		var p *Program
		if trial%3 == 2 { // a packed plan, so lane mutants must beat the interval proof
			p = randomPackedProgram(rng, []int{4, 14, 24}[trial/3%3])
		} else {
			p = randomProgram(rng, trial%2 == 0)
		}
		if p == nil {
			continue
		}
		orig, err := NewExecPlan(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, mu := range planMutations {
			mut := clonePlan(orig)
			if !mu.apply(rng, mut) {
				continue
			}
			total++
			if vs := AuditPlan(p, mut); len(vs) > 0 {
				caught++
				continue
			}
			// Escapee: only a provably harmless mutation may survive.
			escapees[mu.name]++
			if !plansEquivalent(t, rng, p, orig, mut) {
				t.Fatalf("trial %d: %s mutant passed the audit but diverges from the original plan\nprogram: %v",
					trial, mu.name, p.Instrs)
			}
		}
	}
	if total < 500 {
		t.Fatalf("mutation harness generated only %d mutants; generator regressed", total)
	}
	rate := float64(caught) / float64(total)
	t.Logf("caught %d/%d mutants (%.1f%%); harmless escapees by operator: %v",
		caught, total, 100*rate, escapees)
	for name := range escapees {
		// Operators whose corruption can fall in the machine's dead space
		// (op.dst of a multi-copy is ignored by Run; a wide claim the
		// audit can independently re-prove is a true no-op). Anything
		// else escaping means a verifier hole.
		if name != "perturb-dst" && name != "claim-wide" {
			t.Fatalf("operator %s produced an unexpected escapee class", name)
		}
	}
	if rate < 0.95 {
		t.Fatalf("mutation catch rate %.1f%% < 95%% (%d/%d)", 100*rate, caught, total)
	}
}
