package ap

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// randomProgram generates a valid program over nData columns with random
// widths/signedness, biased to emit the copy → in-place add/sub chains
// the code generator produces (the ExecPlan fusion path). wide adds
// 63/64-bit columns to exercise the no-wrap fast paths.
func randomProgram(rng *rand.Rand, wide bool) *Program {
	nData := 3 + rng.IntN(4)
	widths := make([]int, nData)
	unsigned := make([]bool, nData)
	for i := range widths {
		widths[i] = 3 + rng.IntN(6)
		if wide && rng.IntN(3) == 0 {
			widths[i] = 61 + rng.IntN(4) // straddle the wrap-identity threshold (63)
		}
		unsigned[i] = rng.IntN(3) == 0
	}
	p := buildProgram(widths, unsigned)

	var signedCols, allCols []int
	for c := 1; c <= nData; c++ {
		allCols = append(allCols, c)
		if !p.Cols[c].Unsigned {
			signedCols = append(signedCols, c)
		}
	}
	if len(signedCols) == 0 {
		return nil
	}
	sameWidth := func(dst int) []int {
		var out []int
		for _, c := range allCols {
			if c != dst && p.Cols[c].Width == p.Cols[dst].Width {
				out = append(out, c)
			}
		}
		return out
	}
	nInstr := 5 + rng.IntN(10)
	for len(p.Instrs) < nInstr {
		dst := signedCols[rng.IntN(len(signedCols))]
		w := p.Cols[dst].Width
		pick := func() int { return allCols[rng.IntN(len(allCols))] }
		switch rng.IntN(6) {
		case 0: // in-place add/sub
			op := OpAdd
			if rng.IntN(2) == 0 {
				op = OpSub
			}
			a := pick()
			if a == dst {
				continue
			}
			p.Instrs = append(p.Instrs, Instr{Op: op, Dst: dst, A: a, B: dst, InPlace: true, Width: w})
		case 1: // out-of-place add/sub
			op := OpAdd
			if rng.IntN(2) == 0 {
				op = OpSub
			}
			a, b := pick(), pick()
			if a == dst || b == dst {
				continue
			}
			p.Instrs = append(p.Instrs, Instr{Op: op, Dst: dst, A: a, B: b, Width: w})
		case 2: // neg
			a := pick()
			if a == dst {
				continue
			}
			p.Instrs = append(p.Instrs, Instr{Op: OpNeg, Dst: dst, A: a, Width: w})
		case 3: // clear
			p.Instrs = append(p.Instrs, Instr{Op: OpClear, Dst: dst, Width: w})
		case 4: // copy, possibly multi-destination with mixed signedness
			a := pick()
			if a == dst {
				continue
			}
			ins := Instr{Op: OpCopy, Dst: dst, A: a, Width: w}
			for _, d := range sameWidth(dst) {
				if d != a && rng.IntN(3) == 0 {
					ins.Dsts = append(ins.Dsts, d)
				}
			}
			p.Instrs = append(p.Instrs, ins)
		case 5: // copy followed by an accumulation chain (fusion shape)
			a := pick()
			if a == dst {
				continue
			}
			p.Instrs = append(p.Instrs, Instr{Op: OpCopy, Dst: dst, A: a, Width: w})
			for n := rng.IntN(3); n > 0; n-- {
				op := OpAdd
				if rng.IntN(2) == 0 {
					op = OpSub
				}
				x := pick()
				if x == dst {
					break
				}
				p.Instrs = append(p.Instrs, Instr{Op: op, Dst: dst, A: x, B: dst, InPlace: true, Width: w})
			}
		}
	}
	return p
}

func loadRandom(rng *rand.Rand, p *Program, rows int) [][]int64 {
	vals := make([][]int64, len(p.Cols))
	for c := range vals {
		vals[c] = make([]int64, rows)
	}
	for c := 1; c < len(p.Cols); c++ {
		meta := p.Cols[c]
		w := meta.Width
		if w > 31 {
			w = 31 // keep wide columns representable as int32 loads
		}
		for r := 0; r < rows; r++ {
			if meta.Unsigned && meta.Width < 63 {
				vals[c][r] = rng.Int64N(1 << uint(w))
			} else {
				// Signed columns — and nominally unsigned columns of
				// width ≥ 63, where wrap is the identity and loads can
				// legally deposit negative values.
				half := int64(1) << uint(w-1)
				vals[c][r] = rng.Int64N(2*half) - half
			}
		}
	}
	return vals
}

// Property: ExecPlan Machine execution is bit-identical to the word-level
// reference on randomized programs, including multi-destination copies,
// fused accumulation chains, reused machines (Reset) and wide columns.
func TestMachineMatchesWordRandomPrograms(t *testing.T) {
	var m Machine // reused across trials: Reset must fully rebind state
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0xa11ec))
		p := randomProgram(rng, trial%2 == 0)
		if p == nil {
			continue
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid program: %v", trial, err)
		}
		rows := 2 + rng.IntN(9)
		wm, err := NewWordMachine(p, rows)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := NewExecPlan(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		m.Reset(plan, rows)

		vals := loadRandom(rng, p, rows)
		v32 := make([]int32, rows)
		for c := 1; c < len(p.Cols); c++ {
			wm.SetColumn(c, vals[c])
			for r, v := range vals[c] {
				v32[r] = int32(v)
			}
			m.SetColumnInt32(c, 0, v32)
		}
		if err := wm.Run(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		m.Run()
		for c := 1; c < len(p.Cols); c++ {
			want := wm.Column(c)
			got := m.Column(c)
			for r := 0; r < rows; r++ {
				if got[r] != want[r] {
					t.Fatalf("trial %d: col %d row %d: plan %d != word %d\nprogram: %v",
						trial, c, r, got[r], want[r], p.Instrs)
				}
			}
		}
	}
}

// A multi-destination copy with mixed destination signedness: the bit
// machine writes the same bits everywhere and each column reads them back
// per its own metadata, so the word machine (and the ExecPlan machine)
// must wrap per destination. Negative sources make an unsigned
// destination read the raw bit pattern, not the signed value.
func TestExecMatchesWordMixedSignCopy(t *testing.T) {
	// carry, src (6b signed), d1 (6b signed), d2 (6b unsigned).
	p := buildProgram([]int{6, 6, 6}, []bool{false, false, true})
	const src, d1, d2 = 1, 2, 3
	p.Instrs = []Instr{
		{Op: OpCopy, Dst: d1, Dsts: []int{d2}, A: src, Width: 6},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	srcVals := []int64{-32, -17, -1, 0, 1, 13, 31, -5}
	rows := len(srcVals)

	arr := newArray(t, rows, len(p.Cols))
	vals := make([][]int64, len(p.Cols))
	for c := range vals {
		vals[c] = make([]int64, rows)
	}
	copy(vals[src], srcVals)
	loadCam(arr, p, vals)
	if err := Exec(arr, p, nil); err != nil {
		t.Fatal(err)
	}

	wm, err := NewWordMachine(p, rows)
	if err != nil {
		t.Fatal(err)
	}
	wm.SetColumn(src, srcVals)
	if err := wm.Run(); err != nil {
		t.Fatal(err)
	}

	plan, err := NewExecPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	var m Machine
	m.Reset(plan, rows)
	v32 := make([]int32, rows)
	for r, v := range srcVals {
		v32[r] = int32(v)
	}
	m.SetColumnInt32(src, 0, v32)
	m.Run()

	for _, col := range []int{d1, d2} {
		bit := readCam(arr, p, col, rows)
		word := wm.Column(col)
		pl := m.Column(col)
		for r := 0; r < rows; r++ {
			if word[r] != bit[r] {
				t.Errorf("col %d row %d (src %d): word %d != bit-level %d",
					col, r, srcVals[r], word[r], bit[r])
			}
			if pl[r] != bit[r] {
				t.Errorf("col %d row %d (src %d): plan %d != bit-level %d",
					col, r, srcVals[r], pl[r], bit[r])
			}
		}
	}
	// The unsigned destination of a negative source must hold the raw
	// 6-bit pattern (v + 64), or the whole test is vacuous.
	if got := m.Column(d2)[0]; got != srcVals[0]+64 {
		t.Fatalf("unsigned destination read %d, want %d", got, srcVals[0]+64)
	}
}

// Fusion collapses copy → in-place chains into fewer resolved ops while
// preserving exact results (covered by the randomized property above).
func TestExecPlanFusesCopyChains(t *testing.T) {
	p := buildProgram([]int{5, 5, 5}, []bool{false, false, false})
	p.Instrs = []Instr{
		{Op: OpCopy, Dst: 2, A: 1, Width: 5},
		{Op: OpAdd, Dst: 2, A: 3, B: 2, InPlace: true, Width: 5},
		{Op: OpSub, Dst: 2, A: 1, B: 2, InPlace: true, Width: 5},
		{Op: OpNeg, Dst: 3, A: 2, Width: 5},
	}
	plan, err := NewExecPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Ops() != 2 {
		t.Fatalf("expected copy+add+sub to fuse into 1 op (2 total), got %d", plan.Ops())
	}
}

// Width-62 destinations DO wrap (wrap() is the identity only from 63
// up), and the range analysis must not shortcut them: doubling 2^30 up
// to 2^62 in wide columns and copying into a 62-bit column must truncate
// to zero on both machines. Regression for an off-by-one where the
// analysis treated width ≥ 62 as unconditionally safe.
func TestWidth62CopyWraps(t *testing.T) {
	p := buildProgram([]int{64, 64, 62}, []bool{false, false, false})
	const colA, colB, colD = 1, 2, 3
	// 32 alternating doublings: 2^30 → 2^62 (lands in colA).
	for k := 0; k < 32; k++ {
		src, dst := colA, colB
		if k%2 == 1 {
			src, dst = colB, colA
		}
		p.Instrs = append(p.Instrs, Instr{Op: OpAdd, Dst: dst, A: src, B: src, Width: 64})
	}
	p.Instrs = append(p.Instrs, Instr{Op: OpCopy, Dst: colD, A: colA, Width: 62})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	const rows = 2
	wm, err := NewWordMachine(p, rows)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewExecPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	var m Machine
	m.Reset(plan, rows)
	wm.SetColumn(colA, []int64{1 << 30, 1 << 30})
	m.SetColumnInt32(colA, 0, []int32{1 << 30, 1 << 30})
	if err := wm.Run(); err != nil {
		t.Fatal(err)
	}
	m.Run()
	for r := 0; r < rows; r++ {
		if got := wm.Column(colD)[r]; got != 0 {
			t.Fatalf("word machine row %d: 2^62 wrapped at width 62 to %d, want 0", r, got)
		}
		if got := m.Column(colD)[r]; got != 0 {
			t.Fatalf("plan machine row %d: 2^62 wrapped at width 62 to %d, want 0", r, got)
		}
	}
}

// SetColumnInt32 wraps to the stored format and AccumulateColumn adds in
// place over a row segment — the batched load/reduce primitives.
func TestSetColumnInt32AndAccumulate(t *testing.T) {
	p := buildProgram([]int{4, 8}, []bool{true, false})
	plan, err := NewExecPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	var m Machine
	m.Reset(plan, 6)
	m.SetColumnInt32(1, 0, []int32{15, 16, 17})  // 4-bit unsigned: wraps mod 16
	m.SetColumnInt32(1, 3, []int32{-1, 255, 31}) // segment load at row 3
	want := []int64{15, 0, 1, 15, 15, 15}
	for r, w := range m.Column(1) {
		if w != want[r] {
			t.Fatalf("row %d: %d, want %d", r, w, want[r])
		}
	}
	acc := []int32{100, 100, 100}
	m.AccumulateColumn(1, 3, acc)
	for i, v := range acc {
		if v != 115 {
			t.Fatalf("acc[%d] = %d, want 115", i, v)
		}
	}
}

// BenchmarkMachineLoad measures the load → run → read cycle the batched
// simulator drives per tile program: 32 unsigned 4-bit input columns
// summed into one accumulator. A 12-bit accumulator provably never
// wraps, so the plan packs 4 lanes; an 8-bit one may wrap, so it stays
// at 1 lane. Row counts cover ResNet-18's 7×7 and 28×28 output planes.
func BenchmarkMachineLoad(b *testing.B) {
	const inputs = 32
	for _, accW := range []int{8, 12} {
		widths := make([]int, inputs+1)
		unsigned := make([]bool, inputs+1)
		for i := 0; i < inputs; i++ {
			widths[i], unsigned[i] = 4, true
		}
		widths[inputs] = accW
		p := buildProgram(widths, unsigned)
		acc := inputs + 1
		p.Instrs = append(p.Instrs, Instr{Op: OpClear, Dst: acc, Width: accW})
		for c := 1; c <= inputs; c++ {
			p.Instrs = append(p.Instrs, Instr{Op: OpAdd, Dst: acc, A: c, B: acc, InPlace: true, Width: accW})
		}
		plan, err := NewExecPlan(p)
		if err != nil {
			b.Fatal(err)
		}
		for _, rows := range []int{49, 784} {
			src := make([]int32, rows)
			for r := range src {
				src[r] = int32(r % 16)
			}
			out := make([]int32, rows)
			b.Run(fmt.Sprintf("lanes%d/rows%d", plan.Lanes(), rows), func(b *testing.B) {
				var m Machine
				for i := 0; i < b.N; i++ {
					m.Reset(plan, rows)
					for c := 1; c <= inputs; c++ {
						m.SetColumnInt32(c, 0, src)
					}
					m.Run()
					m.AccumulateColumn(acc, 0, out)
				}
			})
		}
	}
}

// randomPackedProgram generates a valid program the range analysis can
// usually prove mask-free: source columns of srcBits bits feed signed
// accumulators 8 bits wider, which the program clears before use (as
// the code generator does). srcBits steers the lane layout — narrow
// sources pack 4×16, wider ones 3×21 or 2×32, and sources beyond 32
// bits (or an accumulation chain that outgrows its column) leave the
// plan unpacked.
func randomPackedProgram(rng *rand.Rand, srcBits int) *Program {
	nSrc, nAcc := 2+rng.IntN(3), 2+rng.IntN(3)
	accW := min(srcBits+8, 62)
	var widths []int
	var unsigned []bool
	for i := 0; i < nSrc; i++ {
		widths = append(widths, srcBits)
		unsigned = append(unsigned, rng.IntN(2) == 0)
	}
	for i := 0; i < nAcc; i++ {
		widths = append(widths, accW)
		unsigned = append(unsigned, false)
	}
	p := buildProgram(widths, unsigned)
	var accs, all []int
	for c := 1; c < len(p.Cols); c++ {
		all = append(all, c)
		if c > nSrc {
			accs = append(accs, c)
			p.Instrs = append(p.Instrs, Instr{Op: OpClear, Dst: c, Width: accW})
		}
	}
	pick := func() int { return all[rng.IntN(len(all))] }
	addSub := func() Opcode { return []Opcode{OpAdd, OpSub}[rng.IntN(2)] }
	for n := 4 + rng.IntN(8); n > 0; n-- {
		dst := accs[rng.IntN(len(accs))]
		a := pick()
		if a == dst {
			continue
		}
		switch rng.IntN(6) {
		case 0:
			p.Instrs = append(p.Instrs, Instr{Op: addSub(), Dst: dst, A: a, B: dst, InPlace: true, Width: accW})
		case 1:
			if b := pick(); b != dst {
				p.Instrs = append(p.Instrs, Instr{Op: addSub(), Dst: dst, A: a, B: b, Width: accW})
			}
		case 2:
			p.Instrs = append(p.Instrs, Instr{Op: OpNeg, Dst: dst, A: a, Width: accW})
		case 3:
			ins := Instr{Op: OpCopy, Dst: dst, A: a, Width: accW}
			for _, d := range accs {
				if d != dst && d != a && rng.IntN(3) == 0 {
					ins.Dsts = append(ins.Dsts, d)
				}
			}
			p.Instrs = append(p.Instrs, ins)
		case 4: // copy + accumulation chain: the fused shape
			p.Instrs = append(p.Instrs, Instr{Op: OpCopy, Dst: dst, A: a, Width: accW})
			for k := rng.IntN(3); k > 0; k-- {
				if x := pick(); x != dst {
					p.Instrs = append(p.Instrs, Instr{Op: addSub(), Dst: dst, A: x, B: dst, InPlace: true, Width: accW})
				}
			}
		case 5:
			p.Instrs = append(p.Instrs, Instr{Op: OpClear, Dst: dst, Width: accW})
		}
	}
	return p
}

// segments cuts [0, rows) into random consecutive pieces and returns
// them shuffled, so loads land at unaligned row offsets and in no
// particular order — the batch layout puts item b at row b·n for any n.
func segments(rng *rand.Rand, rows int) [][2]int {
	var segs [][2]int
	for r := 0; r < rows; {
		n := 1 + rng.IntN(rows-r)
		segs = append(segs, [2]int{r, r + n})
		r += n
	}
	rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
	return segs
}

// Property: a lane-packed Machine is bit-identical to the word-level
// reference at every lane count the analysis picks (1–4), for row counts
// that leave the last word partly empty, loads and reads at unaligned
// row segments, unloaded (zero-set) columns, and one arena reused across
// plans of different lane counts.
func TestPackedMachineMatchesWord(t *testing.T) {
	var m Machine
	byLanes := map[int]int{}
	srcBits := []int{3, 4, 6, 8, 12, 14, 16, 20, 24, 28, 40}
	for trial := 0; trial < 400; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x1a2e5))
		p := randomPackedProgram(rng, srcBits[trial%len(srcBits)])
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid program: %v", trial, err)
		}
		plan, err := NewExecPlan(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if vs := AuditPlan(p, plan); len(vs) != 0 {
			t.Fatalf("trial %d: audit of a %d-lane plan: %v\nprogram: %v", trial, plan.Lanes(), vs[0], p.Instrs)
		}
		byLanes[plan.Lanes()]++
		rows := []int{1, 3, 5, 13}[trial%4]
		wm, err := NewWordMachine(p, rows)
		if err != nil {
			t.Fatal(err)
		}
		m.Reset(plan, rows)

		loaded := make([]bool, len(p.Cols))
		for c := 1; c < len(p.Cols); c++ {
			if rng.IntN(5) == 0 {
				continue // stays zero: Reset must clear it if the plan reads it
			}
			loaded[c] = true
			v32 := make([]int32, rows)
			v64 := make([]int64, rows)
			for r := range v32 {
				v32[r] = int32(rng.Uint32())
				if rng.IntN(2) == 0 { // mostly in-format values, some that wrap
					v32[r] >>= 32 - min(p.Cols[c].Width, 32)
				}
				v64[r] = int64(v32[r])
			}
			wm.SetColumn(c, v64)
			for _, s := range segments(rng, rows) {
				m.SetColumnInt32(c, s[0], v32[s[0]:s[1]])
			}
		}
		if err := wm.Run(); err != nil {
			t.Fatal(err)
		}
		m.Run()

		_, written := plan.findZeroCols()
		zeroed := map[int32]bool{}
		for _, z := range plan.zero {
			zeroed[z] = true
		}
		for c := 1; c < len(p.Cols); c++ {
			if !loaded[c] && !written[c] && !zeroed[int32(c)] {
				continue // neither loaded, written nor reset: undefined after reuse
			}
			want, got := wm.Column(c), m.Column(c)
			for r := range want {
				if got[r] != want[r] {
					t.Fatalf("trial %d (%d lanes, %d rows): col %d row %d: packed %d != word %d\nprogram: %v",
						trial, plan.Lanes(), rows, c, r, got[r], want[r], p.Instrs)
				}
			}
			for _, s := range segments(rng, rows) {
				acc := make([]int32, s[1]-s[0])
				for i := range acc {
					acc[i] = int32(i)
				}
				m.AccumulateColumn(c, s[0], acc)
				for i, v := range acc {
					if w := int32(i) + int32(want[s[0]+i]); v != w {
						t.Fatalf("trial %d (%d lanes): col %d row %d: accumulated %d, want %d",
							trial, plan.Lanes(), c, s[0]+i, v, w)
					}
				}
			}
		}
	}
	t.Logf("plans by lane count: %v", byLanes)
	for lanes := 1; lanes <= 4; lanes++ {
		if byLanes[lanes] < 20 {
			t.Fatalf("only %d random plans packed %d lanes (all: %v); the generator no longer covers every layout",
				byLanes[lanes], lanes, byLanes)
		}
	}
}
