package ap

import "fmt"

// ExecPlan is a Program lowered for repeated execution. The WordMachine
// re-validates and re-interprets the instruction list on every run and
// re-derives each destination's wrap parameters per row; an ExecPlan does
// all of that exactly once, at build time:
//
//   - the program is validated once, so execution has no error paths;
//   - every instruction becomes a dense, 20-byte planOp with resolved
//     column indices (large networks stream millions of ops per
//     inference, so op size IS interpreter memory traffic);
//   - a static value-range analysis marks every op whose result provably
//     fits its destination format — including all of a sound compiler
//     emission — so its row loop skips masking entirely (the width ≥ 63
//     case falls out of the same flag);
//   - a Copy immediately followed by in-place Add/Sub instructions on the
//     copied column fuses into one row pass;
//   - the columns that must read as zero at entry (read before written)
//     are recorded, so machine reuse clears only those instead of the
//     whole arena;
//   - the same range analysis picks a lane layout: when it proves every
//     value the machine can observe fits a 16-, 21- or 32-bit lane, the
//     machine packs 4, 3 or 2 rows into each int64 word (see lc).
//
// An ExecPlan is immutable and safe to share: the functional simulator
// builds one per TileProgram (memoized, and shared further through the
// compiled-artifact cache) and replays it from many goroutines at once
// through per-worker Machines. Machine execution is bit-identical to
// WordMachine.Run — TestMachineMatchesWordRandomPrograms and, for every
// lane layout, TestPackedMachineMatchesWord prove it over randomized
// programs.
type ExecPlan struct {
	cols []Col
	ops  []planOp
	// Side tables for the rare variable-length op variants.
	multi  [][]copyDst
	chains [][]chainLink
	// zero lists the columns that must read as zero at entry: every
	// column some op reads before any op writes it. Reset clears exactly
	// these on arena reuse — programs fully write everything else before
	// looking at it, so stale rows from a previous plan are unobservable.
	zero []int32
	// lc is the lane layout: lc.n rows share one int64 word, each in a
	// lc.bits-wide lane: row r lives in lane r%n of word r/n, and a word
	// holds P = Σ vᵢ·2^(bits·i) mod 2⁶⁴. That encoding is a ring
	// homomorphism for +, − and negation, so every mask-free op of Run
	// yields exactly the packed per-row results. chooseLanes packs only
	// when no op but a clear wraps and every observable value provably
	// fits a lane; otherwise the layout is 1×64, the unpacked one.
	lc laneCodec
}

// planKind discriminates the resolved operation variants of a planOp.
type planKind uint8

const (
	planClear     planKind = iota
	planCopy               // single-destination copy
	planCopyMulti          // multi-destination copy (per-destination wrap)
	planAdd
	planSub
	planNeg
	planFused // copy + in-place add/sub chain, one row pass
)

// copyDst is one destination of a multi-destination copy with its own
// signedness: the hardware writes the same Width bits into every
// destination column, and each column's metadata decides how those bits
// read back as an integer.
type copyDst struct {
	col      int32
	unsigned bool
}

// chainLink is one fused in-place accumulation step: acc = wrap(acc + sgn·vals[a][r]).
type chainLink struct {
	a   int32
	sgn int64 // +1 for add, -1 for sub
}

// planOp flags.
const (
	flagWide     = 1 << iota // wrapping is provably the identity
	flagUnsigned             // destination signedness (copy wrap only)
)

// planOp is one resolved operation, deliberately compact: large networks
// stream millions of ops per inference, so the op array's footprint is
// the interpreter's front-end memory traffic. Wrap masks derive from
// width with two shifts at dispatch; the rare multi-destination and
// fused variants park their variable-length tails in the plan's side
// tables, indexed by ext.
type planOp struct {
	kind  planKind
	flags uint8
	width uint8
	dst   int32
	a     int32
	b     int32
	ext   int32 // side-table index (planCopyMulti, planFused)
}

func (op *planOp) wide() bool     { return op.flags&flagWide != 0 }
func (op *planOp) unsigned() bool { return op.flags&flagUnsigned != 0 }

// NewExecPlan validates p and lowers it into a dense op list, then runs
// the range analysis and zero-set computation described on ExecPlan. The
// returned plan references p's column table but never mutates it.
func NewExecPlan(p *Program) (*ExecPlan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(p.Cols) > 1<<31-1 {
		return nil, fmt.Errorf("ap: exec plan: %d columns overflow the op encoding", len(p.Cols))
	}
	plan := &ExecPlan{cols: p.Cols, ops: make([]planOp, 0, len(p.Instrs))}
	instrs := p.Instrs
	for i := 0; i < len(instrs); i++ {
		ins := instrs[i]
		w := ins.Width
		if w > 64 {
			w = 64 // wrap is the identity from 63 up; clamp into uint8 range
		}
		op := planOp{dst: int32(ins.Dst), a: int32(ins.A), b: int32(ins.B), width: uint8(w)}
		if ins.Width >= 63 {
			op.flags |= flagWide
		}
		switch ins.Op {
		case OpClear:
			op.kind = planClear
		case OpCopy:
			if p.Cols[ins.Dst].Unsigned {
				op.flags |= flagUnsigned
			}
			if len(ins.Dsts) > 0 {
				op.kind = planCopyMulti
				dsts := []copyDst{{int32(ins.Dst), p.Cols[ins.Dst].Unsigned}}
				for _, d := range ins.Dsts {
					dsts = append(dsts, copyDst{int32(d), p.Cols[d].Unsigned})
				}
				op.ext = int32(len(plan.multi))
				plan.multi = append(plan.multi, dsts)
				plan.ops = append(plan.ops, op)
				continue
			}
			// Fuse the in-place accumulation chain that follows a plain
			// copy onto the same column. Validation guarantees every chain
			// instruction has the destination's width and never reads it
			// as A, so one pass per row reproduces the sequential wraps
			// exactly.
			var chain []chainLink
			for j := i + 1; j < len(instrs); j++ {
				nxt := instrs[j]
				if !nxt.InPlace || nxt.Dst != ins.Dst || (nxt.Op != OpAdd && nxt.Op != OpSub) {
					break
				}
				sgn := int64(1)
				if nxt.Op == OpSub {
					sgn = -1
				}
				chain = append(chain, chainLink{a: int32(nxt.A), sgn: sgn})
				i = j
			}
			if len(chain) > 0 {
				op.kind = planFused
				op.ext = int32(len(plan.chains))
				plan.chains = append(plan.chains, chain)
			} else {
				op.kind = planCopy
			}
		case OpAdd:
			op.kind = planAdd
		case OpSub:
			op.kind = planSub
		case OpNeg:
			op.kind = planNeg
		default:
			return nil, fmt.Errorf("ap: exec plan: %w", errUnknownOpcode(ins.Op))
		}
		plan.ops = append(plan.ops, op)
	}
	lo, hi := plan.analyzeRanges()
	var written []bool
	plan.zero, written = plan.findZeroCols()
	plan.chooseLanes(lo, hi, written)
	return plan, nil
}

// Columns returns the number of columns the plan's programs operate on.
func (p *ExecPlan) Columns() int { return len(p.cols) }

// Ops returns the resolved operation count (fusion can make it smaller
// than the source program's instruction count).
func (p *ExecPlan) Ops() int { return len(p.ops) }

// Lanes returns how many rows the plan's machine packs into one int64
// word (1 when the range analysis cannot prove a packed layout sound).
func (p *ExecPlan) Lanes() int { return p.lc.n }

// rangeSat bounds the interval analysis so interval arithmetic can never
// overflow int64 (sums of two in-bound endpoints stay below 2^62).
const rangeSat = int64(1) << 61

func addSat(a, b int64) int64 {
	s := a + b
	if s > rangeSat {
		return rangeSat
	}
	if s < -rangeSat {
		return -rangeSat
	}
	return s
}

// formatRange is the value interval a column's stored format can hold.
// Columns of width ≥ 63 never wrap (wrap() is the identity there —
// including nominally unsigned ones, which can therefore hold negative
// values), so their interval is the saturated "unknown" band; a 62-bit
// unsigned column's upper bound exceeds the saturation band and clamps
// to it, which fitsFormat treats as unprovable.
func formatRange(w int, unsigned bool) (int64, int64) {
	if w >= 63 {
		return -rangeSat, rangeSat
	}
	if unsigned {
		if hi := int64(1)<<uint(w) - 1; hi < rangeSat {
			return 0, hi
		}
		return 0, rangeSat
	}
	half := int64(1) << uint(w-1)
	return -half, half - 1
}

// fitsFormat reports whether the interval [l, h] provably stays inside a
// w-bit column of the given signedness without wrapping. The threshold
// mirrors wrap() exactly: only widths ≥ 63 are unconditionally safe.
// Saturated endpoints mean the true interval may extend beyond the
// analysis band, so they prove nothing.
func fitsFormat(l, h int64, w int, unsigned bool) bool {
	if w >= 63 {
		return true
	}
	if l <= -rangeSat || h >= rangeSat {
		return false
	}
	fl, fh := formatRange(w, unsigned)
	return l >= fl && h <= fh
}

// analyzeRanges propagates value intervals through the op list and marks
// every op whose result provably fits its destination format as wide
// (wrap is the identity there). Soundness rests on the entry state:
// loads wrap to each column's format before Run, and unwritten columns
// are zero, so every column starts inside its format range. An op that
// may wrap resets its destination to the full format interval, exactly
// matching the truncating execution path. It returns the hull [spanLo,
// spanHi] of every value an op stores, for chooseLanes.
func (plan *ExecPlan) analyzeRanges() (spanLo, spanHi int64) {
	n := len(plan.cols)
	lo := make([]int64, n)
	hi := make([]int64, n)
	for c, col := range plan.cols {
		lo[c], hi[c] = formatRange(col.Width, col.Unsigned)
	}
	store := func(c int32, l, h int64) {
		lo[c], hi[c] = l, h
		spanLo, spanHi = min(spanLo, l), max(spanHi, h)
	}
	for i := range plan.ops {
		op := &plan.ops[i]
		w := int(op.width)
		switch op.kind {
		case planClear:
			store(op.dst, 0, 0)
		case planCopy:
			l, h := lo[op.a], hi[op.a]
			if op.wide() || fitsFormat(l, h, w, op.unsigned()) {
				op.flags |= flagWide
			} else {
				l, h = formatRange(w, op.unsigned())
			}
			store(op.dst, l, h)
		case planCopyMulti:
			wide := true
			for _, cd := range plan.multi[op.ext] {
				l, h := lo[op.a], hi[op.a]
				if !op.wide() && !fitsFormat(l, h, w, cd.unsigned) {
					wide = false
					l, h = formatRange(w, cd.unsigned)
				}
				store(cd.col, l, h)
			}
			if wide {
				op.flags |= flagWide
			}
		case planAdd, planSub, planNeg:
			var l, h int64
			switch op.kind {
			case planAdd:
				l, h = addSat(lo[op.b], lo[op.a]), addSat(hi[op.b], hi[op.a])
			case planSub:
				l, h = addSat(lo[op.b], -hi[op.a]), addSat(hi[op.b], -lo[op.a])
			default:
				l, h = -hi[op.a], -lo[op.a]
			}
			if op.wide() || fitsFormat(l, h, w, false) {
				op.flags |= flagWide
			} else {
				l, h = formatRange(w, false)
			}
			store(op.dst, l, h)
		case planFused:
			l, h := lo[op.a], hi[op.a]
			ok := op.wide() || fitsFormat(l, h, w, op.unsigned())
			if !ok {
				l, h = formatRange(w, op.unsigned())
			}
			for _, ln := range plan.chains[op.ext] {
				if ln.sgn > 0 {
					l, h = addSat(l, lo[ln.a]), addSat(h, hi[ln.a])
				} else {
					l, h = addSat(l, -hi[ln.a]), addSat(h, -lo[ln.a])
				}
				if !op.wide() && !fitsFormat(l, h, w, false) {
					ok = false
					l, h = formatRange(w, false)
				}
			}
			if ok {
				op.flags |= flagWide
			}
			store(op.dst, l, h)
		}
	}
	return spanLo, spanHi
}

// chooseLanes picks the densest lane layout the range analysis proves
// sound: 4×16, 3×21 or 2×32 bits, else the unpacked 1×64. Packing needs
// two facts. First, every op other than a clear is wide, so Run never
// masks a word and the homomorphism of the packed encoding carries
// every result exactly. Second, every value the machine can be asked to
// decode fits a signed lane: the hull [lo, hi] of the ops' stored
// intervals, plus the entry format range of every column whose entry
// value is observable — read before any write (a load or the reset
// zero), or never written at all.
func (plan *ExecPlan) chooseLanes(lo, hi int64, written []bool) {
	plan.lc = newLaneCodec(1, 64)
	for i := range plan.ops {
		if op := &plan.ops[i]; op.kind != planClear && !op.wide() {
			return
		}
	}
	entry := func(c int) {
		l, h := formatRange(plan.cols[c].Width, plan.cols[c].Unsigned)
		lo, hi = min(lo, l), max(hi, h)
	}
	for _, c := range plan.zero {
		entry(int(c))
	}
	for c := range plan.cols {
		if !written[c] {
			entry(c)
		}
	}
	for lanes := 4; lanes > 1; lanes-- {
		if fitsFormat(lo, hi, 64/lanes, false) {
			plan.lc = newLaneCodec(lanes, 64/lanes)
			return
		}
	}
}

// findZeroCols returns every column read before it is written (in op
// order); loads may overwrite them afterwards, but an unloaded slot — a
// strip tail's unused plane, say — must read as zero. It also returns
// which columns some op writes. The plan is left untouched.
func (plan *ExecPlan) findZeroCols() (zero []int32, written []bool) {
	written = make([]bool, len(plan.cols))
	queued := make([]bool, len(plan.cols))
	read := func(c int32) {
		if !written[c] && !queued[c] {
			queued[c] = true
			zero = append(zero, c)
		}
	}
	for i := range plan.ops {
		op := &plan.ops[i]
		switch op.kind {
		case planClear:
			written[op.dst] = true
		case planCopy:
			read(op.a)
			written[op.dst] = true
		case planCopyMulti:
			read(op.a)
			for _, cd := range plan.multi[op.ext] {
				written[cd.col] = true
			}
		case planAdd, planSub:
			read(op.a)
			read(op.b)
			written[op.dst] = true
		case planNeg:
			read(op.a)
			written[op.dst] = true
		case planFused:
			read(op.a)
			for _, ln := range plan.chains[op.ext] {
				read(ln.a)
			}
			written[op.dst] = true
		}
	}
	return zero, written
}

// maskSign derives the wrap constants of a non-wide op.
func (op *planOp) maskSign() (mask, sign int64) {
	return int64(1)<<op.width - 1, int64(1) << (op.width - 1)
}

// laneCodec holds the constants of a plan's lane layout: n lanes of bits
// each. Adding bias (2^(bits-1) in every lane) lifts each signed lane
// value v to v+2^(bits-1) ∈ [0, 2^bits), so the lanes of a biased word
// are disjoint bit fields and decode independently — no borrow ripples
// from one lane into the next. The 1×64 layout is the degenerate case:
// every shift by 64 yields 0 and the bias cancels, so words hold rows
// unchanged. chooseLanes builds the codec once per plan; machines read
// it from their plan.
type laneCodec struct {
	n    int
	bits uint
	mask uint64 // one lane's bits
	bias uint64
	half int64
}

func newLaneCodec(lanes, bits int) laneCodec {
	lc := laneCodec{n: lanes, bits: uint(bits)}
	lc.mask = uint64(1)<<lc.bits - 1
	lc.half = int64(1) << (lc.bits - 1)
	for j := 0; j < lanes; j++ {
		lc.bias += uint64(lc.half) << (lc.bits * uint(j))
	}
	return lc
}

// lane decodes lane j of word w.
func (lc *laneCodec) lane(w int64, j int) int64 {
	return int64((uint64(w)+lc.bias)>>(lc.bits*uint(j))&lc.mask) - lc.half
}

// setLane overwrites lane j of *w with v by adding the difference to the
// lane's current value: the lanes below keep their bits, and the lanes
// above decode as before because every lane holds a fitting value.
func (lc *laneCodec) setLane(w *int64, j int, v int64) {
	*w += (v - lc.lane(*w, j)) << (lc.bits * uint(j))
}

// unpackAdd adds the n lanes of each word of src to the next n values of
// dst, one lane per pass like packWords.
//
//rtmap:noalloc
func (lc *laneCodec) unpackAdd(dst []int32, src []int64) {
	n, bias, mask, half := lc.n, lc.bias, lc.mask, lc.half
	dst = dst[:len(src)*n]
	for j := 0; j < n; j++ {
		sh := lc.bits * uint(j) & 63
		for k, w := range src {
			dst[k*n+j] += int32(int64((uint64(w)+bias)>>sh&mask) - half)
		}
	}
}

// Machine executes an ExecPlan over reusable column storage. Unlike
// WordMachine it allocates nothing per execution: Reset rebinds the same
// flat arena to a (plan, rows) pair, growing the backing slices only when
// a larger shape arrives, so a worker that replays many programs reaches
// an allocation-free steady state. Each column holds ⌈rows/lanes⌉ words
// in the plan's lane layout; only the load and read methods see lanes,
// Run works on whole words. A Machine is not safe for concurrent use;
// share plans, not machines.
type Machine struct {
	plan  *ExecPlan
	rows  int
	flat  []int64
	vals  [][]int64
	links [][]int64 // scratch: fused-chain operand slices
	sgns  []int64   // scratch: fused-chain signs
}

// Reset binds m to plan with the given active row count. Only the
// columns the plan reads before writing are zeroed on arena reuse (the
// rest are fully written before any op looks at them), so a reused
// machine behaves exactly like a freshly allocated WordMachine for every
// observable column; columns the plan neither writes nor zeroes are
// undefined after reuse.
func (m *Machine) Reset(plan *ExecPlan, rows int) {
	if rows <= 0 {
		panic(fmt.Sprintf("ap: machine reset with %d rows", rows))
	}
	nc := len(plan.cols)
	words := (rows + plan.lc.n - 1) / plan.lc.n
	need := nc * words
	fresh := cap(m.flat) < need
	if fresh {
		m.flat = make([]int64, need)
	} else {
		m.flat = m.flat[:need]
	}
	if cap(m.vals) < nc {
		m.vals = make([][]int64, nc)
	} else {
		m.vals = m.vals[:nc]
	}
	for c := 0; c < nc; c++ {
		m.vals[c] = m.flat[c*words : (c+1)*words : (c+1)*words]
	}
	if !fresh {
		for _, c := range plan.zero {
			clear(m.vals[c])
		}
	}
	m.plan, m.rows = plan, rows
}

// Rows returns the active row count.
func (m *Machine) Rows() int { return m.rows }

// SetColumnInt32 stores vals into rows [row0, row0+len(vals)) of col,
// wrapped to the column's stored format — the in-place counterpart of
// WordMachine.SetColumn for batched loads that address one row segment
// per batch item. Whole words are packed straight from vals; rows that
// share a word with rows outside the segment are merged lane by lane.
//
//rtmap:noalloc
func (m *Machine) SetColumnInt32(col, row0 int, vals []int32) {
	end := row0 + len(vals)
	if row0 < 0 || end > m.rows {
		panic(fmt.Sprintf("ap: SetColumnInt32 rows [%d,%d) outside machine rows %d",
			row0, end, m.rows))
	}
	// x&mask − ((x&mask)&sign)<<1 is wrap() for every format: sign is 0
	// for unsigned columns, and from 63 bits up the mask keeps everything.
	meta := m.plan.cols[col]
	mask, sign := int64(-1), int64(0)
	if meta.Width < 63 {
		mask = int64(1)<<uint(meta.Width) - 1
		if !meta.Unsigned {
			sign = int64(1) << uint(meta.Width-1)
		}
	}
	lc := &m.plan.lc
	n, bits := lc.n, lc.bits
	words := m.vals[col]
	r := row0
	for ; r < end && r%n != 0; r++ {
		x := int64(vals[r-row0]) & mask
		lc.setLane(&words[r/n], r%n, x-(x&sign)<<1)
	}
	full := (end - r) / n
	packWords(words[r/n:r/n+full], vals[r-row0:r-row0+full*n], n, bits, mask, sign)
	for r += full * n; r < end; r++ {
		x := int64(vals[r-row0]) & mask
		lc.setLane(&words[r/n], r%n, x-(x&sign)<<1)
	}
}

// packWords fills each word of dst with the next n values of src,
// wrapped by (mask, sign): lane 0 is stored, and each higher lane j is
// added in its own pass, shifted by bits·j, so at n = 1 this is the
// plain wrapping copy.
//
//rtmap:noalloc
func packWords(dst []int64, src []int32, n int, bits uint, mask, sign int64) {
	src = src[:len(dst)*n]
	for k := range dst {
		x := int64(src[k*n]) & mask
		dst[k] = x - (x&sign)<<1
	}
	for j := 1; j < n; j++ {
		sh := bits * uint(j) & 63
		for k := range dst {
			x := int64(src[k*n+j]) & mask
			dst[k] += (x - (x&sign)<<1) << sh
		}
	}
}

// AccumulateColumn adds rows [row0, row0+len(dst)) of col into dst
// without allocating — the inter-strip reduction of the functional
// simulator, which previously copied every column before accumulating.
//
//rtmap:noalloc
func (m *Machine) AccumulateColumn(col, row0 int, dst []int32) {
	end := row0 + len(dst)
	if row0 < 0 || end > m.rows {
		panic(fmt.Sprintf("ap: AccumulateColumn rows [%d,%d) outside machine rows %d",
			row0, end, m.rows))
	}
	lc := &m.plan.lc
	n := lc.n
	words := m.vals[col]
	r := row0
	for ; r < end && r%n != 0; r++ {
		dst[r-row0] += int32(lc.lane(words[r/n], r%n))
	}
	full := (end - r) / n
	lc.unpackAdd(dst[r-row0:r-row0+full*n], words[r/n:r/n+full])
	for r += full * n; r < end; r++ {
		dst[r-row0] += int32(lc.lane(words[r/n], r%n))
	}
}

// Column returns a copy of a column's values (tests and debugging; the
// hot path uses AccumulateColumn).
func (m *Machine) Column(col int) []int64 {
	lc := &m.plan.lc
	out := make([]int64, m.rows)
	for r := range out {
		out[r] = lc.lane(m.vals[col][r/lc.n], r%lc.n)
	}
	return out
}

// Run executes the plan over all active rows. It cannot fail and does not
// allocate: every structural error was rejected when the plan was built.
//
//rtmap:noalloc
func (m *Machine) Run() {
	vals := m.vals
	for i := range m.plan.ops {
		op := &m.plan.ops[i]
		switch op.kind {
		case planAdd:
			d := vals[op.dst]
			a, b := vals[op.a][:len(d)], vals[op.b][:len(d)]
			if op.wide() {
				for r := range d {
					d[r] = b[r] + a[r]
				}
			} else {
				mask, sign := op.maskSign()
				for r := range d {
					v := (b[r] + a[r]) & mask
					d[r] = v - (v&sign)<<1
				}
			}
		case planSub:
			d := vals[op.dst]
			a, b := vals[op.a][:len(d)], vals[op.b][:len(d)]
			if op.wide() {
				for r := range d {
					d[r] = b[r] - a[r]
				}
			} else {
				mask, sign := op.maskSign()
				for r := range d {
					v := (b[r] - a[r]) & mask
					d[r] = v - (v&sign)<<1
				}
			}
		case planCopy:
			m.runCopy(op, op.dst, op.unsigned())
		case planCopyMulti:
			for _, cd := range m.plan.multi[op.ext] {
				m.runCopy(op, cd.col, cd.unsigned)
			}
		case planNeg:
			d := vals[op.dst]
			a := vals[op.a][:len(d)]
			if op.wide() {
				for r := range d {
					d[r] = -a[r]
				}
			} else {
				mask, sign := op.maskSign()
				for r := range d {
					v := (-a[r]) & mask
					d[r] = v - (v&sign)<<1
				}
			}
		case planClear:
			clear(vals[op.dst])
		case planFused:
			m.runFused(op)
		}
	}
}

// runCopy writes wrap(a, width, unsigned) into one destination column.
// The wrap is branchless: v − ((v & sign) << 1) subtracts 2·sign exactly
// when the sign bit of the masked value is set.
//
//rtmap:noalloc
func (m *Machine) runCopy(op *planOp, dst int32, unsigned bool) {
	d := m.vals[dst]
	a := m.vals[op.a][:len(d)]
	switch {
	case op.wide():
		copy(d, a)
	case unsigned:
		mask, _ := op.maskSign()
		for r := range d {
			d[r] = a[r] & mask
		}
	default:
		mask, sign := op.maskSign()
		for r := range d {
			v := a[r] & mask
			d[r] = v - (v&sign)<<1
		}
	}
}

// runFused executes a copy plus its in-place accumulation chain in one
// row pass, reproducing the per-instruction wraps of the sequential
// semantics step by step (an unsigned destination zeroes the copy's
// sign-extension mask instead of branching per row).
//
//rtmap:noalloc
func (m *Machine) runFused(op *planOp) {
	chain := m.plan.chains[op.ext]
	links := m.links[:0]
	sgns := m.sgns[:0]
	for _, l := range chain {
		links = append(links, m.vals[l.a]) //rtmap:alloc-ok — scratch reuses capacity at steady state
		sgns = append(sgns, l.sgn)         //rtmap:alloc-ok — scratch reuses capacity at steady state
	}
	m.links, m.sgns = links, sgns

	d := m.vals[op.dst]
	a := m.vals[op.a][:len(d)]
	if op.wide() {
		for r := range d {
			acc := a[r]
			for k, col := range links {
				acc += sgns[k] * col[r]
			}
			d[r] = acc
		}
		return
	}
	mask, sign := op.maskSign()
	copySign := sign
	if op.unsigned() {
		copySign = 0
	}
	for r := range d {
		acc := a[r] & mask
		acc -= (acc & copySign) << 1
		for k, col := range links {
			acc = (acc + sgns[k]*col[r]) & mask
			acc -= (acc & sign) << 1
		}
		d[r] = acc
	}
}
