package vm

import (
	"encoding/binary"
	"fmt"

	"execrecon/internal/ir"
)

// Object-packed addresses: object ID in the high 32 bits, byte offset
// in the low 32 bits. Object 0 is the NULL object.
const objShift = 32

// PackAddr builds an address from object ID and offset.
func PackAddr(obj uint32, off uint32) uint64 { return uint64(obj)<<objShift | uint64(off) }

// SplitAddr splits an address into object ID and offset.
func SplitAddr(a uint64) (uint32, uint32) { return uint32(a >> objShift), uint32(a) }

// object is a memory object header. Headers live by value in
// Machine.objs, indexed by object ID; IDs are never reused, so a
// dangling pointer always names its own (freed) object.
type object struct {
	data   []byte
	freed  bool
	global bool
	heap   bool
}

// frame is one activation. Popped frames stay above the top of their
// thread's stack and are reused, with their register file and
// frame-local buffer, by the next call at that depth.
type frame struct {
	code     *code
	regs     []uint64
	pc       int32
	frameObj uint32
	retDst   int
	// local is the frame-local buffer, the data of frameObj while
	// the frame is live.
	local []byte
}

type threadState uint8

const (
	thRunnable threadState = iota
	thBlockedLock
	thBlockedJoin
	thDone
)

type thread struct {
	id      int
	stack   []*frame // frames above len(stack) are kept for reuse
	state   threadState
	waitMu  uint64 // mutex id when blocked on lock
	waitTid int    // thread id when blocked on join
	retVal  uint64
	// sinceEvent counts instructions executed since the thread's
	// last trace event; it parameterizes PGD pause markers.
	sinceEvent uint64
}

// Machine executes a module under a Config. A Machine is single-use.
type Machine struct {
	mod  *ir.Module
	prog *program
	cfg  Config
	objs []object // by object ID
	thrs []*thread
	mus  map[uint64]int // mutex id -> owner tid (-1 free); nil until a lock

	out     []uint64
	stats   Stats
	failure *Failure
	dump    *CoreDump
	rng     uint64
	now     uint64 // coarse timestamp counter
	lastTid int    // last traced thread (-1 before any chunk)
}

// New prepares a machine for mod. The module should be validated.
func New(mod *ir.Module, cfg Config) *Machine {
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 200_000_000
	}
	if cfg.ChunkSize == 0 {
		cfg.ChunkSize = 1000
	}
	if cfg.MaxCallDepth == 0 {
		cfg.MaxCallDepth = 512
	}
	m := &Machine{
		mod:     mod,
		prog:    programOf(mod),
		cfg:     cfg,
		rng:     uint64(cfg.Seed)*2862933555777941757 + 3037000493,
		lastTid: -1,
	}
	// Object 0 is NULL.
	m.objs = make([]object, 1, 1+len(mod.Globals)+8)
	for _, g := range mod.Globals {
		data := make([]byte, g.Size)
		copy(data, g.Init)
		m.objs = append(m.objs, object{data: data, global: true})
	}
	return m
}

// GlobalObject returns the object ID of global gi.
func GlobalObject(gi int) uint32 { return uint32(gi + 1) }

func (m *Machine) nextRand() uint64 {
	m.rng ^= m.rng << 13
	m.rng ^= m.rng >> 7
	m.rng ^= m.rng << 17
	return m.rng
}

// Run executes function entry (usually "main") with the given integer
// arguments until exit, failure, or the step bound.
func (m *Machine) Run(entry string, args ...uint64) *Result {
	idx := m.mod.FuncIndex(entry)
	if idx < 0 {
		panic(fmt.Sprintf("vm: no function %q", entry))
	}
	t := &thread{id: 0}
	m.thrs = append(m.thrs, t)
	f := m.pushFrame(t, &m.prog.funcs[idx], -1)
	copy(f.regs, args)
	if m.cfg.OnCall != nil {
		m.cfg.OnCall(f.code.fn.Name, args[:min(len(args), f.code.fn.NParams)])
	}
	m.schedule()
	return &Result{Failure: m.failure, Output: m.out, Stats: m.stats, Dump: m.dump}
}

// pushFrame pushes a zeroed activation of c onto t's stack, reusing the
// frame last popped at that depth, and returns it. The caller writes
// the arguments into its registers and reports OnCall.
func (m *Machine) pushFrame(t *thread, c *code, retDst int) *frame {
	n := len(t.stack)
	var f *frame
	if n < cap(t.stack) {
		f = t.stack[:n+1][n]
	}
	if f == nil {
		f = new(frame)
	}
	t.stack = append(t.stack, f)
	f.code, f.pc, f.retDst, f.frameObj = c, 0, retDst, 0
	if n := c.fn.NumRegs; cap(f.regs) >= n {
		f.regs = f.regs[:n]
		clear(f.regs)
	} else {
		f.regs = make([]uint64, n)
	}
	if size := c.fn.FrameSize; size > 0 {
		if int64(cap(f.local)) >= size {
			f.local = f.local[:size]
			clear(f.local)
		} else {
			f.local = make([]byte, size)
		}
		m.objs = append(m.objs, object{data: f.local})
		f.frameObj = uint32(len(m.objs) - 1)
	}
	return f
}

// popFrame pops t's top frame and frees its frame object. The object
// keeps its ID (so dangling pointers into it fault) but drops its data,
// which the frame reuses.
func (m *Machine) popFrame(t *thread) {
	f := t.stack[len(t.stack)-1]
	if f.frameObj != 0 {
		o := &m.objs[f.frameObj]
		o.freed = true
		o.data = nil
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// schedule runs threads in chunks until completion or failure.
func (m *Machine) schedule() {
	cur := 0
	for m.failure == nil {
		t := m.pickThread(cur)
		if t == nil {
			// No runnable thread: either all done, or deadlock.
			if m.allDone() {
				return
			}
			m.failGlobal(FailDeadlock, "no runnable threads")
			return
		}
		cur = t.id
		m.now++
		// A chunk packet is only needed when the running thread
		// changes; the decoder treats the stream as belonging to
		// the last announced thread.
		if t.id != m.lastTid {
			if m.cfg.Tracer != nil {
				m.cfg.Tracer.Chunk(t.id, m.now)
			}
			m.stats.Chunks++
			m.lastTid = t.id
		}
		// Jitter the quantum so distinct seeds produce distinct
		// coarse interleavings, as real timer variance would.
		quantum := m.cfg.ChunkSize
		if len(m.thrs) > 1 {
			quantum = m.cfg.ChunkSize/2 + int(m.nextRand()%uint64(m.cfg.ChunkSize))
		}
		m.runChunk(t, quantum)
		cur++
	}
}

func (m *Machine) pickThread(start int) *thread {
	n := len(m.thrs)
	for i := 0; i < n; i++ {
		t := m.thrs[(start+i)%n]
		if t.state == thRunnable {
			return t
		}
	}
	return nil
}

func (m *Machine) allDone() bool {
	for _, t := range m.thrs {
		if t.state != thDone {
			return false
		}
	}
	return true
}

func (m *Machine) failGlobal(kind FailKind, msg string) {
	m.failure = &Failure{Kind: kind, Msg: msg, Func: "<scheduler>"}
}

// fail records a failure at the current instruction of thread t.
func (m *Machine) fail(t *thread, in *ir.Instr, kind FailKind, msg string) {
	f := t.stack[len(t.stack)-1]
	var stack []string
	for _, fr := range t.stack {
		stack = append(stack, fr.code.fn.Name)
	}
	m.failure = &Failure{
		Kind: kind, Msg: msg,
		Func: f.code.fn.Name, InstrID: in.ID, Line: in.Line,
		Tid: t.id, Stack: stack,
	}
	dump := &CoreDump{
		Regs:    append([]uint64(nil), f.regs...),
		Objects: make(map[uint32][]byte),
	}
	for id := range m.objs {
		o := &m.objs[id]
		if id == 0 || o.freed {
			continue
		}
		dump.Objects[uint32(id)] = append([]byte(nil), o.data...)
	}
	m.dump = dump
}

func (m *Machine) arg(f *frame, a ir.Arg) uint64 {
	if a.K == ir.ArgReg {
		return f.regs[a.Reg]
	}
	return a.Imm
}

func (m *Machine) setReg(t *thread, f *frame, in *ir.Instr, val uint64) {
	f.regs[in.Dst] = val
	if m.cfg.OnRegWrite != nil {
		m.cfg.OnRegWrite(f.code.fn.Name, in.ID, in.Dst, val)
	}
}

// checkAccess validates a memory access and returns the object.
func (m *Machine) checkAccess(t *thread, in *ir.Instr, addr uint64, size int) *object {
	obj, off := SplitAddr(addr)
	if obj == 0 || int(obj) >= len(m.objs) {
		m.fail(t, in, FailNullDeref, fmt.Sprintf("address %#x", addr))
		return nil
	}
	o := &m.objs[obj]
	if o.freed {
		m.fail(t, in, FailUseAfterFree, fmt.Sprintf("object %d at offset %d", obj, off))
		return nil
	}
	if int(off)+size > len(o.data) {
		m.fail(t, in, FailOutOfBounds,
			fmt.Sprintf("object %d size %d, access [%d,%d)", obj, len(o.data), off, int(off)+size))
		return nil
	}
	return o
}

func loadLE(data []byte, off uint32, n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v |= uint64(data[int(off)+i]) << (8 * i)
	}
	return v
}

func storeLE(data []byte, off uint32, n int, v uint64) {
	for i := 0; i < n; i++ {
		data[int(off)+i] = byte(v >> (8 * i))
	}
}

// runChunk interprets at least quantum instructions on thread t, but
// only ends the chunk immediately after a trace-visible event
// (conditional branch, return, indirect call, or yield) or when the
// thread blocks. Aligning preemption with trace events lets the
// shepherded symbolic executor reconstruct the exact switch points
// from the packet stream alone (§3.4).
//
// The common instructions run in runFast's tight loop; every other
// instruction, any instruction that would fail, and every instruction
// when OnRegWrite is set goes through execStep, whose step is the one
// complete statement of the semantics.
func (m *Machine) runChunk(t *thread, quantum int) {
	defer m.pgd(t)
	// Once the run's instruction count passes endAt, the chunk has
	// executed more than quantum instructions and may end at the
	// next trace-visible event.
	endAt := m.stats.Instrs + int64(quantum)
	fast := m.cfg.OnRegWrite == nil
	for {
		if t.state != thRunnable || m.failure != nil {
			return
		}
		if len(t.stack) == 0 {
			t.state = thDone
			m.wakeJoiners(t.id)
			return
		}
		f := t.stack[len(t.stack)-1]
		if fast && m.runFast(t, f, endAt) {
			return
		}
		op := f.code.ins[f.pc].in.Op
		if !m.execStep(t, f) {
			return
		}
		if m.stats.Instrs > endAt {
			switch op {
			case ir.OpCondBr, ir.OpRet, ir.OpICall, ir.OpYield:
				return
			}
		}
	}
}

// execStep counts and executes the instruction at f's pc through step.
// It returns false when the chunk must end.
func (m *Machine) execStep(t *thread, f *frame) bool {
	ci := &f.code.ins[f.pc]
	m.stats.Instrs++
	if m.stats.Instrs > m.cfg.MaxSteps {
		m.failGlobal(FailDeadlock, "step budget exhausted (hang)")
		return false
	}
	m.stats.Cycles += int64(ci.cyc)
	t.sinceEvent++
	ok := m.step(t, f, ci)
	if eventOp(ci.in.Op) {
		t.sinceEvent = 0
	}
	return ok
}

// runFast runs f's instructions while they are hot-loop instructions
// that cannot fail, keeping the pc, the registers and the counters in
// locals. It stops before the first other instruction (for execStep)
// and reports true when it ended the chunk at a conditional branch.
// Its semantics are step's, instruction for instruction.
func (m *Machine) runFast(t *thread, f *frame, endAt int64) (chunkEnd bool) {
	ins, regs, pc := f.code.ins, f.regs, f.pc
	objs := m.objs
	frameBase := PackAddr(f.frameObj, 0)
	instrs, cycles, branches := m.stats.Instrs, m.stats.Cycles, m.stats.Branches
	since := t.sinceEvent
	limit := m.cfg.MaxSteps
	tr := m.cfg.Tracer
loop:
	for instrs < limit {
		ci := &ins[pc]
		a, b := ci.a, ci.b
		if ci.aReg {
			a = regs[a]
		}
		if ci.bReg {
			b = regs[b]
		}
		next := pc + 1
		mask := ci.mask()
		switch ci.op {
		case ir.OpConst, ir.OpGlobal:
			regs[ci.dst] = a
		case ir.OpMov, ir.OpZext, ir.OpTrunc:
			regs[ci.dst] = a & mask
		case ir.OpSext:
			regs[ci.dst] = uint64(int64(a<<ci.sh) >> ci.sh)
		case ir.OpFrame:
			regs[ci.dst] = frameBase | a
		case ir.OpAdd:
			regs[ci.dst] = (a + b) & mask
		case ir.OpSub:
			regs[ci.dst] = (a - b) & mask
		case ir.OpMul:
			regs[ci.dst] = (a * b) & mask
		case ir.OpAnd:
			regs[ci.dst] = a & b & mask
		case ir.OpOr:
			regs[ci.dst] = (a | b) & mask
		case ir.OpXor:
			regs[ci.dst] = (a ^ b) & mask
		case ir.OpUDiv, ir.OpURem, ir.OpSDiv, ir.OpSRem:
			v, ok := EvalBin(ci.op, ci.w, a&mask, b&mask)
			if !ok {
				break loop // division by zero: step reports it
			}
			regs[ci.dst] = v
		case ir.OpShl:
			if b &= mask; b >= uint64(ci.w) {
				regs[ci.dst] = 0
			} else {
				regs[ci.dst] = (a << b) & mask
			}
		case ir.OpLShr:
			if b &= mask; b >= uint64(ci.w) {
				regs[ci.dst] = 0
			} else {
				regs[ci.dst] = (a & mask) >> b
			}
		case ir.OpAShr:
			if b &= mask; b >= uint64(ci.w) {
				b = uint64(ci.w) - 1
			}
			regs[ci.dst] = uint64(int64(a<<ci.sh)>>ci.sh>>b) & mask
		case ir.OpEq:
			regs[ci.dst] = b2u(a&mask == b&mask)
		case ir.OpNe:
			regs[ci.dst] = b2u(a&mask != b&mask)
		case ir.OpUlt:
			regs[ci.dst] = b2u(a&mask < b&mask)
		case ir.OpUle:
			regs[ci.dst] = b2u(a&mask <= b&mask)
		case ir.OpSlt:
			regs[ci.dst] = b2u(int64(a<<ci.sh)>>ci.sh < int64(b<<ci.sh)>>ci.sh)
		case ir.OpSle:
			regs[ci.dst] = b2u(int64(a<<ci.sh)>>ci.sh <= int64(b<<ci.sh)>>ci.sh)
		case ir.OpLoad, ir.OpStore:
			obj, off := SplitAddr(a)
			if obj == 0 || int(obj) >= len(objs) {
				break loop
			}
			o := &objs[obj]
			end := int(off) + int(ci.nb)
			if o.freed || end > len(o.data) {
				break loop // a failing access: step reports it
			}
			d := o.data[off:end]
			if ci.op == ir.OpLoad {
				regs[ci.dst] = loadN(d)
			} else {
				storeN(d, b&mask)
			}
		case ir.OpBr:
			next = ci.t1
		case ir.OpCondBr:
			branches++
			taken := a != 0
			if tr != nil {
				tr.TNT(taken)
			}
			next = int32(b)
			if taken {
				next = ci.t1
			}
			pc = next
			instrs++
			cycles += int64(ci.cyc)
			since = 0
			if instrs > endAt {
				chunkEnd = true
				break loop
			}
			continue
		default:
			break loop
		}
		pc = next
		instrs++
		cycles += int64(ci.cyc)
		since++
	}
	f.pc = pc
	m.stats.Instrs, m.stats.Cycles, m.stats.Branches = instrs, cycles, branches
	t.sinceEvent = since
	return chunkEnd
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// loadN reads len(d) (1, 2, 4 or 8) bytes little-endian.
func loadN(d []byte) uint64 {
	switch len(d) {
	case 1:
		return uint64(d[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(d))
	case 4:
		return uint64(binary.LittleEndian.Uint32(d))
	}
	return binary.LittleEndian.Uint64(d)
}

// storeN writes the low len(d) (1, 2, 4 or 8) bytes of v little-endian.
func storeN(d []byte, v uint64) {
	switch len(d) {
	case 1:
		d[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(d, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(d, uint32(v))
	default:
		binary.LittleEndian.PutUint64(d, v)
	}
}

// eventOp reports whether the op emits a trace event when executed.
func eventOp(op ir.Op) bool {
	switch op {
	case ir.OpCondBr, ir.OpRet, ir.OpICall, ir.OpPtWrite:
		return true
	}
	return false
}

// pgd emits the pause marker for thread t at the end of its chunk.
func (m *Machine) pgd(t *thread) {
	if m.cfg.Tracer != nil && m.failure == nil {
		m.cfg.Tracer.PGD(t.sinceEvent)
	}
}

// step executes one instruction; it returns false when the chunk must
// end (block, thread switch, failure, or thread exit).
func (m *Machine) step(t *thread, f *frame, ci *cinstr) bool {
	in := ci.in
	adv := true // advance f.pc after execution
	w := in.W
	nb := w.Bytes()
	msk := func(v uint64) uint64 {
		if w == ir.W64 {
			return v
		}
		return v & (1<<(8*uint(nb)) - 1)
	}
	switch in.Op {
	case ir.OpConst:
		m.setReg(t, f, in, msk(in.A.Imm))
	case ir.OpMov:
		m.setReg(t, f, in, msk(m.arg(f, in.A)))
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpUDiv, ir.OpURem, ir.OpSDiv, ir.OpSRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr,
		ir.OpEq, ir.OpNe, ir.OpUlt, ir.OpUle, ir.OpSlt, ir.OpSle:
		a, b := msk(m.arg(f, in.A)), msk(m.arg(f, in.B))
		v, ok := EvalBin(in.Op, w, a, b)
		if !ok {
			m.fail(t, in, FailDivByZero, "divisor is zero")
			return false
		}
		m.setReg(t, f, in, v)
	case ir.OpZext:
		m.setReg(t, f, in, msk(m.arg(f, in.A)))
	case ir.OpSext:
		m.setReg(t, f, in, uint64(signExtend(msk(m.arg(f, in.A)), w)))
	case ir.OpTrunc:
		m.setReg(t, f, in, msk(m.arg(f, in.A)))
	case ir.OpLoad:
		addr := m.arg(f, in.A)
		o := m.checkAccess(t, in, addr, nb)
		if o == nil {
			return false
		}
		_, off := SplitAddr(addr)
		m.setReg(t, f, in, loadLE(o.data, off, nb))
	case ir.OpStore:
		addr := m.arg(f, in.A)
		o := m.checkAccess(t, in, addr, nb)
		if o == nil {
			return false
		}
		_, off := SplitAddr(addr)
		storeLE(o.data, off, nb, msk(m.arg(f, in.B)))
	case ir.OpFrame:
		m.setReg(t, f, in, PackAddr(f.frameObj, uint32(in.A.Imm)))
	case ir.OpGlobal:
		m.setReg(t, f, in, PackAddr(GlobalObject(int(in.A.Imm)), 0))
	case ir.OpMalloc:
		size := m.arg(f, in.A)
		if size > 1<<28 {
			m.fail(t, in, FailOutOfBounds, fmt.Sprintf("malloc of %d bytes", size))
			return false
		}
		m.objs = append(m.objs, object{data: make([]byte, size), heap: true})
		m.setReg(t, f, in, PackAddr(uint32(len(m.objs)-1), 0))
	case ir.OpFree:
		addr := m.arg(f, in.A)
		obj, off := SplitAddr(addr)
		if obj == 0 || int(obj) >= len(m.objs) || off != 0 {
			m.fail(t, in, FailBadFree, fmt.Sprintf("address %#x", addr))
			return false
		}
		o := &m.objs[obj]
		if !o.heap {
			m.fail(t, in, FailBadFree, "free of non-heap object")
			return false
		}
		if o.freed {
			m.fail(t, in, FailDoubleFree, fmt.Sprintf("object %d", obj))
			return false
		}
		o.freed = true
	case ir.OpFuncAddr:
		m.setReg(t, f, in, ci.a)
	case ir.OpBr:
		f.pc = ci.t1
		adv = false
	case ir.OpCondBr:
		taken := m.arg(f, in.A) != 0
		m.stats.Branches++
		if m.cfg.Tracer != nil {
			m.cfg.Tracer.TNT(taken)
		}
		if taken {
			f.pc = ci.t1
		} else {
			f.pc = int32(ci.b)
		}
		adv = false
	case ir.OpCall:
		m.doCall(t, f, in, &m.prog.funcs[ci.b])
		return m.failure == nil
	case ir.OpICall:
		idx := m.arg(f, in.A)
		m.stats.ICalls++
		if m.cfg.Tracer != nil {
			m.cfg.Tracer.TIP(idx)
		}
		if idx >= uint64(len(m.mod.Funcs)) {
			m.fail(t, in, FailNullDeref, fmt.Sprintf("indirect call to %#x", idx))
			return false
		}
		callee := &m.prog.funcs[idx]
		if len(in.Args) != callee.fn.NParams {
			m.fail(t, in, FailAbort, fmt.Sprintf("indirect call arity: %s wants %d args", callee.fn.Name, callee.fn.NParams))
			return false
		}
		m.doCall(t, f, in, callee)
		return m.failure == nil
	case ir.OpRet:
		rv := m.arg(f, in.A)
		if m.cfg.OnReturn != nil {
			m.cfg.OnReturn(f.code.fn.Name, rv)
		}
		m.stats.Rets++
		if m.cfg.Tracer != nil {
			// Compressed-ret bit, as Intel PT emits when the
			// return matches the call stack.
			m.cfg.Tracer.TNT(true)
		}
		m.popFrame(t)
		if len(t.stack) == 0 {
			t.retVal = rv
			t.state = thDone
			m.wakeJoiners(t.id)
			return false
		}
		cf := t.stack[len(t.stack)-1]
		if f.retDst >= 0 {
			cf.regs[f.retDst] = rv
		}
		cf.pc++
		return true
	case ir.OpInput:
		var v uint64
		var ok bool
		if m.cfg.Input != nil {
			v, ok = m.cfg.Input.Next(in.Tag, w)
		}
		if !ok {
			m.fail(t, in, FailInputExhausted, fmt.Sprintf("stream %q", in.Tag))
			return false
		}
		m.stats.Inputs++
		m.stats.InputBits += int64(w)
		m.setReg(t, f, in, msk(v))
	case ir.OpAbort:
		m.fail(t, in, FailAbort, in.Tag)
		return false
	case ir.OpAssert:
		if m.arg(f, in.A) == 0 {
			m.fail(t, in, FailAssert, in.Tag)
			return false
		}
	case ir.OpOutput:
		m.out = append(m.out, msk(m.arg(f, in.A)))
	case ir.OpPtWrite:
		m.stats.PtWrites++
		if m.cfg.Tracer != nil {
			m.cfg.Tracer.PTW(in.ID, w, msk(m.arg(f, in.A)))
		}
	case ir.OpSpawn:
		nt := &thread{id: len(m.thrs)}
		m.thrs = append(m.thrs, nt)
		if len(m.thrs) > m.stats.Threads {
			m.stats.Threads = len(m.thrs)
		}
		m.passArgs(f, in, m.pushFrame(nt, &m.prog.funcs[ci.b], -1))
		m.setReg(t, f, in, uint64(nt.id))
	case ir.OpJoin:
		tid := m.arg(f, in.A)
		if tid >= uint64(len(m.thrs)) {
			m.fail(t, in, FailAbort, fmt.Sprintf("join of unknown thread %d", tid))
			return false
		}
		if m.thrs[tid].state != thDone {
			t.state = thBlockedJoin
			t.waitTid = int(tid)
			return false // do not advance; retried after wake
		}
	case ir.OpLock:
		mu := m.arg(f, in.A)
		if m.mus == nil {
			m.mus = make(map[uint64]int)
		}
		owner, held := m.mus[mu]
		if held && owner >= 0 {
			if owner == t.id {
				m.fail(t, in, FailDeadlock, "recursive lock")
				return false
			}
			t.state = thBlockedLock
			t.waitMu = mu
			return false
		}
		m.mus[mu] = t.id
	case ir.OpUnlock:
		mu := m.arg(f, in.A)
		if owner, held := m.mus[mu]; !held || owner != t.id {
			m.fail(t, in, FailAbort, "unlock of mutex not held")
			return false
		}
		m.mus[mu] = -1
		m.wakeLockers(mu)
	case ir.OpYield:
		f.pc++
		return false
	default:
		m.fail(t, in, FailAbort, fmt.Sprintf("bad opcode %s", in.Op))
		return false
	}
	if adv {
		f.pc++
	}
	return true
}

func (m *Machine) doCall(t *thread, f *frame, in *ir.Instr, callee *code) {
	if len(t.stack) >= m.cfg.MaxCallDepth {
		m.fail(t, in, FailStackOverflow, fmt.Sprintf("depth %d", len(t.stack)))
		return
	}
	m.passArgs(f, in, m.pushFrame(t, callee, in.Dst))
}

// passArgs evaluates in's call arguments in the caller frame f straight
// into the callee frame cf's registers, and reports the call to OnCall.
func (m *Machine) passArgs(f *frame, in *ir.Instr, cf *frame) {
	for i, a := range in.Args {
		if i < len(cf.regs) {
			cf.regs[i] = m.arg(f, a)
		}
	}
	if m.cfg.OnCall != nil {
		args := make([]uint64, len(in.Args))
		for i, a := range in.Args {
			args[i] = m.arg(f, a)
		}
		m.cfg.OnCall(cf.code.fn.Name, args[:min(len(args), cf.code.fn.NParams)])
	}
}

func (m *Machine) wakeJoiners(tid int) {
	for _, o := range m.thrs {
		if o.state == thBlockedJoin && o.waitTid == tid {
			o.state = thRunnable
			// The join instruction re-executes and now passes.
		}
	}
}

func (m *Machine) wakeLockers(mu uint64) {
	for _, o := range m.thrs {
		if o.state == thBlockedLock && o.waitMu == mu {
			o.state = thRunnable
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func signExtend(v uint64, w ir.Width) int64 {
	switch w {
	case ir.W8:
		return int64(int8(v))
	case ir.W16:
		return int64(int16(v))
	case ir.W32:
		return int64(int32(v))
	}
	return int64(v)
}

// EvalBin computes a binary operation on masked operands; ok is
// false for division by zero. It is exported for reuse by analyses
// that re-execute instruction semantics (e.g. internal/rept).
func EvalBin(op ir.Op, w ir.Width, a, b uint64) (uint64, bool) {
	msk := uint64(1)<<(uint(w)) - 1
	if w == ir.W64 {
		msk = ^uint64(0)
	}
	bool2 := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	switch op {
	case ir.OpAdd:
		return (a + b) & msk, true
	case ir.OpSub:
		return (a - b) & msk, true
	case ir.OpMul:
		return (a * b) & msk, true
	case ir.OpUDiv:
		if b == 0 {
			return 0, false
		}
		return (a / b) & msk, true
	case ir.OpURem:
		if b == 0 {
			return 0, false
		}
		return (a % b) & msk, true
	case ir.OpSDiv:
		if b == 0 {
			return 0, false
		}
		sa, sb := signExtend(a, w), signExtend(b, w)
		if sb == -1 && sa == -9223372036854775808 {
			return a & msk, true // MIN/-1 wraps, as x86 would trap and C leaves UB
		}
		return uint64(sa/sb) & msk, true
	case ir.OpSRem:
		if b == 0 {
			return 0, false
		}
		sa, sb := signExtend(a, w), signExtend(b, w)
		if sb == -1 {
			return 0, true
		}
		return uint64(sa%sb) & msk, true
	case ir.OpAnd:
		return a & b, true
	case ir.OpOr:
		return a | b, true
	case ir.OpXor:
		return a ^ b, true
	case ir.OpShl:
		if b >= uint64(w) {
			return 0, true
		}
		return (a << b) & msk, true
	case ir.OpLShr:
		if b >= uint64(w) {
			return 0, true
		}
		return a >> b, true
	case ir.OpAShr:
		sh := b
		if sh >= uint64(w) {
			sh = uint64(w) - 1
		}
		return uint64(signExtend(a, w)>>sh) & msk, true
	case ir.OpEq:
		return bool2(a == b), true
	case ir.OpNe:
		return bool2(a != b), true
	case ir.OpUlt:
		return bool2(a < b), true
	case ir.OpUle:
		return bool2(a <= b), true
	case ir.OpSlt:
		return bool2(signExtend(a, w) < signExtend(b, w)), true
	case ir.OpSle:
		return bool2(signExtend(a, w) <= signExtend(b, w)), true
	}
	return 0, true
}
