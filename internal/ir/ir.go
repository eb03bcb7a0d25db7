// Package ir defines the typed register intermediate representation
// shared by the concrete interpreter (internal/vm), the PT-like trace
// decoder (internal/pt), and the shepherded symbolic executor
// (internal/symex). It plays the role LLVM IR plays in the paper's
// prototype: the common substrate onto which control-flow traces are
// mapped and over which symbolic execution runs (§4).
//
// The machine is a register machine: each function owns a flat file
// of 64-bit registers. Instruction semantics are driven by an explicit
// operation width (8/16/32/64 bits). Memory is object-granular:
// addresses pack an object identifier in the high 32 bits and a byte
// offset in the low 32 bits, so the interpreter detects NULL
// dereferences, out-of-bounds accesses, and use-after-free natively —
// the failure classes of Table 1.
package ir

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Width is an operation width in bits.
type Width uint8

// Supported operation widths.
const (
	W8  Width = 8
	W16 Width = 16
	W32 Width = 32
	W64 Width = 64
)

// Bytes returns the width in bytes.
func (w Width) Bytes() int { return int(w) / 8 }

// Op enumerates instruction operations.
type Op uint8

// Instruction operations. BinOp-style operations read A and B and
// write Dst; comparison results are 0 or 1.
const (
	OpInvalid Op = iota

	// Data movement.
	OpConst // Dst = A.Imm
	OpMov   // Dst = A (with truncation to W)

	// Integer arithmetic (width W, wrapping).
	OpAdd
	OpSub
	OpMul
	OpUDiv // division by zero is a failure
	OpURem
	OpSDiv
	OpSRem

	// Bitwise.
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr

	// Comparisons (Dst is 0/1, operands width W).
	OpEq
	OpNe
	OpUlt
	OpUle
	OpSlt
	OpSle

	// Width conversion. OpZext/OpSext widen A from width W to 64
	// bits in the register; OpTrunc truncates to W.
	OpZext
	OpSext
	OpTrunc

	// Memory. Addresses are 64-bit object-packed pointers.
	OpLoad     // Dst = mem[A] (width W)
	OpStore    // mem[A] = B (width W)
	OpFrame    // Dst = address of frame slot at offset A.Imm
	OpGlobal   // Dst = address of global #A.Imm
	OpMalloc   // Dst = new object of A bytes
	OpFree     // free object at A
	OpFuncAddr // Dst = index of function named Tag (for indirect calls)

	// Control flow.
	OpBr     // jump to Blk
	OpCondBr // if A != 0 jump to Blk else Blk2 (emits a TNT bit)
	OpCall   // direct call to Tag with Args; Dst = return value
	OpICall  // indirect call: callee index in A (emits a TIP packet)
	OpRet    // return A (emits a compressed-ret TNT bit)

	// Environment and failure intrinsics.
	OpInput   // Dst = next value from input stream Tag (width W)
	OpAbort   // fail: program abort (Tag = message)
	OpAssert  // fail if A == 0 (Tag = message)
	OpOutput  // append A to the observable output (width W)
	OpPtWrite // record A into the trace as a PTW packet (data value)

	// Threads.
	OpSpawn  // Dst = thread id running function Tag with argument A
	OpJoin   // join thread id A
	OpLock   // acquire mutex A
	OpUnlock // release mutex A
	OpYield  // scheduling hint: end the current chunk
)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpConst:   "const", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpUDiv: "udiv", OpURem: "urem", OpSDiv: "sdiv", OpSRem: "srem",
	OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	OpEq: "eq", OpNe: "ne", OpUlt: "ult", OpUle: "ule", OpSlt: "slt", OpSle: "sle",
	OpZext: "zext", OpSext: "sext", OpTrunc: "trunc",
	OpLoad: "load", OpStore: "store", OpFrame: "frame", OpGlobal: "global",
	OpMalloc: "malloc", OpFree: "free", OpFuncAddr: "funcaddr",
	OpBr: "br", OpCondBr: "condbr", OpCall: "call", OpICall: "icall", OpRet: "ret",
	OpInput: "input", OpAbort: "abort", OpAssert: "assert",
	OpOutput: "output", OpPtWrite: "ptwrite",
	OpSpawn: "spawn", OpJoin: "join", OpLock: "lock", OpUnlock: "unlock",
	OpYield: "yield",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsTerminator reports whether the op ends a basic block.
func (o Op) IsTerminator() bool {
	switch o {
	case OpBr, OpCondBr, OpRet, OpAbort:
		return true
	}
	return false
}

// ArgKind distinguishes operand encodings.
type ArgKind uint8

// Operand kinds.
const (
	ArgNone ArgKind = iota
	ArgReg          // register operand
	ArgImm          // immediate operand
)

// Arg is an instruction operand: a register index or an immediate.
type Arg struct {
	K   ArgKind
	Reg int
	Imm uint64
}

// Reg returns a register operand.
func Reg(r int) Arg { return Arg{K: ArgReg, Reg: r} }

// Imm returns an immediate operand.
func Imm(v uint64) Arg { return Arg{K: ArgImm, Imm: v} }

// String renders the operand.
func (a Arg) String() string {
	switch a.K {
	case ArgReg:
		return fmt.Sprintf("r%d", a.Reg)
	case ArgImm:
		return fmt.Sprintf("#%d", a.Imm)
	}
	return "_"
}

// Instr is a single instruction. The zero value is invalid.
type Instr struct {
	Op   Op
	W    Width
	Dst  int
	A, B Arg
	// Blk and Blk2 are branch targets (block indices). For OpCondBr,
	// Blk is the taken (A != 0) target.
	Blk, Blk2 int
	// Tag names the callee (OpCall, OpSpawn, OpFuncAddr), the input
	// stream (OpInput), or the failure message (OpAbort, OpAssert).
	Tag string
	// Args are call arguments.
	Args []Arg
	// ID is the per-function instruction identifier, stable across
	// instrumentation, used to name data values and match failure
	// signatures.
	ID int32
	// Line is the source line in the minc program, for diagnostics.
	Line int32
}

// String renders the instruction.
func (in *Instr) String() string {
	switch in.Op {
	case OpBr:
		return fmt.Sprintf("br b%d", in.Blk)
	case OpCondBr:
		return fmt.Sprintf("condbr %s b%d b%d", in.A, in.Blk, in.Blk2)
	case OpCall:
		return fmt.Sprintf("r%d = call %s%v", in.Dst, in.Tag, in.Args)
	case OpICall:
		return fmt.Sprintf("r%d = icall %s%v", in.Dst, in.A, in.Args)
	case OpRet:
		return fmt.Sprintf("ret %s", in.A)
	case OpConst:
		return fmt.Sprintf("r%d = const.%d %d", in.Dst, in.W, in.A.Imm)
	case OpInput:
		return fmt.Sprintf("r%d = input.%d %q", in.Dst, in.W, in.Tag)
	case OpStore:
		return fmt.Sprintf("store.%d [%s] %s", in.W, in.A, in.B)
	case OpLoad:
		return fmt.Sprintf("r%d = load.%d [%s]", in.Dst, in.W, in.A)
	default:
		return fmt.Sprintf("r%d = %s.%d %s %s", in.Dst, in.Op, in.W, in.A, in.B)
	}
}

// Block is a basic block: zero or more non-terminator instructions
// followed by exactly one terminator.
type Block struct {
	Index  int
	Instrs []Instr
}

// Term returns the block terminator.
func (b *Block) Term() *Instr { return &b.Instrs[len(b.Instrs)-1] }

// Func is a function. The first NParams registers hold the arguments.
type Func struct {
	Name      string
	NParams   int
	NumRegs   int
	FrameSize int64
	Blocks    []*Block

	// nextID assigns instruction IDs; see NewInstrID.
	nextID int32
}

// NewInstrID returns a fresh instruction ID for this function.
func (f *Func) NewInstrID() int32 {
	f.nextID++
	return f.nextID
}

// Global is a module-level memory object.
type Global struct {
	Name string
	Size int64
	// Init holds the initial contents; shorter than Size means
	// zero-filled tail.
	Init []byte
}

// Module is a complete program. Once built, a Module is read-only and
// safe for concurrent execution by many VMs (a production fleet runs
// the same deployed module on every machine); the lazily built
// function index and the cached executable form are guarded
// accordingly. Transforms that change code work on a Clone.
type Module struct {
	Name    string
	Funcs   []*Func
	Globals []*Global

	idxMu   sync.RWMutex
	funcIdx map[string]int

	// exec is an executor's pre-decoded form of the module (see
	// Compiled); nil until first cached, reset by AddFunc.
	exec atomic.Pointer[execForm]
}

// execForm boxes a cached executable form for atomic publication.
type execForm struct{ v any }

// Compiled returns the executable form cached by CacheCompiled, or
// nil. The interpreter (internal/vm) caches its pre-decoded code here
// so that the cache lives and dies with the module it was built from.
func (m *Module) Compiled() any {
	if e := m.exec.Load(); e != nil {
		return e.v
	}
	return nil
}

// CacheCompiled installs v as the module's executable form unless one
// is already cached, and returns the form now cached. Concurrent
// callers all get the same form.
func (m *Module) CacheCompiled(v any) any {
	e := &execForm{v: v}
	for {
		if m.exec.CompareAndSwap(nil, e) {
			return v
		}
		if cur := m.exec.Load(); cur != nil {
			return cur.v
		}
	}
}

// index returns the name→index map, building it on first use. Safe
// for concurrent callers.
func (m *Module) index() map[string]int {
	m.idxMu.RLock()
	idx := m.funcIdx
	m.idxMu.RUnlock()
	if idx != nil {
		return idx
	}
	m.idxMu.Lock()
	defer m.idxMu.Unlock()
	if m.funcIdx == nil {
		idx := make(map[string]int, len(m.Funcs))
		for i, f := range m.Funcs {
			idx[f.Name] = i
		}
		m.funcIdx = idx
	}
	return m.funcIdx
}

// FuncByName returns the function with the given name, or nil.
func (m *Module) FuncByName(name string) *Func {
	if i, ok := m.index()[name]; ok {
		return m.Funcs[i]
	}
	return nil
}

// FuncIndex returns the index of the named function, or -1.
func (m *Module) FuncIndex(name string) int {
	if i, ok := m.index()[name]; ok {
		return i
	}
	return -1
}

// AddFunc appends f to the module and invalidates the index and the
// cached executable form.
func (m *Module) AddFunc(f *Func) {
	m.Funcs = append(m.Funcs, f)
	m.idxMu.Lock()
	m.funcIdx = nil
	m.idxMu.Unlock()
	m.exec.Store(nil)
}

// AddGlobal appends g and returns its index.
func (m *Module) AddGlobal(g *Global) int {
	m.Globals = append(m.Globals, g)
	return len(m.Globals) - 1
}

// NumInstrs returns the static instruction count of the module.
func (m *Module) NumInstrs() int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}
