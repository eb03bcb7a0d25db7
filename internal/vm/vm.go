// Package vm is the concrete interpreter for the ir register machine.
// It stands in for the x86_64 hardware of the paper's deployment: it
// executes programs, detects failures (aborts, assertion violations,
// NULL/out-of-bounds/use-after-free accesses, division by zero,
// deadlocks), counts cycles for the overhead experiments, and drives a
// PT-like tracer through hook points at conditional branches, indirect
// calls, returns, ptwrite instructions, and thread chunk switches.
//
// Multithreading follows the coarse-interleaving hypothesis setup of
// §3.4: threads run in chunks of instructions under a seeded
// round-robin scheduler, and every chunk boundary is visible to the
// tracer with a coarse timestamp, so the decoder can recover a partial
// order of cross-thread execution.
package vm

import (
	"fmt"

	"execrecon/internal/ir"
)

// FailKind classifies failures, mirroring the bug types of Table 1.
type FailKind uint8

// Failure kinds.
const (
	FailNone FailKind = iota
	FailAbort
	FailAssert
	FailNullDeref
	FailOutOfBounds
	FailUseAfterFree
	FailDivByZero
	FailDeadlock
	FailDoubleFree
	FailBadFree
	FailStackOverflow
	FailInputExhausted
)

var failNames = map[FailKind]string{
	FailNone: "none", FailAbort: "abort", FailAssert: "assertion failure",
	FailNullDeref: "null pointer dereference", FailOutOfBounds: "out-of-bounds access",
	FailUseAfterFree: "use after free", FailDivByZero: "division by zero",
	FailDeadlock: "deadlock", FailDoubleFree: "double free", FailBadFree: "bad free",
	FailStackOverflow: "stack overflow", FailInputExhausted: "input exhausted",
}

// String returns a human-readable failure kind.
func (k FailKind) String() string { return failNames[k] }

// Failure is a failure signature: the program counter (function +
// instruction ID) and call stack where the failure occurred, as in
// the paper's prototype, which "detects the reoccurrence of a failure
// based on matching the program counter and the call stack" (§4).
type Failure struct {
	Kind    FailKind
	Msg     string
	Func    string
	InstrID int32
	Line    int32
	Tid     int
	Stack   []string
}

// Error renders the failure.
func (f *Failure) Error() string {
	return fmt.Sprintf("%s at %s#%d (line %d, thread %d): %s",
		f.Kind, f.Func, f.InstrID, f.Line, f.Tid, f.Msg)
}

// SameSignature reports whether two failures have the same signature
// (kind, program counter, and call stack).
func (f *Failure) SameSignature(o *Failure) bool {
	if f == nil || o == nil {
		return f == o
	}
	if f.Kind != o.Kind || f.Func != o.Func || f.InstrID != o.InstrID {
		return false
	}
	if len(f.Stack) != len(o.Stack) {
		return false
	}
	for i := range f.Stack {
		if f.Stack[i] != o.Stack[i] {
			return false
		}
	}
	return true
}

// Tracer receives control-flow and data events, in execution order.
// The zero tracer (nil) disables tracing.
type Tracer interface {
	// TNT records a conditional-branch outcome or a compressed-ret
	// bit.
	TNT(taken bool)
	// TIP records an indirect transfer target (function index).
	TIP(target uint64)
	// PTW records a data value written by a ptwrite instruction.
	PTW(key int32, w ir.Width, val uint64)
	// Chunk records a scheduling chunk boundary: thread tid starts
	// running at coarse timestamp ts.
	Chunk(tid int, ts uint64)
	// PGD records that the running thread was descheduled after
	// count instructions since its last trace event.
	PGD(count uint64)
}

// InputSource supplies values for input instructions. Implementations
// must be deterministic for replay.
type InputSource interface {
	// Next returns the next value of stream tag, or false when the
	// stream is exhausted.
	Next(tag string, w ir.Width) (uint64, bool)
}

// Workload is the standard InputSource: per-tag FIFO queues. The
// generated test case of a successful reconstruction is exactly a
// Workload.
//
// Streams may be edited directly while the workload is rewound (new,
// cloned or just Reset); once reading has begun, extend a stream with
// Add, which keeps its read cursor in step.
type Workload struct {
	Streams map[string][]uint64
	// cur holds one read cursor per tag read since the workload was
	// built. Cursors survive Reset, which rewinds them in place, so a
	// workload replayed run after run reads each value with a single
	// map lookup and allocates nothing.
	cur map[string]*cursor
}

// cursor is a stream's read position, beside the stream it reads.
type cursor struct {
	vals []uint64
	pos  int
}

// NewWorkload returns an empty workload.
func NewWorkload() *Workload {
	return &Workload{Streams: make(map[string][]uint64)}
}

// Add appends values to stream tag.
func (w *Workload) Add(tag string, vals ...uint64) *Workload {
	s := append(w.Streams[tag], vals...)
	w.Streams[tag] = s
	if c := w.cur[tag]; c != nil {
		c.vals = s
	}
	return w
}

// Next implements InputSource.
func (w *Workload) Next(tag string, _ ir.Width) (uint64, bool) {
	c := w.cur[tag]
	if c == nil {
		if w.cur == nil {
			w.cur = make(map[string]*cursor)
		}
		c = &cursor{vals: w.Streams[tag]}
		w.cur[tag] = c
	}
	if c.pos >= len(c.vals) {
		return 0, false
	}
	c.pos++
	return c.vals[c.pos-1], true
}

// Reset rewinds all streams, re-reading each from Streams.
func (w *Workload) Reset() {
	for tag, c := range w.cur {
		c.vals, c.pos = w.Streams[tag], 0
	}
}

// Clone returns a rewound deep copy.
func (w *Workload) Clone() *Workload {
	c := NewWorkload()
	for k, v := range w.Streams {
		c.Streams[k] = append([]uint64(nil), v...)
	}
	return c
}

// TotalValues returns the number of input values across all streams.
func (w *Workload) TotalValues() int {
	n := 0
	for _, s := range w.Streams {
		n += len(s)
	}
	return n
}

// Config controls an execution.
type Config struct {
	// Input supplies input values; nil means all streams are empty.
	Input InputSource
	// Tracer receives trace events; nil disables tracing.
	Tracer Tracer
	// MaxSteps bounds execution (0 = default 200M); exceeding it
	// reports a deadlock/hang failure.
	MaxSteps int64
	// ChunkSize is the scheduling quantum in instructions
	// (default 1000).
	ChunkSize int
	// Seed perturbs chunk lengths to vary interleavings across
	// production runs.
	Seed int64
	// MaxCallDepth bounds recursion (default 512).
	MaxCallDepth int
	// OnRegWrite, if set, observes every register write: the
	// ground-truth hook used to score REPT-style recovery.
	OnRegWrite func(fn string, instrID int32, dst int, val uint64)
	// OnCall and OnReturn, if set, observe function entries and
	// exits with concrete argument/return values — the program
	// points at which the invariant engine (internal/invariants)
	// collects observations.
	OnCall   func(fn string, args []uint64)
	OnReturn func(fn string, ret uint64)
}

// Stats summarizes an execution for the efficiency experiments.
type Stats struct {
	Instrs    int64 // dynamic instruction count
	Cycles    int64 // modelled cycles (excluding tracing costs)
	Branches  int64 // conditional branches executed
	Rets      int64
	ICalls    int64
	PtWrites  int64
	Inputs    int64 // input instructions executed (syscall analog)
	InputBits int64 // total input payload bits
	Chunks    int64 // scheduling chunk switches
	Threads   int   // max live threads
}

// Result is the outcome of a run.
type Result struct {
	Failure *Failure // nil on clean exit
	Output  []uint64 // values emitted by output instructions
	Stats   Stats
	// Dump is the "core dump" captured at the failure: the failing
	// frame's registers and the final contents of every live memory
	// object. This is the post-mortem state REPT-style reverse
	// recovery starts from (internal/rept); ER itself never needs
	// it.
	Dump *CoreDump
}

// CoreDump is the post-failure machine state.
type CoreDump struct {
	Regs    []uint64          // failing frame registers
	Objects map[uint32][]byte // object id -> final bytes (live objects)
}

// cycle cost per op class, a coarse model of a modern OoO core.
func opCycles(op ir.Op) int64 {
	switch op {
	case ir.OpLoad, ir.OpStore:
		return 4
	case ir.OpMul:
		return 3
	case ir.OpUDiv, ir.OpURem, ir.OpSDiv, ir.OpSRem:
		return 20
	case ir.OpCall, ir.OpICall, ir.OpRet, ir.OpSpawn:
		return 8
	case ir.OpInput:
		return 300 // syscall-ish
	case ir.OpMalloc, ir.OpFree:
		return 50
	case ir.OpLock, ir.OpUnlock:
		return 15
	case ir.OpPtWrite:
		return 1 // the hardware ptwrite instruction is cheap
	default:
		return 1
	}
}
