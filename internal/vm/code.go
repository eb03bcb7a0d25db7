package vm

import "execrecon/internal/ir"

// program is the pre-decoded form of a module: one code per function,
// in module order (so an indirect-call index is a program index). It is
// built once per module and cached on the module itself
// (ir.Module.CacheCompiled), so every machine running the module shares
// it and it is freed with the module.
type program struct {
	funcs []code
}

// code is one function flattened into a single instruction array, its
// blocks in order, so falling through is pc+1 and a branch is a jump to
// the pc where the target block starts.
type code struct {
	fn  *ir.Func
	ins []cinstr
}

// cinstr is a compact (40-byte), pre-decoded instruction: a module's
// compiled form lives as long as the module. Step reads the original
// instruction through in for everything not decoded here (tags, call
// arguments, IDs and lines for failures).
type cinstr struct {
	op         ir.Op
	w          ir.Width
	nb         uint8 // access size in bytes
	sh         uint8 // 64 - width: a<<sh>>sh sign-extends a from width
	aReg, bReg bool  // a / b hold a register index rather than a value
	cyc        uint16
	dst        int32
	t1         int32 // OpBr target, OpCondBr taken target (pcs)
	// a and b are the operands: a register index when aReg/bReg,
	// else the immediate. Ops without a B operand reuse b: the
	// not-taken pc of OpCondBr, the callee's function index of
	// OpCall and OpSpawn. Some immediates are resolved: OpConst's is
	// masked, OpGlobal's is the packed address, OpFrame's the offset,
	// OpFuncAddr's the function index.
	a, b uint64
	in   *ir.Instr
}

// mask returns the value mask of the instruction's width.
func (ci *cinstr) mask() uint64 { return ^uint64(0) >> ci.sh }

// programOf returns the cached program of mod, compiling it on first
// use. Concurrent first callers may each compile; one result wins and
// all use it.
func programOf(mod *ir.Module) *program {
	if p, ok := mod.Compiled().(*program); ok {
		return p
	}
	return mod.CacheCompiled(compile(mod)).(*program)
}

func compile(mod *ir.Module) *program {
	p := &program{funcs: make([]code, len(mod.Funcs))}
	for i, fn := range mod.Funcs {
		p.funcs[i].fn = fn
	}
	for i := range p.funcs {
		c := &p.funcs[i]
		start := make([]int32, len(c.fn.Blocks))
		n := 0
		for bi, b := range c.fn.Blocks {
			start[bi] = int32(n)
			n += len(b.Instrs)
		}
		target := func(b int) int32 {
			if b < 0 || b >= len(start) {
				return -1 // invalid module: fails when executed
			}
			return start[b]
		}
		c.ins = make([]cinstr, 0, n)
		for _, b := range c.fn.Blocks {
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				ci := cinstr{
					op: in.Op, w: in.W, nb: uint8(in.W.Bytes()), sh: uint8(64 - in.W),
					cyc: uint16(opCycles(in.Op)), dst: int32(in.Dst),
					in: in,
				}
				ci.a, ci.aReg = operand(in.A)
				ci.b, ci.bReg = operand(in.B)
				if in.Op >= ir.OpConst && in.Op <= ir.OpStore && !validWidth(in.W) {
					// Only validated widths take the hot loop;
					// step keeps the reference semantics of any
					// other.
					ci.op = opStepOnly
				}
				switch in.Op {
				case ir.OpConst:
					ci.a, ci.aReg = in.A.Imm&ci.mask(), false
				case ir.OpGlobal:
					ci.a, ci.aReg = PackAddr(GlobalObject(int(in.A.Imm)), 0), false
				case ir.OpFrame:
					ci.a, ci.aReg = uint64(uint32(in.A.Imm)), false
				case ir.OpFuncAddr:
					ci.a = uint64(int64(mod.FuncIndex(in.Tag)))
				case ir.OpBr:
					ci.t1 = target(in.Blk)
				case ir.OpCondBr:
					ci.t1 = target(in.Blk)
					ci.b, ci.bReg = uint64(int64(target(in.Blk2))), false
				case ir.OpCall, ir.OpSpawn:
					// An unknown callee (an unvalidated module)
					// fails when executed.
					ci.b, ci.bReg = uint64(int64(mod.FuncIndex(in.Tag))), false
				}
				c.ins = append(c.ins, ci)
			}
		}
	}
	return p
}

// opStepOnly marks an instruction the hot loop must hand to step.
const opStepOnly = ir.Op(0xff)

func validWidth(w ir.Width) bool {
	switch w {
	case ir.W8, ir.W16, ir.W32, ir.W64:
		return true
	}
	return false
}

func operand(a ir.Arg) (uint64, bool) {
	if a.K == ir.ArgReg {
		return uint64(a.Reg), true
	}
	return a.Imm, false
}
