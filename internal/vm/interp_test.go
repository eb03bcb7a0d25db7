package vm_test

import (
	"reflect"
	"testing"
	"time"

	"execrecon/internal/apps"
	"execrecon/internal/corpus"
	"execrecon/internal/ir"
	"execrecon/internal/keyselect"
	"execrecon/internal/minc"
	"execrecon/internal/pt"
	"execrecon/internal/symex"
	"execrecon/internal/vm"
)

// TestHangDetectionBranchOnlyLoop runs `b0: br b0`, a loop with no
// conditional branch, return or yield, so its one chunk never reaches a
// point where a chunk may end. The step budget must still stop it.
func TestHangDetectionBranchOnlyLoop(t *testing.T) {
	f := &ir.Func{Name: "main", NumRegs: 1}
	f.Blocks = []*ir.Block{{Index: 0, Instrs: []ir.Instr{{Op: ir.OpBr, Blk: 0, ID: f.NewInstrID()}}}}
	mod := &ir.Module{Name: "hang"}
	mod.AddFunc(f)
	if err := mod.Validate(); err != nil {
		t.Fatal(err)
	}
	done := make(chan *vm.Result, 1)
	go func() { done <- vm.New(mod, vm.Config{MaxSteps: 10000}).Run("main") }()
	select {
	case res := <-done:
		if res.Failure == nil || res.Failure.Kind != vm.FailDeadlock {
			t.Fatalf("failure = %v, want step budget exhausted", res.Failure)
		}
		if res.Stats.Instrs != 10001 {
			t.Errorf("stopped after %d instructions, want 10001", res.Stats.Instrs)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("branch-only loop not stopped by MaxSteps")
	}
}

// TestCompiledCacheInvalidation checks that a module's cached
// pre-decoded code never outlives a change to the module: AddFunc drops
// it, and an instrumented clone runs its own code.
func TestCompiledCacheInvalidation(t *testing.T) {
	mod, err := minc.Compile("t", `func main() int { output(input32("x")); return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	in := func() *vm.Workload { return vm.NewWorkload().Add("x", 5) }
	if res := vm.New(mod, vm.Config{Input: in()}).Run("main"); res.Failure != nil || res.Output[0] != 5 {
		t.Fatalf("main: %v %v", res.Failure, res.Output)
	}

	// AddFunc after a run: the new function is callable.
	g := &ir.Func{Name: "seven", NumRegs: 1}
	g.Blocks = []*ir.Block{{Index: 0, Instrs: []ir.Instr{
		{Op: ir.OpConst, W: ir.W64, Dst: 0, A: ir.Imm(7), ID: g.NewInstrID()},
		{Op: ir.OpOutput, W: ir.W64, A: ir.Reg(0), ID: g.NewInstrID()},
		{Op: ir.OpRet, A: ir.Reg(0), ID: g.NewInstrID()},
	}}}
	mod.AddFunc(g)
	if err := mod.Validate(); err != nil {
		t.Fatal(err)
	}
	if res := vm.New(mod, vm.Config{}).Run("seven"); res.Failure != nil || !reflect.DeepEqual(res.Output, []uint64{7}) {
		t.Fatalf("seven after AddFunc: %v %v", res.Failure, res.Output)
	}

	// An instrumented clone of a module that has run executes its
	// own ptwrite sites.
	var site symex.SiteKey
	main := mod.FuncByName("main")
	for _, b := range main.Blocks {
		for _, ins := range b.Instrs {
			if ins.Op == ir.OpInput && site.Func == "" {
				site = symex.SiteKey{Func: "main", InstrID: ins.ID}
			}
		}
	}
	inst, err := keyselect.Instrument(mod, []symex.SiteKey{site})
	if err != nil {
		t.Fatal(err)
	}
	traced := func(m *ir.Module) *pt.Trace {
		ring := pt.NewRing(0)
		enc := pt.NewEncoder(ring)
		res := vm.New(m, vm.Config{Input: in(), Tracer: enc}).Run("main")
		enc.Finish()
		if res.Failure != nil {
			t.Fatal(res.Failure)
		}
		tr, err := pt.Decode(ring)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	ptws := func(tr *pt.Trace) (n int) {
		for _, ev := range tr.Events {
			if ev.Kind == pt.EvPTW {
				n++
			}
		}
		return n
	}
	if n := ptws(traced(mod)); n != 0 {
		t.Errorf("original module recorded %d ptwrites, want 0", n)
	}
	if n := ptws(traced(inst)); n != 1 {
		t.Errorf("instrumented clone recorded %d ptwrites, want 1", n)
	}
}

// TestCompiledCacheConcurrentRuns starts several machines on a module
// that has never run, so their first runs race to compile and publish
// its pre-decoded code; every run must see one consistent program.
func TestCompiledCacheConcurrentRuns(t *testing.T) {
	a := apps.All()[0]
	mod, err := minc.Compile(a.Name, a.Src)
	if err != nil {
		t.Fatal(err)
	}
	want := vm.New(mod.Clone(), vm.Config{Input: a.Benign(0), Seed: 100}).Run("main")
	const n = 4
	results := make(chan *vm.Result, n)
	for i := 0; i < n; i++ {
		w := a.Benign(0)
		go func() { results <- vm.New(mod, vm.Config{Input: w, Seed: 100}).Run("main") }()
	}
	for i := 0; i < n; i++ {
		if got := <-results; !reflect.DeepEqual(got, want) {
			t.Errorf("concurrent first run differs: %+v, want %+v", got.Stats, want.Stats)
		}
	}
}

// fuzzInput feeds every input stream from one deterministic generator
// and runs dry after a fixed number of values.
type fuzzInput struct {
	state uint64
	left  int
}

func (in *fuzzInput) Next(_ string, _ ir.Width) (uint64, bool) {
	if in.left <= 0 {
		return 0, false
	}
	in.left--
	in.state ^= in.state << 13
	in.state ^= in.state >> 7
	in.state ^= in.state << 17
	if in.state&3 == 0 {
		return in.state, true // occasionally a wide value
	}
	return in.state % 64, true
}

// nopRegWrite observes register writes without effect; setting it makes
// the interpreter execute every instruction through its reference step.
func nopRegWrite(string, int32, int, uint64) {}

// FuzzMincRun compiles a minc program and runs it twice, on the
// interpreter's hot loop and with every instruction through its
// reference step, and requires the two runs to agree on everything
// observable: the trace bytes, Stats, output, failure and core dump.
func FuzzMincRun(f *testing.F) {
	for _, a := range apps.All() {
		f.Add(a.Src, uint64(a.Seed), uint8(8))
	}
	scs, _, err := corpus.Generate(corpus.GenConfig{N: len(corpus.Patterns()), Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	for _, sc := range scs {
		f.Add(sc.Src, uint64(sc.SchedSeed), uint8(32))
	}
	f.Fuzz(func(t *testing.T, src string, seed uint64, chunk uint8) {
		mod, err := minc.Compile("fuzz", src)
		if err != nil {
			return
		}
		if err := mod.Validate(); err != nil {
			t.Fatalf("compiled module fails validation: %v", err)
		}
		if mod.FuncByName("main") == nil {
			return
		}
		run := func(slow bool) (*pt.Ring, *vm.Result) {
			ring := pt.NewRing(0)
			enc := pt.NewEncoder(ring)
			cfg := vm.Config{
				Input:     &fuzzInput{state: seed | 1, left: 512},
				Tracer:    enc,
				Seed:      int64(seed),
				MaxSteps:  300_000,
				ChunkSize: int(chunk) + 1,
			}
			if slow {
				cfg.OnRegWrite = nopRegWrite
			}
			res := vm.New(mod, cfg).Run("main")
			enc.Finish()
			return ring, res
		}
		fr, fres := run(false)
		sr, sres := run(true)
		if fres.Stats != sres.Stats {
			t.Fatalf("stats differ:\nfast %+v\nstep %+v", fres.Stats, sres.Stats)
		}
		if !reflect.DeepEqual(fres.Failure, sres.Failure) {
			t.Fatalf("failures differ:\nfast %v\nstep %v", fres.Failure, sres.Failure)
		}
		if !reflect.DeepEqual(fres.Output, sres.Output) || !reflect.DeepEqual(fres.Dump, sres.Dump) {
			t.Fatalf("output or core dump differ")
		}
		if resultDigest(fr, fres) != resultDigest(sr, sres) {
			t.Fatalf("trace bytes differ")
		}
	})
}
