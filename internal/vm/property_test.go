package vm_test

import (
	"testing"
	"testing/quick"

	"execrecon/internal/ir"
	"execrecon/internal/minc"
	"execrecon/internal/vm"
)

func TestQuickAddrPacking(t *testing.T) {
	f := func(obj, off uint32) bool {
		o, f := vm.SplitAddr(vm.PackAddr(obj, off))
		return o == obj && f == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestScheduleDeterminism: with identical seed and inputs, even a racy
// multithreaded program produces bit-identical results — the property
// ER's trace replay and rr's schedule replay both rest on.
func TestScheduleDeterminism(t *testing.T) {
	src := `
int shared = 0;
func worker(int n) {
	for (int i = 0; i < n; i = i + 1) {
		int v = shared;
		yield();
		shared = v + 1;
	}
}
func main() int {
	long t1 = spawn worker(40);
	long t2 = spawn worker(40);
	join(t1);
	join(t2);
	output(shared);
	return 0;
}`
	mod, err := minc.Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) uint64 {
		res := vm.New(mod, vm.Config{Seed: seed, ChunkSize: 17}).Run("main")
		if res.Failure != nil {
			t.Fatalf("failure: %v", res.Failure)
		}
		return res.Output[0]
	}
	var distinct int
	base := run(1)
	for seed := int64(1); seed <= 8; seed++ {
		a, b := run(seed), run(seed)
		if a != b {
			t.Fatalf("seed %d nondeterministic: %d vs %d", seed, a, b)
		}
		if a != base {
			distinct++
		}
	}
	if distinct == 0 {
		t.Log("all seeds coincided (possible but worth noting)")
	}
}

// TestQuickArithAgainstGo drives the VM's binary operators with random
// operands and compares against native Go arithmetic at 32 bits.
func TestQuickArithAgainstGo(t *testing.T) {
	mod, err := minc.Compile("t", `
func main() int {
	int a = input32("v");
	int b = input32("v");
	output((uint)(a + b));
	output((uint)(a - b));
	output((uint)(a * b));
	output((uint)(a & b));
	output((uint)(a | b));
	output((uint)(a ^ b));
	output((uint)(a << (b & 31)));
	output((uint)((uint)a >> (b & 31)));
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b int32) bool {
		w := vm.NewWorkload().Add("v", uint64(uint32(a)), uint64(uint32(b)))
		res := vm.New(mod, vm.Config{Input: w}).Run("main")
		if res.Failure != nil {
			return false
		}
		sh := uint32(b) & 31
		want := []uint32{
			uint32(a + b), uint32(a - b), uint32(a * b),
			uint32(a & b), uint32(a | b), uint32(a ^ b),
			uint32(a) << sh, uint32(a) >> sh,
		}
		for i, wv := range want {
			if uint32(res.Output[i]) != wv {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestWorkloadCloneIsolation: clones rewind and do not share position
// state.
func TestWorkloadCloneIsolation(t *testing.T) {
	w := vm.NewWorkload().Add("a", 1, 2, 3)
	if v, _ := w.Next("a", 32); v != 1 {
		t.Fatal("first next")
	}
	c := w.Clone()
	if v, _ := c.Next("a", 32); v != 1 {
		t.Error("clone must rewind")
	}
	if v, _ := w.Next("a", 32); v != 2 {
		t.Error("original position disturbed by clone")
	}
	c.Streams["a"][0] = 99
	w.Reset()
	if v, _ := w.Next("a", 32); v != 1 {
		t.Error("clone shares backing storage")
	}
}

// TestTracedRunMatchesUntraced: attaching the tracer must not change
// program semantics.
func TestTracedRunMatchesUntraced(t *testing.T) {
	src := `
func main() int {
	int acc = 0;
	for (int i = 0; i < 200; i = i + 1) {
		if (i % 3 == 0) { acc = acc + i; } else { acc = acc ^ i; }
	}
	output(acc);
	return 0;
}`
	mod, err := minc.Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	plain := vm.New(mod, vm.Config{Seed: 4}).Run("main")
	traced := vm.New(mod, vm.Config{Seed: 4, Tracer: nullTracer{}}).Run("main")
	if plain.Output[0] != traced.Output[0] {
		t.Errorf("tracing changed semantics: %d vs %d", plain.Output[0], traced.Output[0])
	}
	if plain.Stats.Instrs != traced.Stats.Instrs {
		t.Errorf("tracing changed instruction count: %d vs %d",
			plain.Stats.Instrs, traced.Stats.Instrs)
	}
}

type nullTracer struct{}

func (nullTracer) TNT(bool)                    {}
func (nullTracer) TIP(uint64)                  {}
func (nullTracer) PTW(int32, ir.Width, uint64) {}
func (nullTracer) Chunk(int, uint64)           {}
func (nullTracer) PGD(uint64)                  {}

// TestWorkloadAddAfterNext: values added to a stream already being
// read are read in turn, and Reset picks up streams edited directly.
func TestWorkloadAddAfterNext(t *testing.T) {
	w := vm.NewWorkload().Add("a", 1)
	if v, ok := w.Next("a", 32); !ok || v != 1 {
		t.Fatal("first next")
	}
	if _, ok := w.Next("a", 32); ok {
		t.Fatal("stream not exhausted")
	}
	w.Add("a", 2)
	if v, ok := w.Next("a", 32); !ok || v != 2 {
		t.Errorf("value added after exhaustion not read: %d %v", v, ok)
	}
	w.Streams["a"] = []uint64{5, 6}
	w.Reset()
	if v, _ := w.Next("a", 32); v != 5 {
		t.Errorf("Reset did not re-read the edited stream: got %d", v)
	}
}
