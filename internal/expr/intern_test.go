package expr

import (
	"fmt"
	"runtime"
	"testing"
)

// TestInternAllocs pins the intern table's allocation behaviour:
// looking up a node that already exists allocates nothing, and a new
// node costs exactly one allocation, its argument array included (the
// table's occasional growth is amortized over many nodes).
func TestInternAllocs(t *testing.T) {
	b := NewBuilder()
	x, y := b.Var("x", 32), b.Var("y", 32)
	mem := b.ArrayVar("mem", 32, 8)
	hit := func() {
		b.Const(7, 32)
		b.Var("x", 32)
		b.Add(x, y)
		b.Eq(x, b.Const(3, 32))
		b.ZExt(b.Extract(x, 8, 8), 32)
		b.Store(mem, x, b.Extract(y, 0, 8))
		b.Select(b.Store(mem, x, b.Extract(y, 0, 8)), y)
	}
	hit()
	if n := testing.AllocsPerRun(100, hit); n != 0 {
		t.Errorf("re-interning existing nodes allocates %v times, want 0", n)
	}

	const runs = 1000
	vars := make([]*Expr, runs+1)
	for i := range vars {
		vars[i] = b.Var(fmt.Sprintf("v%d", i), 32)
	}
	for _, tc := range []struct {
		name string
		mk   func(i int) *Expr
	}{
		{"const", func(i int) *Expr { return b.Const(uint64(1000+i), 32) }},
		{"zext", func(i int) *Expr { return b.ZExt(vars[i], 64) }},
		{"add", func(i int) *Expr { return b.Add(x, vars[i]) }},
		{"store", func(i int) *Expr { return b.Store(mem, vars[i], b.Extract(y, 0, 8)) }},
	} {
		i, before := 0, b.NumNodes()
		n := testing.AllocsPerRun(runs, func() { tc.mk(i); i++ })
		if created := b.NumNodes() - before; created != runs+1 {
			t.Fatalf("%s: %d nodes created, want %d new ones", tc.name, created, runs+1)
		}
		if n != 1 {
			t.Errorf("%s: a new node allocates %v times, want 1", tc.name, n)
		}
	}
}

// buildSymexDAG builds what shepherded symbolic execution asks the
// builder for: n 32-bit values, each the zero-extended input plus a
// constant, stored byte by byte (Extract) into a growing Store chain at
// a symbolic base address, read back through the chain and compared
// against a constant. It returns the number of builder calls made.
func buildSymexDAG(b *Builder, inputs []string, n int) int {
	calls := 0
	mem := b.ArrayVar("mem", 32, 8)
	base := b.Var("base", 32)
	calls += 2
	for i := 0; i < n; i++ {
		addr := b.Add(base, b.Const(uint64(4*i), 32))
		val := b.Add(b.ZExt(b.Var(inputs[i%len(inputs)], 8), 32), b.Const(uint64(i), 32))
		calls += 7
		for k := uint(0); k < 4; k++ {
			mem = b.Store(mem, b.Add(addr, b.Const(uint64(k), 32)), b.Extract(val, 8*k, 8))
			calls += 4
		}
		rd := b.ZExt(b.Select(mem, b.Add(base, b.Var("idx", 32))), 32)
		b.Eq(rd, b.Const(uint64(i&0xff), 32))
		calls += 6
	}
	return calls
}

// BenchmarkIntern measures node interning on a symex-shaped DAG of
// constants, ZExt/Extract, Store chains and Eq, from an empty builder.
// It reports the cost per builder call (ns/node) and the allocations
// per created node (allocs/node).
func BenchmarkIntern(b *testing.B) {
	inputs := []string{"in0", "in1", "in2", "in3", "in4", "in5", "in6", "in7"}
	const n = 256
	var calls, created int
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eb := NewBuilder()
		calls += buildSymexDAG(eb, inputs, n)
		created += eb.NumNodes()
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(calls), "ns/node")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(created), "allocs/node")
}
