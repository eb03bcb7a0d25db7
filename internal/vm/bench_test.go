package vm_test

import (
	"testing"

	"execrecon/internal/apps"
	"execrecon/internal/ir"
	"execrecon/internal/minc"
	"execrecon/internal/vm"
)

// BenchmarkVMBenign measures the interpreter on production traffic: one
// op runs every Table 1 app's benign workload once, untraced (run i
// uses benign input i%12 under scheduler seed 100+i%3). It reports the
// interpreter's cost per executed instruction.
func BenchmarkVMBenign(b *testing.B) {
	type job struct {
		mod  *ir.Module
		ins  [12]*vm.Workload
		name string
	}
	var jobs []job
	for _, a := range apps.All() {
		mod, err := a.Module()
		if err != nil {
			b.Fatal(err)
		}
		j := job{mod: mod, name: a.Name}
		for i := range j.ins {
			j.ins[i] = a.Benign(i)
		}
		jobs = append(jobs, j)
	}
	var instrs int64
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		i := n % 12
		for _, j := range jobs {
			w := j.ins[i]
			w.Reset()
			res := vm.New(j.mod, vm.Config{Input: w, Seed: int64(100 + i%3)}).Run("main")
			if res.Failure != nil {
				b.Fatalf("%s benign %d: %v", j.name, i, res.Failure)
			}
			instrs += res.Stats.Instrs
		}
	}
	b.StopTimer()
	if instrs > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
		b.ReportMetric(float64(instrs)/float64(b.N), "instrs/op")
	}
}

// TestVMCallAllocs checks that calls allocate nothing in steady state:
// a run making 10,000 calls allocates no more than a run making 100,
// and little in absolute terms. Calls to a function with a frame-local
// array reuse the frame's buffer too; only the table of object headers
// grows, by doubling, since every activation gets a fresh object ID.
func TestVMCallAllocs(t *testing.T) {
	const src = `
func leaf(long x, long y) long { return x * 3 + y; }
func local(long x) long {
	long buf[4];
	buf[x & 3] = x;
	return buf[x & 3] + 1;
}
func main() int {
	long n = input64("n");
	long framed = input64("framed");
	long acc = 0;
	for (long i = 0; i < n; i = i + 1) {
		if (framed) {
			acc = acc + local(i);
		} else {
			acc = acc + leaf(i, acc);
		}
	}
	output(acc);
	return 0;
}`
	mod, err := minc.Compile("calls", src)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(calls, framed uint64) float64 {
		w := vm.NewWorkload().Add("n", calls).Add("framed", framed)
		return testing.AllocsPerRun(5, func() {
			w.Reset()
			res := vm.New(mod, vm.Config{Input: w}).Run("main")
			if res.Failure != nil {
				t.Fatal(res.Failure)
			}
		})
	}
	small, large := allocs(100, 0), allocs(10_000, 0)
	t.Logf("register-only callee: %.0f allocations for 100 calls, %.0f for 10,000", small, large)
	if large > small {
		t.Errorf("allocations grow with calls: %.0f for 100 calls, %.0f for 10,000", small, large)
	}
	if large > 32 {
		t.Errorf("%.0f allocations for a 10,000-call run, want at most 32", large)
	}
	small, large = allocs(100, 1), allocs(10_000, 1)
	t.Logf("framed callee: %.0f allocations for 100 calls, %.0f for 10,000", small, large)
	if large > small+16 {
		t.Errorf("framed calls allocate: %.0f for 100 calls, %.0f for 10,000", small, large)
	}
}

// TestWorkloadResetAllocs checks that replaying a workload allocates
// nothing once each stream has been read: Reset rewinds the read
// cursors in place, and Next reads through them.
func TestWorkloadResetAllocs(t *testing.T) {
	w := vm.NewWorkload().Add("req", 1, 2, 3).Add("arg", 7).Add("empty")
	drain := func() {
		w.Reset()
		for _, tag := range []string{"req", "arg", "empty", "missing"} {
			want := w.Streams[tag]
			for i := 0; ; i++ {
				v, ok := w.Next(tag, 32)
				if !ok {
					if i != len(want) {
						t.Fatalf("stream %s ended after %d of %d values", tag, i, len(want))
					}
					break
				}
				if v != want[i] {
					t.Fatalf("stream %s value %d = %d, want %d", tag, i, v, want[i])
				}
			}
		}
	}
	drain()
	if n := testing.AllocsPerRun(100, drain); n != 0 {
		t.Errorf("Reset plus a full read allocates %.1f times, want 0", n)
	}
}
