package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a settable test clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestSpanNesting(t *testing.T) {
	clk := newFakeClock()
	tr := NewTracer(8)
	tr.SetClock(clk.now)

	root := tr.Start("reconstruction", A("sig", "assert @main"))
	clk.advance(time.Millisecond)
	it := root.Child("iteration", A("occurrence", 1))
	clk.advance(2 * time.Millisecond)
	sh := it.Child("shepherd")
	clk.advance(5 * time.Millisecond)
	sh.SetAttr("status", "stalled")
	sh.End()
	it.Child("solve").EndAfter(3 * time.Millisecond)
	it.End()
	clk.advance(time.Millisecond)
	root.End()

	recent := tr.Recent()
	if len(recent) != 1 {
		t.Fatalf("recent = %d trees, want 1", len(recent))
	}
	sn := recent[0]
	if sn.Name != "reconstruction" || sn.Duration != 9*time.Millisecond {
		t.Fatalf("root = %q %v", sn.Name, sn.Duration)
	}
	if sn.Attrs["sig"] != "assert @main" {
		t.Fatalf("root attrs = %v", sn.Attrs)
	}
	if len(sn.Children) != 1 || sn.Children[0].Name != "iteration" {
		t.Fatalf("children = %+v", sn.Children)
	}
	itSn := sn.Children[0]
	if itSn.Duration != 7*time.Millisecond {
		t.Fatalf("iteration duration = %v, want 7ms", itSn.Duration)
	}
	if len(itSn.Children) != 2 {
		t.Fatalf("iteration children = %d, want 2", len(itSn.Children))
	}
	if itSn.Children[0].Attrs["status"] != "stalled" {
		t.Fatalf("shepherd attrs = %v", itSn.Children[0].Attrs)
	}
	if itSn.Children[1].Duration != 3*time.Millisecond {
		t.Fatalf("solve (EndAfter) duration = %v", itSn.Children[1].Duration)
	}
	if tr.Finished() != 1 {
		t.Fatalf("finished = %d", tr.Finished())
	}
}

// TestSpanMonotonicGuard is the satellite regression: span durations
// must never be negative or inflated by wall-clock steps. We simulate
// the worst case — a clock that runs backwards between start and end
// — and require a zero (not negative) duration; and EndAfter with a
// negative measured duration likewise clamps.
func TestSpanMonotonicGuard(t *testing.T) {
	clk := newFakeClock()
	tr := NewTracer(4)
	tr.SetClock(clk.now)

	s := tr.Start("backwards")
	clk.advance(-10 * time.Second) // wall clock stepped back
	s.End()
	sn := tr.Recent()[0]
	if sn.Duration != 0 {
		t.Fatalf("backwards clock: duration = %v, want 0 (clamped)", sn.Duration)
	}

	s2 := tr.Start("negative-endafter")
	s2.EndAfter(-time.Second)
	if got := tr.Recent()[1].Duration; got != 0 {
		t.Fatalf("EndAfter(-1s): duration = %v, want 0", got)
	}

	// Real clock: durations of spans that did work are strictly
	// positive (time.Now's monotonic reading cannot decrease), and a
	// span enclosing a child is at least as long as the child.
	real := NewTracer(4)
	root := real.Start("root")
	child := root.Child("child")
	for i := 0; i < 1000; i++ {
		_ = i * i
	}
	child.End()
	root.End()
	got := real.Recent()[0]
	if got.Duration < 0 || got.Children[0].Duration < 0 {
		t.Fatal("real-clock spans must never be negative")
	}
	if got.Duration < got.Children[0].Duration {
		t.Fatalf("parent %v shorter than child %v", got.Duration, got.Children[0].Duration)
	}
}

func TestTracerRingBound(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 10; i++ {
		tr.Start("s", A("i", i)).End()
	}
	recent := tr.Recent()
	if len(recent) != 3 {
		t.Fatalf("ring = %d, want 3", len(recent))
	}
	if recent[2].Attrs["i"] != "9" || recent[0].Attrs["i"] != "7" {
		t.Fatalf("ring holds wrong trees: %v", recent)
	}
	if tr.Finished() != 10 {
		t.Fatalf("finished = %d, want 10", tr.Finished())
	}
}

func TestNilTracerAndSpan(t *testing.T) {
	var tr *Tracer
	s := tr.Start("x")
	if s != nil {
		t.Fatal("nil tracer must start nil spans")
	}
	// All nil-span operations are no-ops.
	s.SetAttr("k", "v")
	c := s.Child("y")
	c.End()
	s.End()
	s.EndAfter(time.Second)
	if s.Duration() != 0 {
		t.Fatal("nil span duration must be 0")
	}
	if tr.Recent() != nil || tr.Finished() != 0 {
		t.Fatal("nil tracer must report nothing")
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	clk := newFakeClock()
	tr := NewTracer(4)
	tr.SetClock(clk.now)
	s := tr.Start("once")
	clk.advance(time.Second)
	s.End()
	clk.advance(time.Hour)
	s.End() // must not re-publish or change duration
	if n := len(tr.Recent()); n != 1 {
		t.Fatalf("double End published %d trees", n)
	}
	if d := tr.Recent()[0].Duration; d != time.Second {
		t.Fatalf("duration changed on second End: %v", d)
	}
}

// TestSpanChildDone checks that ChildDone places an already-timed
// stage where it ran: ending now, starting d earlier, and clamping a
// negative d to an empty span.
func TestSpanChildDone(t *testing.T) {
	clk := newFakeClock()
	tr := NewTracer(4)
	tr.SetClock(clk.now)
	root := tr.Start("root")
	clk.advance(10 * time.Second)
	root.ChildDone("stage", 3*time.Second)
	root.ChildDone("clamped", -time.Second)
	root.End()
	sn := tr.Recent()[0]
	stage, clamped := sn.Children[0], sn.Children[1]
	if want := sn.Start.Add(7 * time.Second); !stage.Start.Equal(want) || stage.Duration != 3*time.Second || stage.Open {
		t.Fatalf("stage = start %v dur %v open %v, want start %v dur 3s", stage.Start, stage.Duration, stage.Open, want)
	}
	if want := sn.Start.Add(10 * time.Second); !clamped.Start.Equal(want) || clamped.Duration != 0 {
		t.Fatalf("clamped = start %v dur %v, want start %v dur 0", clamped.Start, clamped.Duration, want)
	}
	var nilSpan *Span
	if nilSpan.ChildDone("x", time.Second) != nil {
		t.Fatal("ChildDone on a nil span must return nil")
	}
}

func TestWriteTree(t *testing.T) {
	clk := newFakeClock()
	tr := NewTracer(4)
	tr.SetClock(clk.now)
	root := tr.Start("reconstruction", A("sig", "oob @get"))
	it := root.Child("iteration", A("occurrence", 1))
	clk.advance(1500 * time.Microsecond)
	it.End()
	root.End()

	var b strings.Builder
	if err := WriteTree(&b, tr.Recent()[0]); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("tree lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "reconstruction 1.5ms") || !strings.Contains(lines[0], `sig="oob @get"`) {
		t.Fatalf("root line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  iteration 1.5ms") || !strings.Contains(lines[1], `occurrence="1"`) {
		t.Fatalf("child line = %q", lines[1])
	}
}
