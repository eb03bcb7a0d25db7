package solver

import (
	"sync"
	"sync/atomic"
	"time"
)

// budgetNow is the wall clock used to convert a caller-supplied
// Deadline into a monotonic duration when the budget arms. It is a
// package variable so tests can simulate NTP clock steps; the solve
// itself is metered purely against the monotonic clock and never
// consults budgetNow again after arming.
var budgetNow = time.Now

// Cancel is a goroutine-safe cancellation flag. Cancels chain: a
// Cancel created with a parent observes the parent's cancellation as
// its own, so a flag scoped to one stage also trips when the
// pipeline-wide abort above it does.
//
// The zero value is usable; a nil *Cancel never reports canceled.
type Cancel struct {
	flag   atomic.Bool
	parent *Cancel
}

// NewCancel returns a cancellation flag chained under parent (which
// may be nil).
func NewCancel(parent *Cancel) *Cancel { return &Cancel{parent: parent} }

// Cancel trips the flag. Safe for concurrent use; idempotent.
func (c *Cancel) Cancel() {
	if c != nil {
		c.flag.Store(true)
	}
}

// Canceled reports whether this flag or any ancestor has been tripped.
func (c *Cancel) Canceled() bool {
	for ; c != nil; c = c.parent {
		if c.flag.Load() {
			return true
		}
	}
	return false
}

// Budget meters solver work. Work units are abstract "steps": one SAT
// decision is 1, one conflict 50, one Tseitin gate 1, one node created
// during array elimination 1. A Budget with zero MaxSteps, zero
// Timeout, and zero Deadline is unlimited.
//
// The paper configures a 30-second solver timeout (§4); callers of
// this package express that timeout as a Timeout (or legacy Deadline),
// with MaxSteps as a determinism-friendly stand-in used throughout the
// test suite and benchmark harness.
//
// A Budget is safe to share across goroutines: concurrent spends are
// accounted with atomics, and Stop gives callers a prompt cancellation
// path that is observed on every spend rather than only at the
// deadline cadence.
type Budget struct {
	MaxSteps int64
	// Timeout bounds the solve to a monotonic duration measured from
	// the first spend. Preferred over Deadline: it is immune to wall
	// clock steps by construction.
	Timeout time.Duration
	// Deadline is the legacy wall-clock bound. It is converted to a
	// monotonic duration exactly once, when the budget arms on its
	// first spend; NTP steps after that point can neither extend nor
	// starve the solve. Ignored when Timeout is set.
	Deadline time.Time
	// Stop, when non-nil, is checked on every spend, so cancellation
	// lands within one solver step even when the deadline cadence
	// would not be reached for seconds.
	Stop *Cancel

	used      atomic.Int64
	lastCheck atomic.Int64
	checked   atomic.Bool
	exhausted atomic.Bool
	canceled  atomic.Bool

	armOnce sync.Once
	start   time.Time     // monotonic anchor captured at first spend
	limit   time.Duration // 0 = no time bound; <0 = expired at arm time
}

// deadlineCheckEvery is the step cadence between monotonic-clock
// checks after the first one. It is deliberately much smaller than the
// old 4096-step cadence: a Solve whose individual steps are expensive
// (small clause counts, heavy stages) accrues steps slowly, and with a
// coarse cadence could overrun Options.Timeout by an unbounded factor
// before the clock was ever consulted.
const deadlineCheckEvery = 256

// NewBudget returns a budget limited to maxSteps (0 = unlimited).
func NewBudget(maxSteps int64) *Budget { return &Budget{MaxSteps: maxSteps} }

// arm captures the monotonic start point and converts the wall-clock
// Deadline, if any, into a duration. Exactly one wall-clock read
// happens per Budget; everything after compares monotonic elapsed
// time against the armed limit.
func (b *Budget) arm() {
	b.armOnce.Do(func() {
		b.start = time.Now()
		switch {
		case b.Timeout > 0:
			b.limit = b.Timeout
		case !b.Deadline.IsZero():
			d := b.Deadline.Sub(budgetNow())
			if d <= 0 {
				d = -1 // sentinel: expired before the first spend
			}
			b.limit = d
		}
	})
}

// spend consumes n steps and reports whether the budget still holds.
// Cancellation is observed on every call; the clock is consulted on
// the very first spend and then on a bounded step cadence, so even
// tiny-step workloads observe an already-expired deadline immediately
// instead of running to completion unmetered.
func (b *Budget) spend(n int64) bool {
	if b == nil {
		return true
	}
	if b.Stop.Canceled() {
		b.canceled.Store(true)
		b.exhausted.Store(true)
		return false
	}
	if b.exhausted.Load() {
		return false
	}
	used := b.used.Add(n)
	if b.MaxSteps > 0 && used > b.MaxSteps {
		b.exhausted.Store(true)
		return false
	}
	b.arm()
	if b.limit == 0 {
		return true
	}
	if b.limit < 0 {
		b.exhausted.Store(true)
		return false
	}
	if !b.checked.Load() || used-b.lastCheck.Load() >= deadlineCheckEvery {
		b.checked.Store(true)
		b.lastCheck.Store(used)
		if time.Since(b.start) > b.limit {
			b.exhausted.Store(true)
			return false
		}
	}
	return true
}

// Used returns the steps consumed so far.
func (b *Budget) Used() int64 { return b.used.Load() }

// Exhausted reports whether the budget was exceeded (or canceled).
func (b *Budget) Exhausted() bool { return b.exhausted.Load() }

// Canceled reports whether the budget stopped because its Stop flag
// tripped, as opposed to running out of steps or time.
func (b *Budget) Canceled() bool { return b.canceled.Load() }
