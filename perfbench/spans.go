package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"execrecon/internal/telemetry"
)

// spanRec is one finished span. Spans recorded by the benchmark wrap
// its calls into each layer; spans recorded by the program itself
// (core's stage spans) are copied in from its tracer after each pass.
type spanRec struct {
	Name    string  `json:"name"`
	Bug     string  `json:"bug,omitempty"`
	Parent  int     `json:"parent"` // index of the parent span, -1 for a root
	Pass    int     `json:"pass"`
	StartNS int64   `json:"start_ns"` // since the run began
	DurNS   int64   `json:"dur_ns"`
	AllocMB float64 `json:"alloc_mb,omitempty"`
}

// spanLog keeps a run's spans in memory until the run ends.
type spanLog struct {
	t0   time.Time
	pass int
	recs []spanRec
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// openSpan is a span being timed.
type openSpan struct {
	log   *spanLog
	idx   int
	start time.Time
	rt    rtSample
	alloc float64 // set by end
}

// begin opens a span; parent is an index returned by an earlier begin,
// or -1.
func (l *spanLog) begin(name, bug string, parent int) *openSpan {
	l.recs = append(l.recs, spanRec{Name: name, Bug: bug, Parent: parent, Pass: l.pass})
	s := &openSpan{log: l, idx: len(l.recs) - 1, rt: readRuntime()}
	s.start = time.Now()
	return s
}

// end closes the span and returns its duration; s.alloc then holds
// the heap bytes (MiB) allocated while it was open.
func (s *openSpan) end() time.Duration {
	d := time.Since(s.start)
	s.alloc = allocSince(s.rt)
	r := &s.log.recs[s.idx]
	r.StartNS = s.start.Sub(s.log.t0).Nanoseconds()
	r.DurNS = d.Nanoseconds()
	r.AllocMB = s.alloc
	return d
}

// addTree copies a program span tree into the log.
func (l *spanLog) addTree(sn telemetry.SpanSnapshot, parent int) {
	l.recs = append(l.recs, spanRec{
		Name:    sn.Name,
		Parent:  parent,
		Pass:    l.pass,
		StartNS: sn.Start.Sub(l.t0).Nanoseconds(),
		DurNS:   sn.Duration.Nanoseconds(),
	})
	idx := len(l.recs) - 1
	for _, c := range sn.Children {
		l.addTree(c, idx)
	}
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range l.recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stageTimes sums the program's stage spans over one pass's trees.
// Core ends its "solve" span with the solver time metered inside
// shepherding rather than clocking it, so the interval it claims is not
// nested in the shepherd span's interval; self time is therefore a
// span's duration minus its children's durations.
type stageTimes struct {
	shepherdSelf, solve, keyselect, instrument, verify time.Duration
	reconstructions                                    []float64 // root durations, seconds
}

func (st *stageTimes) add(sn telemetry.SpanSnapshot) {
	var children time.Duration
	for _, c := range sn.Children {
		children += c.Duration
		st.add(c)
	}
	switch sn.Name {
	case "reconstruction":
		st.reconstructions = append(st.reconstructions, sn.Duration.Seconds())
	case "shepherd":
		if self := sn.Duration - children; self > 0 {
			st.shepherdSelf += self
		}
	case "solve":
		st.solve += sn.Duration
	case "keyselect":
		st.keyselect += sn.Duration
	case "instrument":
		st.instrument += sn.Duration
	case "verify":
		st.verify += sn.Duration
	}
}
