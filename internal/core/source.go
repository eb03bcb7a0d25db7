package core

import (
	"fmt"
	"time"

	"execrecon/internal/ir"
	"execrecon/internal/pt"
	"execrecon/internal/vm"
)

// Occurrence is one delivered failure reoccurrence: the decoded trace
// (nil when tracing was deferred or disabled for this occurrence),
// the run outcome, and the scheduler seed of the failing run. The
// seed is what the loop replays when verifying a generated test case,
// so that multithreaded failures verify under the interleaving that
// produced them.
//
// Trace and Events are alternative trace carriers. Trace is the
// in-memory form (every event materialized). Events is a streaming
// source — e.g. a tracestore reader that delta-reconstructs and
// decodes an archived blob incrementally — consumed once by the
// pipeline's symbolic executor without ever holding the full event
// slice. When both are set, Trace wins.
type Occurrence struct {
	Trace  *pt.Trace
	Events pt.EventSource
	Result *vm.Result
	Seed   int64
	// Decode is the time the source spent decoding Trace, zero when
	// it decoded none. Reproduce reports it as the decode stage.
	Decode time.Duration
}

// traced reports whether the occurrence carries trace data in either
// form.
func (o *Occurrence) traced() bool { return o.Trace != nil || o.Events != nil }

// SourceRequest describes what the loop needs next from a
// reoccurrence source: a failure matching Signature (nil until the
// first occurrence pins it), executed on the currently Deployed
// (possibly instrumented) module, with or without tracing.
type SourceRequest struct {
	// Deployed is the module production must run — the pristine
	// program on the first iteration, the ptwrite-instrumented one
	// after key data value selection.
	Deployed *ir.Module
	// Entry is the entry function (always set by the loop).
	Entry string
	// Traced selects whether the occurrence must carry a decoded
	// trace. False during the deferred-tracing phase (§3.1).
	Traced bool
	// Signature filters reoccurrences; nil accepts any failure.
	Signature *vm.Failure
	// MaxRuns bounds production runs awaited for this occurrence.
	MaxRuns int
	// RingSize is the trace buffer capacity to record with.
	RingSize int
}

// ReoccurrenceSource delivers failure reoccurrences to the ER loop.
// It is the seam between the analysis pipeline and however failures
// actually reoccur: the in-process workload replay of the single-app
// path (GenSource wrapping a WorkloadGen), or a fleet triage bucket
// fed by production machines shipping trace blobs (internal/fleet).
type ReoccurrenceSource interface {
	// Next blocks until the failure reoccurs under req.Deployed and
	// returns the occurrence. Implementations must honor
	// req.Signature (when non-nil, only matching failures are
	// delivered) and req.Traced (when true, Occurrence.Trace must be
	// a complete decoded trace).
	Next(req SourceRequest) (*Occurrence, error)
}

// GenSource adapts a WorkloadGen into a ReoccurrenceSource by running
// production workloads in-process until the failure reoccurs — the
// original single-app reoccurrence model.
type GenSource struct {
	Gen WorkloadGen

	runIdx int
}

// Next implements ReoccurrenceSource.
func (g *GenSource) Next(req SourceRequest) (*Occurrence, error) {
	if g.Gen == nil {
		return nil, fmt.Errorf("core: GenSource has no workload generator")
	}
	maxRuns := req.MaxRuns
	if maxRuns <= 0 {
		maxRuns = 1000
	}
	// One ring serves every try: a non-matching run's trace is simply
	// rewound, and a matching one is copied out (Decode / AppendRing
	// go through Ring.Bytes) before the ring could be reused.
	var ring *pt.Ring
	for tries := 0; tries < maxRuns; tries++ {
		w, seed := g.Gen.Run(g.runIdx)
		g.runIdx++
		if !req.Traced {
			res := vm.New(req.Deployed, vm.Config{Input: w, Seed: seed}).Run(req.Entry)
			if res.Failure == nil {
				continue
			}
			if req.Signature != nil && !res.Failure.SameSignature(req.Signature) {
				continue
			}
			return &Occurrence{Result: res, Seed: seed}, nil
		}
		if ring == nil {
			ring = pt.NewRing(req.RingSize)
		} else {
			ring.Reset()
		}
		enc := pt.NewEncoder(ring)
		res := vm.New(req.Deployed, vm.Config{Input: w, Tracer: enc, Seed: seed}).Run(req.Entry)
		if res.Failure == nil {
			continue
		}
		if req.Signature != nil && !res.Failure.SameSignature(req.Signature) {
			continue // a different bug; keep waiting for ours
		}
		enc.Finish()
		decodeStart := time.Now()
		trace, err := pt.Decode(ring)
		decode := time.Since(decodeStart)
		if err != nil {
			return nil, fmt.Errorf("core: trace decode: %w", err)
		}
		if trace.Truncated {
			return nil, fmt.Errorf("core: trace ring overflowed (%d bytes lost); increase RingSize", trace.LostBytes)
		}
		return &Occurrence{Trace: trace, Result: res, Seed: seed, Decode: decode}, nil
	}
	return nil, fmt.Errorf("core: failure did not reoccur within %d runs", maxRuns)
}

// Next implements ReoccurrenceSource directly on FixedWorkload, so
// the simplest reoccurrence model plugs into Config.Source without an
// adapter.
func (f *FixedWorkload) Next(req SourceRequest) (*Occurrence, error) {
	return (&GenSource{Gen: f}).Next(req)
}

var (
	_ ReoccurrenceSource = (*GenSource)(nil)
	_ ReoccurrenceSource = (*FixedWorkload)(nil)
)
