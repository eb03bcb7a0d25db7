package core_test

import (
	"testing"

	"execrecon/internal/core"
	"execrecon/internal/symex"
	"execrecon/internal/telemetry"
)

// counterValue extracts the (single-series) counter value of a family.
func counterValue(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	fam, ok := reg.Family(name)
	if !ok {
		t.Fatalf("family %s not registered", name)
	}
	if len(fam.Series) != 1 {
		t.Fatalf("family %s has %d series, want 1", name, len(fam.Series))
	}
	return fam.Series[0].Value
}

// stageCount returns the observation count of the
// er_core_stage_seconds series with the given stage label.
func stageCount(t *testing.T, reg *telemetry.Registry, stage string) int64 {
	t.Helper()
	fam, ok := reg.Family("er_core_stage_seconds")
	if !ok {
		t.Fatalf("stage histogram family not registered")
	}
	for _, s := range fam.Series {
		for _, l := range s.Labels {
			if l.Name == "stage" && l.Value == stage {
				if s.Hist == nil {
					t.Fatalf("stage %s: no histogram snapshot", stage)
				}
				return s.Hist.Count
			}
		}
	}
	t.Fatalf("stage %s: series not found", stage)
	return 0
}

// TestPipelineTelemetry runs the iterative chain reproduction with a
// registry and tracer attached and checks that every stage reported:
// counters match the report, stage histograms carry one sample per
// stage execution, and the tracer retains one complete nested span
// tree for the session.
func TestPipelineTelemetry(t *testing.T) {
	mod := compile(t, chainSrc)
	reg := telemetry.New()
	tr := telemetry.NewTracer(4)
	rep, err := core.Reproduce(core.Config{
		Module:    mod,
		Gen:       &core.FixedWorkload{Workload: chainWorkload(), Seed: 1},
		Symex:     symex.Options{QueryBudget: 30_000},
		Telemetry: reg,
		Tracer:    tr,
	})
	if err != nil {
		t.Fatalf("reproduce: %v", err)
	}
	if !rep.Reproduced || !rep.Verified {
		t.Fatalf("report: %+v", rep)
	}
	iters := len(rep.Iterations)
	stalls := 0
	for _, it := range rep.Iterations {
		if it.Status == symex.StatusStalled {
			stalls++
		}
	}
	if stalls == 0 {
		t.Fatalf("expected at least one stalled iteration, got %d/%d", stalls, iters)
	}

	// Counters mirror the report exactly.
	checks := []struct {
		name string
		want float64
	}{
		{"er_core_occurrences_total", float64(rep.Occurrences)},
		{"er_core_iterations_total", float64(iters)},
		{"er_core_stalls_total", float64(stalls)},
		{"er_core_reproduced_total", 1},
		{"er_core_verified_total", 1},
	}
	for _, c := range checks {
		if got := counterValue(t, reg, c.name); got != c.want {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}
	var wantSites, wantBytes float64
	for _, it := range rep.Iterations {
		wantSites += float64(it.RecordingSites)
		wantBytes += float64(it.RecordingCost)
	}
	if got := counterValue(t, reg, "er_core_recording_sites_total"); got != wantSites {
		t.Errorf("recording sites = %v, want %v", got, wantSites)
	}
	if got := counterValue(t, reg, "er_core_recording_bytes_total"); got != wantBytes {
		t.Errorf("recording bytes = %v, want %v", got, wantBytes)
	}

	// Stage histograms: one sample per stage execution.
	wantStage := map[string]int64{
		"shepherd":   int64(iters),
		"solve":      int64(iters),
		"keyselect":  int64(stalls),
		"instrument": int64(stalls),
		"verify":     1,
		"wait":       int64(rep.Occurrences),
	}
	for stage, want := range wantStage {
		if got := stageCount(t, reg, stage); got != want {
			t.Errorf("stage %s count = %d, want %d", stage, got, want)
		}
	}

	// Symex/solver series registered through the threaded registry.
	for _, name := range []string{"er_symex_runs_total", "er_symex_instrs_total"} {
		if _, ok := reg.Family(name); !ok {
			t.Errorf("family %s not registered via pipeline threading", name)
		}
	}

	// The tracer retained exactly one finished root tree describing
	// the full session.
	if got := tr.Finished(); got != 1 {
		t.Fatalf("finished roots = %d, want 1", got)
	}
	roots := tr.Recent()
	if len(roots) != 1 {
		t.Fatalf("recent roots = %d, want 1", len(roots))
	}
	root := roots[0]
	if root.Name != "reconstruction" || root.Open {
		t.Fatalf("root = %q open=%v", root.Name, root.Open)
	}
	if root.Attrs["reproduced"] != "true" || root.Attrs["verified"] != "true" {
		t.Errorf("root attrs = %v", root.Attrs)
	}
	if root.Attrs["signature"] == "" {
		t.Errorf("root missing signature attr")
	}
	var nIter, nWait int
	var checkClosed func(s telemetry.SpanSnapshot)
	checkClosed = func(s telemetry.SpanSnapshot) {
		if s.Open {
			t.Errorf("span %s still open in finished tree", s.Name)
		}
		if s.Duration < 0 {
			t.Errorf("span %s has negative duration %v", s.Name, s.Duration)
		}
		for _, c := range s.Children {
			checkClosed(c)
		}
	}
	checkClosed(root)
	for _, c := range root.Children {
		switch c.Name {
		case "iteration":
			nIter++
			var hasShepherd, hasSolve bool
			for _, g := range c.Children {
				if g.Name == "shepherd" {
					hasShepherd = true
					for _, gg := range g.Children {
						if gg.Name == "solve" {
							hasSolve = true
							if gg.Attrs["verdict"] == "" {
								t.Errorf("solve span missing verdict attr")
							}
						}
					}
				}
			}
			if !hasShepherd || !hasSolve {
				t.Errorf("iteration span missing shepherd/solve children: %+v", c)
			}
		case "reoccurrence-wait":
			nWait++
		}
	}
	if nIter != iters {
		t.Errorf("iteration spans = %d, want %d", nIter, iters)
	}
	if nWait != rep.Occurrences {
		t.Errorf("wait spans = %d, want %d", nWait, rep.Occurrences)
	}
}

// TestReproduceRecordsDecodeStage checks that a traced Reproduce
// reports the trace decode its source performs: one
// er_core_stage_seconds{stage="decode"} sample and one "decode" span
// after the reoccurrence-wait span per decoded trace.
func TestReproduceRecordsDecodeStage(t *testing.T) {
	mod := compile(t, chainSrc)
	reg := telemetry.New()
	tr := telemetry.NewTracer(4)
	rep, err := core.Reproduce(core.Config{
		Module:    mod,
		Gen:       &core.FixedWorkload{Workload: chainWorkload(), Seed: 1},
		Symex:     symex.Options{QueryBudget: 30_000},
		Telemetry: reg,
		Tracer:    tr,
	})
	if err != nil {
		t.Fatalf("reproduce: %v", err)
	}
	if !rep.Reproduced {
		t.Fatalf("report: %+v", rep)
	}
	samples := stageCount(t, reg, "decode")
	if samples == 0 {
		t.Fatal(`er_core_stage_seconds{stage="decode"} has no sample after a traced Reproduce`)
	}
	roots := tr.Recent()
	if len(roots) != 1 {
		t.Fatalf("recent roots = %d, want 1", len(roots))
	}
	// Each decode span follows its reoccurrence-wait span, where the
	// decode ran at the end of the source's Next, and ends before the
	// next stage starts.
	var spans int64
	kids := roots[0].Children
	for i, c := range kids {
		if c.Name != "decode" {
			continue
		}
		spans++
		if i == 0 || kids[i-1].Name != "reoccurrence-wait" {
			t.Fatalf("decode span %d does not follow a reoccurrence-wait span", i)
		}
		if waitEnd := kids[i-1].Start.Add(kids[i-1].Duration); c.Start.Before(waitEnd) {
			t.Errorf("decode span %d starts %v before its wait window ends", i, waitEnd.Sub(c.Start))
		}
		if i+1 < len(kids) {
			if end := c.Start.Add(c.Duration); end.After(kids[i+1].Start) {
				t.Errorf("decode span %d overlaps the next stage %q by %v", i, kids[i+1].Name, end.Sub(kids[i+1].Start))
			}
		}
	}
	if spans != samples {
		t.Errorf("decode spans = %d, decode samples = %d", spans, samples)
	}
	if samples > int64(rep.Occurrences) {
		t.Errorf("decode samples = %d, more than the %d occurrences", samples, rep.Occurrences)
	}
}

// TestPipelineNoTelemetry checks the nil-telemetry path stays a
// no-op: no registry, no tracer, identical outcome.
func TestPipelineNoTelemetry(t *testing.T) {
	mod := compile(t, chainSrc)
	rep, err := core.Reproduce(core.Config{
		Module: mod,
		Gen:    &core.FixedWorkload{Workload: chainWorkload(), Seed: 1},
		Symex:  symex.Options{QueryBudget: 30_000},
	})
	if err != nil {
		t.Fatalf("reproduce: %v", err)
	}
	if !rep.Reproduced || !rep.Verified {
		t.Fatalf("report: %+v", rep)
	}
}
