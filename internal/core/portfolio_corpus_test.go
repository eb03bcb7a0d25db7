package core_test

import (
	"testing"

	"execrecon/internal/core"
	"execrecon/internal/corpus"
	"execrecon/internal/solver"
	"execrecon/internal/symex"
)

// TestPortfolioCorpusDifferential is the randomized differential gate
// for the racing layer: a generated population spanning every bug
// pattern is reconstructed twice — sequential vs portfolio solving
// (racing seeds and cubes) — under each scenario's stall-tuned budget, and racing must never lose a reproduction the
// sequential configuration achieves. The gate is one-directional: any
// satisfying model a racing worker returns is a legitimate input, so
// the shepherded trajectory it induces can differ from the sequential
// model's — occasionally rescuing a scenario whose sequential-model
// trajectory diverges off the failure point. Such rescues are logged,
// not failed; only a portfolio regression (sequential reproduces,
// portfolio does not) is a bug.
func TestPortfolioCorpusDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus differential reconstructs a generated population twice; skipped in -short")
	}
	scs, _, err := corpus.Generate(corpus.GenConfig{N: 2 * len(corpus.Patterns()), Seed: 7})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}

	// run drives one reconstruction to completion. Pipeline errors
	// (e.g. a scenario whose shepherded execution diverges) are an
	// outcome, not a test failure: the differential compares them
	// across configurations like any other verdict.
	run := func(t *testing.T, sc *corpus.Scenario, workers int) *core.Report {
		t.Helper()
		mod, err := sc.Module()
		if err != nil {
			t.Fatalf("module: %v", err)
		}
		app := sc.App()
		p, err := core.NewPipeline(core.Config{
			Module:            mod,
			Symex:             symex.Options{QueryBudget: sc.QueryBudget, MaxInstrs: 50_000_000},
			PortfolioWorkers:  workers,
			PortfolioCubeVars: min(workers, 2),
		})
		if err != nil {
			t.Fatalf("pipeline: %v", err)
		}
		src := &core.GenSource{Gen: &core.FixedWorkload{Workload: app.Failing(), Seed: app.Seed}}
		for !p.Done() {
			occ, err := src.Next(p.Request())
			if err != nil {
				t.Fatalf("workers=%d: source: %v", workers, err)
			}
			if _, err := p.Feed(occ); err != nil {
				break // terminal pipeline failure; report carries the reason
			}
		}
		return p.Report()
	}

	var stats solver.PortfolioStats
	for _, sc := range scs {
		t.Run(sc.Name, func(t *testing.T) {
			seq := run(t, sc, 0)
			port := run(t, sc, 4)
			switch {
			case (seq.Reproduced && !port.Reproduced) || (seq.Verified && !port.Verified):
				t.Errorf("portfolio lost a sequential verdict: sequential reproduced=%v verified=%v, portfolio reproduced=%v verified=%v (%s / %s)",
					seq.Reproduced, seq.Verified, port.Reproduced, port.Verified,
					seq.FailReason, port.FailReason)
			case seq.Reproduced != port.Reproduced || seq.Verified != port.Verified:
				t.Logf("portfolio rescue: sequential reproduced=%v verified=%v (%s), portfolio reproduced=%v verified=%v",
					seq.Reproduced, seq.Verified, seq.FailReason, port.Reproduced, port.Verified)
			}
			pst := port.Portfolio
			if got := pst.BaseWins + pst.SeedWins + pst.CubeWins + pst.Unknowns; got != pst.Races {
				t.Errorf("race accounting: %d races, %d attributed", pst.Races, got)
			}
			stats.Merge(pst)
		})
	}
	if stats.Races == 0 {
		t.Error("no query entered the portfolio layer across the whole population")
	}
	t.Logf("population: races=%d escalations=%d wins(b/s/c)=%d/%d/%d unknowns=%d",
		stats.Races, stats.Escalations, stats.BaseWins, stats.SeedWins,
		stats.CubeWins, stats.Unknowns)
}
