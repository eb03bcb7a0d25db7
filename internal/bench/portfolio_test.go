package bench_test

import (
	"strings"
	"testing"
	"time"

	"execrecon/internal/bench"
)

// TestPortfolioExperiment runs the portfolio-racing experiment on a
// stall-heavy app subset: every app must reproduce with identical
// verdicts sequentially and raced, queries must actually race, and the
// renderer must surface the portfolio columns.
func TestPortfolioExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("portfolio experiment runs full ER pipelines; skipped in -short")
	}
	only := []string{"SQLite-787fa71", "Nasm-2004-1287"}
	r, err := bench.RunPortfolio(bench.PortfolioExpOptions{
		Only:     only,
		Workers:  3,
		CubeVars: 2,
		Pace:     20 * time.Millisecond, // keep the paced waits test-sized
	})
	if err != nil {
		t.Fatalf("portfolio: %v", err)
	}
	if len(r.Rows) != len(only) {
		t.Fatalf("rows: %d, want %d", len(r.Rows), len(only))
	}
	if !r.AllVerdictsMatch {
		t.Error("verdict parity violated between sequential and raced solving")
	}
	var races int64
	for _, row := range r.Rows {
		if !row.Reproduced || !row.Verified {
			t.Errorf("%s: raced run reproduced=%v verified=%v (%s)",
				row.App, row.Reproduced, row.Verified, row.FailReason)
		}
		if row.SolverTime <= 0 {
			t.Errorf("%s: raced run recorded no solver time", row.App)
		}
		if row.E2E <= 0 || row.SeqE2E <= 0 {
			t.Errorf("%s: end-to-end times not recorded (seq=%v raced=%v)",
				row.App, row.SeqE2E, row.E2E)
		}
		if waits := time.Duration(row.SeqOccur-1) * 20 * time.Millisecond; row.SeqE2E < waits {
			t.Errorf("%s: sequential e2e %v shorter than its %d paced waits (%v)",
				row.App, row.SeqE2E, row.SeqOccur-1, waits)
		}
		races += row.Portfolio.Races
		if got := row.Portfolio.BaseWins + row.Portfolio.SeedWins +
			row.Portfolio.CubeWins + row.Portfolio.Unknowns; got != row.Portfolio.Races {
			t.Errorf("%s: race accounting: %d races, %d attributed", row.App, row.Portfolio.Races, got)
		}
	}
	if races == 0 {
		t.Error("no query raced despite portfolio workers")
	}
	if r.Portfolio.Races != races {
		t.Errorf("aggregate races %d != per-row sum %d", r.Portfolio.Races, races)
	}

	var sb strings.Builder
	bench.RenderPortfolio(&sb, r)
	out := sb.String()
	for _, want := range append([]string{"Portfolio e2e", "Speedup", "Races", "portfolio (3 workers)"}, only...) {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
