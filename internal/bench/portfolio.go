package bench

import (
	"fmt"
	"io"
	"time"

	"execrecon/internal/apps"
	"execrecon/internal/core"
	"execrecon/internal/solver"
	"execrecon/internal/symex"
)

// PortfolioExpOptions configures the portfolio-racing experiment:
// each Table 1 bug reproduced twice under its stall-tuned budget —
// solving sequentially, then racing every stalled query across seeded
// CDCL workers — with reoccurrences delivered on a fixed cadence.
type PortfolioExpOptions struct {
	// Workers is the racing width (0 = DefaultPortfolioWorkers).
	Workers int
	// CubeVars additionally splits raced queries into 2^CubeVars cubes
	// (0 = no cube workers).
	CubeVars int
	// Pace is the simulated reoccurrence interval: occurrence i of a run
	// is delivered no earlier than i×Pace after the run starts,
	// modelling a production failure that reoccurs on a fixed cadence
	// rather than on demand. End-to-end times then measure what the
	// paper measures — time to reproduction including reoccurrence
	// waits — so cutting occurrences, not raw solver time, is what
	// racing is paid to do. 0 = DefaultReoccurPace.
	Pace time.Duration
	// Only restricts the run to the named apps (nil = all).
	Only []string
	// Log receives progress lines.
	Log io.Writer
}

// DefaultPortfolioWorkers is the experiment's racing width when none
// is given.
const DefaultPortfolioWorkers = 3

// DefaultReoccurPace is the experiment's simulated reoccurrence
// interval. Production reoccurrence gaps are minutes to days; one
// second is small enough to keep the bench interactive while still
// dwarfing per-iteration compute, which is the regime the paper's
// deployment model assumes.
const DefaultReoccurPace = time.Second

// PortfolioRow compares one app's paced reproduction solving
// sequentially versus racing.
type PortfolioRow struct {
	App string

	// Sequential reproduction.
	SeqSolverTime time.Duration
	SeqE2E        time.Duration
	SeqOccur      int
	SeqReproduced bool
	SeqVerified   bool

	// Raced reproduction and its racing counters.
	SolverTime time.Duration
	E2E        time.Duration
	Occur      int
	Reproduced bool
	Verified   bool
	Portfolio  solver.PortfolioStats

	// VerdictMatch: both runs agree on Reproduced and Verified — the
	// experiment's correctness gate.
	VerdictMatch bool
	FailReason   string
}

// Speedup is the sequential/raced end-to-end reproduction-time ratio —
// the wall clock bought by racing seeds, which is mostly the
// reoccurrence waits of the iterations they cut.
func (r PortfolioRow) Speedup() float64 {
	if r.E2E <= 0 {
		return 0
	}
	return float64(r.SeqE2E) / float64(r.E2E)
}

// PortfolioResult aggregates the experiment.
type PortfolioResult struct {
	Rows []PortfolioRow
	// Workers echoes the racing width.
	Workers int
	// TotalSeq/TotalRaced sum cumulative solver time and the E2E
	// variants end-to-end reproduction time (paced waits included);
	// Portfolio aggregates the racing counters.
	TotalSeq      time.Duration
	TotalRaced    time.Duration
	TotalSeqE2E   time.Duration
	TotalRacedE2E time.Duration
	Portfolio     solver.PortfolioStats
	// AllVerdictsMatch reports whether every app reproduced (and
	// verified) identically in both runs.
	AllVerdictsMatch bool
}

// Speedup is the aggregate sequential/raced end-to-end ratio.
func (r *PortfolioResult) Speedup() float64 {
	if r.TotalRacedE2E <= 0 {
		return 0
	}
	return float64(r.TotalSeqE2E) / float64(r.TotalRacedE2E)
}

// portfolioRun drives one full ER reproduction, delivering occurrence n
// no earlier than n×pace after the start, and returns the report and
// the end-to-end wall clock including the paced waits.
func portfolioRun(a *apps.App, budget int64, workers, cubeVars int, pace time.Duration, log io.Writer) (*core.Report, time.Duration, error) {
	mod, err := a.Module()
	if err != nil {
		return nil, 0, err
	}
	p, err := core.NewPipeline(core.Config{
		Module:            mod,
		Symex:             symex.Options{QueryBudget: budget, MaxInstrs: 50_000_000},
		PortfolioWorkers:  workers,
		PortfolioCubeVars: cubeVars,
		Log:               log,
	})
	if err != nil {
		return nil, 0, err
	}
	src := &core.GenSource{Gen: &core.FixedWorkload{Workload: a.Failing(), Seed: a.Seed}}
	start := time.Now()
	for n := 0; !p.Done(); n++ {
		if n > 0 {
			// Occurrence n arrives at start+n×pace, however long the
			// analysis so far took: a failure in production reoccurs on
			// its own schedule, not the reconstruction's.
			if d := time.Until(start.Add(time.Duration(n) * pace)); d > 0 {
				time.Sleep(d)
			}
		}
		occ, err := src.Next(p.Request())
		if err != nil {
			return p.Report(), time.Since(start), err
		}
		if _, err := p.Feed(occ); err != nil {
			return p.Report(), time.Since(start), err
		}
	}
	return p.Report(), time.Since(start), p.Err()
}

// RunPortfolio reproduces each Table 1 bug sequentially and raced,
// under the app's stall-tuned budget — the regime where queries give up
// and the reconstruction loops on reoccurrences. Racing pays off
// exactly there: a diversified seed or cube finishing within the limits
// the deterministic search exhausts turns a stall iteration into
// progress, cutting both wall clock and occurrence count. Gated on
// verdict parity.
func RunPortfolio(opts PortfolioExpOptions) (*PortfolioResult, error) {
	workers := opts.Workers
	if workers == 0 {
		workers = DefaultPortfolioWorkers
	}
	pace := opts.Pace
	if pace == 0 {
		pace = DefaultReoccurPace
	}
	res := &PortfolioResult{Workers: workers, AllVerdictsMatch: true}
	for _, a := range apps.All() {
		if len(opts.Only) > 0 && !contains(opts.Only, a.Name) {
			continue
		}
		budget := a.QueryBudget
		if budget == 0 {
			budget = DefaultQueryBudget
		}
		row := PortfolioRow{App: a.Name}
		fail := func(err error) {
			row.FailReason = err.Error()
			res.Rows = append(res.Rows, row)
			res.AllVerdictsMatch = false
		}

		seq, seqE2E, err := portfolioRun(a, budget, 0, 0, pace, opts.Log)
		if err != nil && seq == nil {
			fail(err)
			continue
		}
		row.SeqSolverTime = seq.TotalSolverTime
		row.SeqE2E = seqE2E
		row.SeqOccur = seq.Occurrences
		row.SeqReproduced = seq.Reproduced
		row.SeqVerified = seq.Verified

		raced, racedE2E, err := portfolioRun(a, budget, workers, opts.CubeVars, pace, opts.Log)
		if err != nil && raced == nil {
			fail(err)
			continue
		}
		row.SolverTime = raced.TotalSolverTime
		row.E2E = racedE2E
		row.Occur = raced.Occurrences
		row.Reproduced = raced.Reproduced
		row.Verified = raced.Verified
		row.Portfolio = raced.Portfolio
		row.VerdictMatch = row.SeqReproduced == row.Reproduced && row.SeqVerified == row.Verified

		if !row.VerdictMatch {
			res.AllVerdictsMatch = false
		}
		res.TotalSeq += row.SeqSolverTime
		res.TotalRaced += row.SolverTime
		res.TotalSeqE2E += row.SeqE2E
		res.TotalRacedE2E += row.E2E
		res.Portfolio.Merge(row.Portfolio)
		res.Rows = append(res.Rows, row)
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "portfolio: %s e2e seq=%v (%d occ) raced=%v (%d occ) speedup=%.2fx races=%d wins(b/s/c)=%d/%d/%d\n",
				a.Name, row.SeqE2E.Round(time.Microsecond), row.SeqOccur,
				row.E2E.Round(time.Microsecond), row.Occur, row.Speedup(),
				row.Portfolio.Races, row.Portfolio.BaseWins, row.Portfolio.SeedWins,
				row.Portfolio.CubeWins)
		}
	}
	return res, nil
}

// RenderPortfolio prints the per-app comparison plus the aggregate
// line.
func RenderPortfolio(w io.Writer, res *PortfolioResult) {
	header := []string{"Application-BugID", "Sequential e2e", "Portfolio e2e", "Speedup",
		"Occur seq/port", "Races", "Wins b/s/c", "Verdict"}
	var rows [][]string
	var seqOccur, racedOccur int
	for _, r := range res.Rows {
		seqOccur += r.SeqOccur
		racedOccur += r.Occur
		rows = append(rows, []string{
			r.App,
			r.SeqE2E.Round(time.Millisecond).String(),
			r.E2E.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2fx", r.Speedup()),
			fmt.Sprintf("%d/%d", r.SeqOccur, r.Occur),
			fmt.Sprintf("%d", r.Portfolio.Races),
			fmt.Sprintf("%d/%d/%d", r.Portfolio.BaseWins, r.Portfolio.SeedWins, r.Portfolio.CubeWins),
			portfolioVerdict(r),
		})
	}
	table(w, header, rows)
	fmt.Fprintf(w, "\nportfolio (%d workers): e2e sequential %v vs raced %v (%.2fx); solver time %v vs %v; occurrences %d vs %d; races %d, wins base/seed/cube %d/%d/%d, unknowns %d, clauses shared/imported %d/%d; verdicts identical: %v\n",
		res.Workers,
		res.TotalSeqE2E.Round(time.Millisecond), res.TotalRacedE2E.Round(time.Millisecond),
		res.Speedup(),
		res.TotalSeq.Round(time.Microsecond), res.TotalRaced.Round(time.Microsecond),
		seqOccur, racedOccur,
		res.Portfolio.Races, res.Portfolio.BaseWins,
		res.Portfolio.SeedWins, res.Portfolio.CubeWins, res.Portfolio.Unknowns,
		res.Portfolio.ClausesShared, res.Portfolio.ClausesImported,
		res.AllVerdictsMatch)
}

func portfolioVerdict(r PortfolioRow) string {
	switch {
	case r.FailReason != "":
		return "ERROR: " + r.FailReason
	case !r.VerdictMatch:
		return "MISMATCH"
	}
	return "match"
}
