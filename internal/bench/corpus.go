package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"execrecon/internal/corpus"
	"execrecon/internal/fleet"
	"execrecon/internal/symex"
	"execrecon/internal/telemetry"
)

// CorpusOptions configures the population-scale reproduction
// experiment (E17): generate N self-verified scenarios and push them
// through the fleet as mixed production traffic.
type CorpusOptions struct {
	// N is the number of generated scenarios (default 200).
	N int
	// Seed is the generation master seed (default 1); the whole run is
	// reproducible from it.
	Seed uint64
	// Workers is the pipeline worker-pool size (0 = fleet default).
	Workers int
	// MachinesPerScenario is the producer count per scenario
	// (default 1 — the population supplies the scale).
	MachinesPerScenario int
	// FailEvery is the mixed-traffic failure period: each machine's
	// n-th run replays the failing workload when n+1 is a multiple of
	// this, and serves benign load otherwise (default 3).
	FailEvery int
	// Pace spaces each machine's production runs (default 200µs: with
	// hundreds of machines the fleet is already saturated; the pace
	// only models request arrival).
	Pace time.Duration
	// Timeout bounds the fleet run (default 10 minutes).
	Timeout time.Duration
	// Telemetry/Tracer/ListenAddr pass through to the fleet, so a
	// corpus run can expose live population progress on /debug/er.
	Telemetry  *telemetry.Registry
	Tracer     *telemetry.Tracer
	ListenAddr string
	// Absint runs the abstract interpreter across the population
	// (fleet.Options.Absint: registration-time provable lint and
	// invariant mining after each verified reproduction); AbsintWiden
	// is its widening threshold (0 = default).
	Absint      bool
	AbsintWiden int
	// Log receives generation and fleet progress lines.
	Log io.Writer
}

func (o *CorpusOptions) withDefaults() CorpusOptions {
	v := *o
	if v.N == 0 {
		v.N = 200
	}
	if v.Seed == 0 {
		v.Seed = 1
	}
	if v.MachinesPerScenario <= 0 {
		v.MachinesPerScenario = 1
	}
	if v.FailEvery <= 0 {
		v.FailEvery = 3
	}
	if v.Pace == 0 {
		v.Pace = 200 * time.Microsecond
	}
	if v.Timeout == 0 {
		v.Timeout = 10 * time.Minute
	}
	return v
}

// CorpusPatternRow aggregates one bug pattern's population outcome.
type CorpusPatternRow struct {
	Pattern   string
	Scenarios int
	// Reproduced/Verified count scenarios whose bucket pipeline
	// emitted a (verified) test case.
	Reproduced int
	Verified   int
	// Occurrences is the total failure reoccurrences triaged.
	Occurrences int64
	// IterP50/IterMax summarize ER iterations per scenario.
	IterP50 int64
	IterMax int64
	// CostP50/CostP90/CostMax summarize the per-scenario peak
	// recording cost (0 = reproduced without re-instrumentation).
	CostP50 int64
	CostP90 int64
	CostMax int64
}

// CorpusResult is the population-scale experiment outcome.
type CorpusResult struct {
	N        int
	Seed     uint64
	GenStats *corpus.GenStats
	GenTime  time.Duration
	RunTime  time.Duration
	// Rows aggregates per pattern, in generation order; Total is the
	// same aggregation over the whole population.
	Rows  []CorpusPatternRow
	Total CorpusPatternRow
	// Unresolved counts scenarios whose bucket never resolved before
	// the fleet timeout (they count as not reproduced).
	Unresolved int
	// TimedOut reports whether the fleet hit its timeout.
	TimedOut bool
	// Absint echoes CorpusOptions.Absint; the counters below then
	// aggregate the abstract interpreter's work across the population:
	// registration-time provable lint findings, and static invariants
	// mined/verified.
	Absint           bool
	AbsintLintProofs int64
	AbsintMined      int
	AbsintVerified   int
}

// RunCorpus generates opts.N self-verified scenarios and reproduces
// the whole population through the fleet: every scenario runs as its
// own application whose machines serve benign traffic with the failing
// workload recurring, so reproduction rate, iteration counts, and
// recording costs are measured as population properties (the scale the
// paper's 13-bug table cannot show).
func RunCorpus(opts CorpusOptions) (*CorpusResult, error) {
	opts = opts.withDefaults()
	r := &CorpusResult{N: opts.N, Seed: opts.Seed}

	genStart := time.Now()
	scs, stats, err := corpus.Generate(corpus.GenConfig{
		N:       opts.N,
		Seed:    opts.Seed,
		Metrics: corpus.NewMetrics(opts.Telemetry),
	})
	r.GenStats = stats
	r.GenTime = time.Since(genStart)
	if err != nil {
		return r, fmt.Errorf("generate: %w", err)
	}

	byName := make(map[string]*corpus.Scenario, len(scs))
	fapps := make([]fleet.App, 0, len(scs))
	for _, sc := range scs {
		mod, err := sc.Module()
		if err != nil {
			return r, err
		}
		byName[sc.Name] = sc
		fapps = append(fapps, fleet.App{
			Name:     sc.Name,
			Module:   mod,
			Failing:  sc.App().Failing,
			Seed:     sc.SchedSeed,
			Gen:      sc.Gen(opts.FailEvery),
			Machines: opts.MachinesPerScenario,
			Symex:    symex.Options{QueryBudget: sc.QueryBudget, MaxInstrs: 50_000_000},
		})
	}

	met := corpus.NewMetrics(opts.Telemetry)
	runStart := time.Now()
	res, err := fleet.Run(fapps, fleet.Options{
		Workers:     opts.Workers,
		Pace:        opts.Pace,
		Timeout:     opts.Timeout,
		Telemetry:   opts.Telemetry,
		Tracer:      opts.Tracer,
		ListenAddr:  opts.ListenAddr,
		Absint:      opts.Absint,
		AbsintWiden: opts.AbsintWiden,
		Log:         opts.Log,
	})
	r.RunTime = time.Since(runStart)
	if err != nil {
		// A fleet timeout still yields partial results; anything else
		// is fatal.
		if res == nil {
			return r, fmt.Errorf("fleet: %w", err)
		}
		r.TimedOut = true
	}
	if opts.Absint {
		r.Absint = true
		r.AbsintLintProofs = res.Final.LintProofs
		for _, b := range res.Buckets {
			if b.Report == nil {
				continue
			}
			r.AbsintMined += b.Report.AbsintMined
			r.AbsintVerified += len(b.Report.AbsintInvariants)
		}
	}

	type agg struct {
		row   CorpusPatternRow
		iters []int64
		costs []int64
	}
	aggs := make(map[string]*agg)
	order := []string{}
	for _, p := range corpus.Patterns() {
		aggs[p.String()] = &agg{row: CorpusPatternRow{Pattern: p.String()}}
		order = append(order, p.String())
	}
	total := &agg{row: CorpusPatternRow{Pattern: "all"}}

	resolved := map[string]bool{}
	for _, b := range res.Buckets {
		sc := byName[b.App]
		if sc == nil {
			continue // foreign bucket (cannot happen in this fleet)
		}
		resolved[b.App] = true
		a := aggs[sc.Pattern.String()]
		for _, x := range []*agg{a, total} {
			x.row.Scenarios++
			x.row.Occurrences += b.Occurrences
		}
		rep := b.Report
		reproduced := rep != nil && rep.Reproduced
		met.Reproduced(sc.Pattern, reproduced)
		if rep == nil {
			continue
		}
		iters := int64(len(rep.Iterations))
		var cost int64
		for _, it := range rep.Iterations {
			if it.RecordingCost > cost {
				cost = it.RecordingCost
			}
		}
		for _, x := range []*agg{a, total} {
			if rep.Reproduced {
				x.row.Reproduced++
			}
			if rep.Verified {
				x.row.Verified++
			}
			x.iters = append(x.iters, iters)
			x.costs = append(x.costs, cost)
		}
	}
	for _, sc := range scs {
		if !resolved[sc.Name] {
			r.Unresolved++
			met.Reproduced(sc.Pattern, false)
		}
	}

	finish := func(a *agg) CorpusPatternRow {
		a.row.IterP50 = percentile(a.iters, 50)
		a.row.IterMax = percentile(a.iters, 100)
		a.row.CostP50 = percentile(a.costs, 50)
		a.row.CostP90 = percentile(a.costs, 90)
		a.row.CostMax = percentile(a.costs, 100)
		return a.row
	}
	for _, p := range order {
		r.Rows = append(r.Rows, finish(aggs[p]))
	}
	r.Total = finish(total)
	return r, nil
}

// percentile returns the p-th percentile (nearest-rank) of vs, or 0
// when empty. vs is sorted in place.
func percentile(vs []int64, p int) int64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	if p >= 100 {
		return vs[len(vs)-1]
	}
	idx := p * len(vs) / 100
	if idx >= len(vs) {
		idx = len(vs) - 1
	}
	return vs[idx]
}

// RenderCorpus prints the population-level reproduction table.
func RenderCorpus(w io.Writer, r *CorpusResult) {
	fmt.Fprintf(w, "population: %d scenarios from seed %d (%d draws rejected by self-verification)\n",
		r.N, r.Seed, rejectedOf(r.GenStats))
	fmt.Fprintf(w, "generation: %v (every scenario ground-truth-verified by concrete execution)\n",
		r.GenTime.Round(time.Millisecond))
	header := []string{"Pattern", "Scenarios", "Reproduced", "Verified", "Rate", "#Occur", "Iter p50/max", "RecCost p50/p90/max"}
	var rows [][]string
	render := func(row CorpusPatternRow) []string {
		rate := "-"
		if row.Scenarios > 0 {
			rate = fmt.Sprintf("%.1f%%", 100*float64(row.Reproduced)/float64(row.Scenarios))
		}
		return []string{
			row.Pattern,
			fmt.Sprintf("%d", row.Scenarios),
			fmt.Sprintf("%d", row.Reproduced),
			fmt.Sprintf("%d", row.Verified),
			rate,
			fmt.Sprintf("%d", row.Occurrences),
			fmt.Sprintf("%d/%d", row.IterP50, row.IterMax),
			fmt.Sprintf("%d/%d/%d", row.CostP50, row.CostP90, row.CostMax),
		}
	}
	for _, row := range r.Rows {
		rows = append(rows, render(row))
	}
	rows = append(rows, render(r.Total))
	table(w, header, rows)
	fmt.Fprintf(w, "\nfleet run: %v", r.RunTime.Round(time.Millisecond))
	if r.TimedOut {
		fmt.Fprintf(w, " (TIMED OUT: %d scenarios unresolved)", r.Unresolved)
	}
	if r.Absint {
		fmt.Fprintf(w, "\nabstract interpreter: %d provable lint findings at registration, %d/%d static invariants verified/mined",
			r.AbsintLintProofs, r.AbsintVerified, r.AbsintMined)
	}
	fmt.Fprintf(w, "\nreproduce this population with: erbench -exp corpus -corpus-n %d -seed %d\n", r.N, r.Seed)
}

func rejectedOf(s *corpus.GenStats) int {
	if s == nil {
		return 0
	}
	return s.Rejected
}
