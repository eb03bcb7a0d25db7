// Portfolio CDCL: the search phase of one query, escalated to K
// diversified racing workers when the deterministic search gives up.
// The base worker is the caller's own core running its usual
// deterministic search (seed 0) solo — queries it answers within its
// limits never pay a cent of racing overhead. Only when that search
// exhausts its budget does the portfolio escalate: replica cores —
// each a copy of the stalled CNF with a distinct restart cadence and a
// sprinkle of random decisions and phases (sat.setSeed), plus optional
// cube splits — race the query with fresh budget allowances. Workers
// share short learnt clauses through a bounded exchange and stop as
// soon as any reaches a definitive verdict.
//
// Soundness: every replica's clause database holds only consequences
// of the base CNF — its problem clauses and root facts (copied when
// the replica is built), its own learnt clauses, and exchange imports
// (learnt by siblings over the same consequences) — and CDCL is sound
// and complete, so any definitive answer is *the* answer regardless of
// which seed found it: racing changes latency, never verdicts. Parity
// with the sequential solve is structural — phase one IS the
// sequential solve, and escalation only ever converts its budget-bound
// Unknowns into definitive verdicts when a lucky seed (or a cube)
// finishes within limits the deterministic search exhausts. That
// conversion is the speedup mechanism on the stall-heavy apps: a
// converted stall saves the whole reoccurrence round-trip it would
// otherwise have forced.
package solver

import "sync"

// PortfolioOptions configures the racing-search layer: K seeded CDCL
// workers (plus optional cube-and-conquer splits) race the same query,
// sharing learnt clauses through a bounded exchange; the first
// definitive verdict wins and cancels the rest.
type PortfolioOptions struct {
	// Workers is the number of racing searches, including the
	// deterministic base worker (seed 0). Values <= 1 disable racing.
	Workers int
	// Seeds overrides the diversification seeds for workers 1..K-1.
	// When shorter than Workers-1 the remaining workers derive seeds
	// from their index. Seed 0 is reserved for the base worker.
	Seeds []uint64
	// ExchangeMaxLen bounds the length of learnt clauses admitted to
	// the shared exchange (0 = DefaultExchangeMaxLen). Short clauses
	// prune the most and cost the least to import.
	ExchangeMaxLen int
	// ExchangeCap bounds how many clauses the exchange retains
	// (0 = DefaultExchangeCap); beyond it, publishing stops.
	ExchangeCap int
	// CubeVars, when > 0, additionally splits the search space into
	// 2^CubeVars cubes over the highest-occurrence undecided
	// variables, one extra worker per cube. All cubes returning unsat
	// proves unsat; any cube returning sat wins.
	CubeVars int
	// CubeMinClauses gates cube splitting to grown queries: cubes are
	// only raced when the CNF holds at least this many problem
	// clauses (0 = DefaultCubeMinClauses).
	CubeMinClauses int
}

// Defaults for the learned-clause exchange and cube gating.
const (
	DefaultExchangeMaxLen = 8
	DefaultExchangeCap    = 4096
	DefaultCubeMinClauses = 64
)

// PortfolioStats counts racing outcomes across a solver's lifetime.
type PortfolioStats struct {
	// Races counts queries that entered the portfolio search layer
	// (trivially decided queries never do); Escalations the subset
	// whose deterministic phase stalled and actually spawned racing
	// replicas.
	Races       int64
	Escalations int64
	// BaseWins/SeedWins/CubeWins attribute definitive verdicts to the
	// worker kind that produced them (a base win is the deterministic
	// search finishing without escalating); Unknowns counts searches no
	// worker finished within its limits.
	BaseWins int64
	SeedWins int64
	CubeWins int64
	Unknowns int64
	// ClausesShared/ClausesImported count exchange traffic.
	ClausesShared   int64
	ClausesImported int64
	// CubeSplits counts cube workers launched; ExtraSteps the
	// abstract work spent by non-base workers (the base worker's
	// steps are in the ordinary Stats counters).
	CubeSplits int64
	ExtraSteps int64
}

// Merge accumulates o into s — cross-solver aggregation (reports sum
// per-iteration stats with it, fleet snapshots per-bucket ones).
func (s *PortfolioStats) Merge(o PortfolioStats) {
	s.Races += o.Races
	s.Escalations += o.Escalations
	s.BaseWins += o.BaseWins
	s.SeedWins += o.SeedWins
	s.CubeWins += o.CubeWins
	s.Unknowns += o.Unknowns
	s.ClausesShared += o.ClausesShared
	s.ClausesImported += o.ClausesImported
	s.CubeSplits += o.CubeSplits
	s.ExtraSteps += o.ExtraSteps
}

// xclause is one entry in the exchange: the publishing worker's id
// (so drains skip a worker's own clauses) and an owned literal slice.
type xclause struct {
	from int
	lits []lit
}

// clauseExchange is the bounded learnt-clause pool shared by the
// workers of one race. Publishing copies the literals immediately —
// watch maintenance reorders a live clause's slice in place — and
// draining hands each importer its own copy. A nil exchange (solo
// search) is a no-op on both sides.
type clauseExchange struct {
	mu       sync.Mutex
	maxLen   int
	capLimit int
	pool     []xclause
	imported int64
}

func newClauseExchange(opts PortfolioOptions) *clauseExchange {
	maxLen := opts.ExchangeMaxLen
	if maxLen <= 0 {
		maxLen = DefaultExchangeMaxLen
	}
	capLimit := opts.ExchangeCap
	if capLimit <= 0 {
		capLimit = DefaultExchangeCap
	}
	return &clauseExchange{maxLen: maxLen, capLimit: capLimit}
}

func (x *clauseExchange) publish(from int, lits []lit) {
	if x == nil || len(lits) == 0 || len(lits) > x.maxLen {
		return
	}
	x.mu.Lock()
	if len(x.pool) < x.capLimit {
		x.pool = append(x.pool, xclause{from: from, lits: append([]lit(nil), lits...)})
	}
	x.mu.Unlock()
}

// drain returns copies of every clause published since *cursor by a
// worker other than self, advancing the cursor.
func (x *clauseExchange) drain(self int, cursor *int) [][]lit {
	if x == nil {
		return nil
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	var out [][]lit
	for ; *cursor < len(x.pool); *cursor++ {
		c := x.pool[*cursor]
		if c.from == self {
			continue
		}
		out = append(out, append([]lit(nil), c.lits...))
		x.imported++
	}
	return out
}

// Worker kinds for win attribution.
const (
	workerBase = iota
	workerSeed
	workerCube
)

// seedFor picks the diversification seed for worker i >= 1.
func seedFor(opts PortfolioOptions, i int) uint64 {
	if i-1 < len(opts.Seeds) && opts.Seeds[i-1] != 0 {
		return opts.Seeds[i-1]
	}
	return uint64(i)*0x9E3779B9 + 1
}

// cubeLits picks the cube variables — the highest-occurrence variables
// undecided at the base's root — and returns one literal tuple per
// cube (all 2^n sign combinations). It only reads the base core; call
// it while the base is idle.
func cubeLits(base *sat, n int) [][]lit {
	if n <= 0 {
		return nil
	}
	units := base.rootFacts()
	fixed := make(map[int]bool, len(units))
	for _, l := range units {
		fixed[l.vindex()] = true
	}
	occ := make([]int, base.numVars)
	for _, cl := range base.clauses {
		for _, l := range base.clauseLits(cl) {
			occ[l.vindex()]++
		}
	}
	var vars []int
	for picked := 0; picked < n; picked++ {
		best, bestOcc := -1, 0
		for v := 1; v < base.numVars; v++ {
			if !fixed[v] && occ[v] > bestOcc {
				best, bestOcc = v, occ[v]
			}
		}
		if best < 0 {
			break
		}
		fixed[best] = true
		vars = append(vars, best)
	}
	if len(vars) == 0 {
		return nil
	}
	cubes := make([][]lit, 0, 1<<uint(len(vars)))
	for mask := 0; mask < 1<<uint(len(vars)); mask++ {
		cube := make([]lit, len(vars))
		for i, v := range vars {
			cube[i] = mkLit(v, mask>>uint(i)&1 == 1)
		}
		cubes = append(cubes, cube)
	}
	return cubes
}

// mirrorBudget builds a fresh budget with the same limits as the
// base's — each worker meters the full per-query allowance, so the
// base worker replicates the sequential solve exactly and replicas can
// only add answers, never steal the base's budget — all chained to the
// race's cancellation flag.
func mirrorBudget(base *Budget, stop *Cancel) *Budget {
	if base == nil {
		return &Budget{Stop: stop}
	}
	return &Budget{MaxSteps: base.MaxSteps, Timeout: base.Timeout, Deadline: base.Deadline, Stop: stop}
}

// newReplica builds a seeded worker core holding a copy of the base
// core's clause database — its variables (with their saved phases),
// root facts, and problem clauses. It reads the base but never writes
// it, so the race's workers may all build their replicas concurrently
// while the base sits idle. The base's learnt clauses are not copied:
// replicas learn their own (and import their siblings').
//
// A false return means the replica hit a root-level contradiction.
// Because its database holds only consequences of the base CNF, that
// is a sound unsatisfiability verdict for the query itself, not just
// for this worker.
func newReplica(base *sat, seed uint64, budget *Budget) (*sat, bool) {
	s := newSAT(budget)
	s.setSeed(seed)
	for s.numVars < base.numVars {
		v := s.newVar()
		s.polarity[v] = base.polarity[v]
	}
	for _, u := range base.rootFacts() {
		if s.value(u) == tFalse {
			s.failed = true
			return s, false
		}
		if s.value(u) == tUndef {
			s.uncheckedEnqueue(u, crefNone)
		}
	}
	if s.propagate() != crefNone {
		s.failed = true
		return s, false
	}
	for _, c := range base.clauses {
		// addClauseAtZero compacts its argument in place; the replica
		// needs its own copy of the base's literals.
		s.addBuf = append(s.addBuf[:0], base.clauseLits(c)...)
		if !s.addClauseAtZero(s.addBuf) {
			return s, false
		}
	}
	return s, true
}

// raceSearch runs the deterministic search on the base core and, if —
// and only if — that search exhausts its limits, escalates to a race
// across freshly built replicas of the stalled CNF and cube splits. On
// satSat the returned core holds the model: the base itself when the
// sequential phase answered, a replica otherwise.
//
// The sequential phase running solo is what keeps the portfolio's
// overhead off the common path: replicating the CNF costs real time,
// and paying it per query would dwarf the per-query search times; a
// stall, by contrast, is about to cost the reconstruction an entire
// reoccurrence wait, so spending a race on it is always a good trade.
//
// All workers are joined before returning: no goroutine touches the
// exchange, any budget, or any replica after raceSearch returns, and
// none ever writes the base core.
func raceSearch(base *sat, opts PortfolioOptions, stats *PortfolioStats) (satResult, *sat) {
	if opts.Workers <= 1 {
		return base.solve(), base
	}

	stats.Races++
	// Phase one: the unmodified sequential search under the caller's
	// own budget. Definitive answers (and cancellations) end here.
	res := base.solve()
	if res != satUnknown {
		stats.BaseWins++
		return res, base
	}
	if base.budget != nil && base.budget.Stop != nil && base.budget.Stop.Canceled() {
		stats.Unknowns++
		return satUnknown, base
	}

	// Phase two: the deterministic search is budget-bound — escalate.
	// The base is idle from here until every worker is joined, so the
	// workers' concurrent replication reads are safe.
	exch := newClauseExchange(opts)

	var parent *Cancel
	if base.budget != nil {
		parent = base.budget.Stop
	}
	raceStop := NewCancel(parent)

	var cubes [][]lit
	minClauses := opts.CubeMinClauses
	if minClauses <= 0 {
		minClauses = DefaultCubeMinClauses
	}
	if opts.CubeVars > 0 && len(base.clauses) >= minClauses {
		cubes = cubeLits(base, opts.CubeVars)
	}

	type outcome struct {
		kind int
		res  satResult
		core *sat
	}
	total := opts.Workers - 1 + len(cubes)
	results := make(chan outcome, total)

	// Replication is the bulk of an escalation's fixed cost; each
	// worker builds its replica inside its own goroutine so the copies
	// overlap. A cancellation landing mid-copy (another worker already
	// won) is observed by the replica's budget during its first descent.
	launch := func(id, kind int, assumps []lit) {
		go func() {
			rc, ok := newReplica(base, seedFor(opts, id), mirrorBudget(base.budget, raceStop))
			if !ok {
				// Root contradiction among base-CNF consequences: a
				// global unsat verdict whatever the worker's kind, so
				// report it as a full-space answer.
				results <- outcome{workerSeed, satUnsat, rc}
				return
			}
			rc.exchange, rc.exchangeID = exch, id
			results <- outcome{kind, rc.solveAssume(assumps), rc}
		}()
	}
	for i := 1; i < opts.Workers; i++ {
		launch(i, workerSeed, nil)
	}
	for ci, cube := range cubes {
		launch(opts.Workers+ci, workerCube, cube)
	}

	stats.Escalations++
	stats.CubeSplits += int64(len(cubes))
	res, winKind := satUnknown, -1
	winner := base
	cubesUnsat := 0
	for done := 0; done < total; done++ {
		o := <-results
		stats.ExtraSteps += o.core.budget.Used()
		if winKind >= 0 {
			continue // already decided; draining for the join
		}
		decide := func(r satResult, w *sat, kind int) {
			res, winner, winKind = r, w, kind
			raceStop.Cancel()
		}
		switch {
		case o.kind == workerSeed && o.res != satUnknown:
			decide(o.res, o.core, workerSeed)
		case o.kind == workerCube && o.res == satSat:
			decide(satSat, o.core, workerCube)
		case o.kind == workerCube && o.res == satUnsat:
			// One cube refuted; all of them refuted proves unsat (the
			// cubes enumerate every sign combination, so they cover the
			// whole space).
			if cubesUnsat++; cubesUnsat == len(cubes) {
				decide(satUnsat, base, workerCube)
			}
		}
	}
	switch {
	case winKind == workerSeed:
		stats.SeedWins++
	case winKind == workerCube:
		stats.CubeWins++
	default:
		stats.Unknowns++
	}
	exch.mu.Lock()
	stats.ClausesShared += int64(len(exch.pool))
	stats.ClausesImported += exch.imported
	exch.mu.Unlock()
	return res, winner
}
