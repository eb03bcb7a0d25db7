// Package solver implements the constraint solver used by shepherded
// symbolic execution. It is an SMT-lite solver for quantifier-free
// bitvector and array constraints, in the style of STP: array terms
// are eliminated first (store chains become if-then-else ladders and
// reads from free arrays are Ackermannized), then the resulting pure
// bitvector formula is bit-blasted through a Tseitin transformation to
// CNF and decided by a CDCL SAT solver.
//
// The solver meters its own work (array-elimination nodes, gates,
// propagations, conflicts) against a step budget and a wall-clock
// deadline. Exceeding either yields ResultUnknown — the solver
// "timeout" that ER's stall detection is built on (§4). Crucially, the
// metered cost grows with the two constraint-complexity sources the
// paper identifies (§3.3.1): the length of symbolic write chains and
// the size of the accessed symbolic memory objects. Stalls therefore
// arise here for the paper's stated reasons rather than by fiat.
package solver

// lit is a SAT literal: variable index shifted left once, with the
// low bit set for negated literals. Variable 0 is unused.
type lit uint32

func mkLit(v int, neg bool) lit {
	l := lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

func (l lit) vindex() int { return int(l >> 1) }
func (l lit) sign() bool  { return l&1 == 1 }
func (l lit) negate() lit { return l ^ 1 }

const litUndef lit = 0

// tribool is an assignment value.
type tribool int8

const (
	tUndef tribool = iota
	tTrue
	tFalse
)

func (t tribool) negate() tribool {
	switch t {
	case tTrue:
		return tFalse
	case tFalse:
		return tTrue
	}
	return tUndef
}

// cref addresses a clause in the core's arena: the index of its
// header word. The arena stores every clause MiniSat-style, as a
// header followed by its literals, so the whole clause database is one
// slice the garbage collector never has to trace. arena[0] is a
// sentinel, which makes cref 0 (crefNone) mean "no clause".
type cref uint32

const crefNone cref = 0

// Clause header word: the literal count above two flag bits.
const (
	clauseLearnt  = 1 << 0
	clauseDeleted = 1 << 1 // dropped by reduceLearnts; space reclaimed by compact
	clauseShift   = 2
)

// watcher is one entry of a literal's watch list.
type watcher struct {
	c cref
}

// sat is a CDCL SAT solver with two-watched-literal propagation,
// first-UIP learning, VSIDS-style variable activities, and Luby
// restarts.
type sat struct {
	// arena holds every clause (see cref); wasted counts the words
	// held by deleted clauses until compact reclaims them. clauses and
	// learnts list the live problem and learnt clauses in insertion
	// order.
	arena   []lit
	wasted  int
	clauses []cref
	learnts []cref
	watches [][]watcher // indexed by lit

	assigns  []tribool // indexed by var
	level    []int
	reason   []cref // crefNone for decisions, units and unassigned vars
	activity []float64
	polarity []bool // phase saving
	varInc   float64

	trail    []lit
	trailLim []int
	qhead    int

	heap    []int // binary max-heap of vars by activity
	heapPos []int // var -> heap index, -1 if absent

	seen []bool

	// learntBuf is the clause under construction in analyze, reused
	// across conflicts.
	learntBuf []lit

	numVars      int
	failed       bool
	propagations int64
	conflicts    int64
	decisions    int64

	budget *Budget
}

// defaultRestartBase is the Luby restart unit, in conflicts.
const defaultRestartBase = 64

func newSAT(budget *Budget) *sat {
	s := &sat{}
	s.reset(budget)
	return s
}

// reset returns the core to its freshly constructed state (no
// variables beyond the placeholder, no clauses) while keeping the
// capacity of every vector and watch list, so a core answering one
// query after another stops regrowing them from zero.
func (s *sat) reset(budget *Budget) {
	*s = sat{
		arena:     append(s.arena[:0], 0), // cref 0 sentinel
		clauses:   s.clauses[:0],
		learnts:   s.learnts[:0],
		watches:   s.watches[:0],
		assigns:   s.assigns[:0],
		level:     s.level[:0],
		reason:    s.reason[:0],
		activity:  s.activity[:0],
		polarity:  s.polarity[:0],
		trail:     s.trail[:0],
		trailLim:  s.trailLim[:0],
		heap:      s.heap[:0],
		heapPos:   s.heapPos[:0],
		seen:      s.seen[:0],
		learntBuf: s.learntBuf[:0],

		varInc: 1,
		budget: budget,
	}
	s.newVar() // var 0 placeholder
}

// clauseLits returns clause c's literals, aliasing the arena: watch
// maintenance reorders them in place. Valid until the next clause is
// allocated or the arena compacted.
func (s *sat) clauseLits(c cref) []lit {
	end := c + 1 + cref(s.arena[c]>>clauseShift)
	return s.arena[c+1 : end : end]
}

// allocClause appends a clause of lits (at least two) to the arena.
func (s *sat) allocClause(lits []lit, learnt bool) cref {
	c := cref(len(s.arena))
	h := lit(len(lits)) << clauseShift
	if learnt {
		h |= clauseLearnt
	}
	s.arena = append(s.arena, h)
	s.arena = append(s.arena, lits...)
	return c
}

func (s *sat) newVar() int {
	v := s.numVars
	s.numVars++
	s.assigns = append(s.assigns, tUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefNone)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, false)
	s.seen = append(s.seen, false)
	s.heapPos = append(s.heapPos, -1)
	// Watch lists left past len by reset keep their capacity.
	if n := len(s.watches); n+2 <= cap(s.watches) {
		s.watches = s.watches[:n+2]
		s.watches[n] = s.watches[n][:0]
		s.watches[n+1] = s.watches[n+1][:0]
	} else {
		s.watches = append(s.watches, nil, nil)
	}
	if v != 0 {
		s.heapInsert(v)
	}
	return v
}

func (s *sat) value(l lit) tribool {
	v := s.assigns[l.vindex()]
	if l.sign() {
		return v.negate()
	}
	return v
}

// addClause installs a problem clause at decision level 0; it returns
// false if the clause system is trivially unsatisfiable. It simplifies
// lits in place: duplicate and false literals are removed, and
// tautologies and satisfied clauses are dropped. A false return marks
// the solver permanently failed (unsatisfiable at level 0). Duplicate
// detection is a linear scan over the kept prefix — clauses here are
// Tseitin-sized (2-3 literals), and the map this used to allocate per
// clause dominated blasting time.
func (s *sat) addClause(lits []lit) bool {
	out := lits[:0]
outer:
	for _, l := range lits {
		for _, o := range out {
			if o == l {
				continue outer
			}
			if o == l.negate() {
				return true // tautology
			}
		}
		switch s.value(l) {
		case tTrue:
			if s.level[l.vindex()] == 0 {
				return true
			}
		case tFalse:
			if s.level[l.vindex()] == 0 {
				continue
			}
		}
		out = append(out, l)
	}
	lits = out
	switch len(lits) {
	case 0:
		s.failed = true
		return false
	case 1:
		if s.value(lits[0]) == tFalse {
			s.failed = true
			return false
		}
		if s.value(lits[0]) == tUndef {
			s.uncheckedEnqueue(lits[0], crefNone)
		}
		if s.propagate() != crefNone {
			s.failed = true
			return false
		}
		return true
	}
	c := s.allocClause(lits, false)
	s.clauses = append(s.clauses, c)
	s.watchClause(c)
	return true
}

func (s *sat) watchClause(c cref) {
	lits := s.clauseLits(c)
	s.watches[lits[0].negate()] = append(s.watches[lits[0].negate()], watcher{c})
	s.watches[lits[1].negate()] = append(s.watches[lits[1].negate()], watcher{c})
}

// learn attaches the clause analyze derived and enqueues its asserting
// literal; the caller has already backtracked to the asserting level.
func (s *sat) learn(learnt []lit) {
	if len(learnt) == 1 {
		s.uncheckedEnqueue(learnt[0], crefNone)
		return
	}
	c := s.allocClause(learnt, true)
	s.learnts = append(s.learnts, c)
	s.watchClause(c)
	s.uncheckedEnqueue(learnt[0], c)
}

func (s *sat) uncheckedEnqueue(l lit, from cref) {
	v := l.vindex()
	if l.sign() {
		s.assigns[v] = tFalse
	} else {
		s.assigns[v] = tTrue
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

func (s *sat) decisionLevel() int { return len(s.trailLim) }

// propagate performs unit propagation; it returns the conflicting
// clause or crefNone.
func (s *sat) propagate() cref {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagations++
		falseLit := p.negate()
		ws := s.watches[p]
		kept := ws[:0]
		conflict := crefNone
		for wi := 0; wi < len(ws); wi++ {
			w := ws[wi]
			if conflict != crefNone {
				kept = append(kept, w)
				continue
			}
			lits := s.clauseLits(w.c)
			// Ensure the false literal is lits[1].
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			// Clause already satisfied by lits[0]?
			if s.value(lits[0]) == tTrue {
				kept = append(kept, w)
				continue
			}
			// Look for a new literal to watch.
			found := false
			for i := 2; i < len(lits); i++ {
				if s.value(lits[i]) != tFalse {
					lits[1], lits[i] = lits[i], lits[1]
					s.watches[lits[1].negate()] = append(s.watches[lits[1].negate()], w)
					found = true
					break
				}
			}
			if found {
				continue // moved to another watch list
			}
			// Unit or conflicting.
			kept = append(kept, w)
			if s.value(lits[0]) == tFalse {
				conflict = w.c
				s.qhead = len(s.trail)
			} else {
				s.uncheckedEnqueue(lits[0], w.c)
			}
		}
		s.watches[p] = kept
		if conflict != crefNone {
			return conflict
		}
	}
	return crefNone
}

// analyze performs first-UIP conflict analysis, returning the learnt
// clause (asserting literal first) and the backtrack level. The clause
// lives in a scratch buffer, valid until the next analyze.
func (s *sat) analyze(conflict cref) ([]lit, int) {
	learnt := append(s.learntBuf[:0], litUndef)
	counter := 0
	var p lit = litUndef
	idx := len(s.trail) - 1
	c := conflict
	for {
		start := 0
		if p != litUndef {
			start = 1
		}
		for _, q := range s.clauseLits(c)[start:] {
			v := q.vindex()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				s.bumpVar(v)
				if s.level[v] >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Select next literal from trail.
		for !s.seen[s.trail[idx].vindex()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.vindex()
		s.seen[v] = false
		counter--
		c = s.reason[v]
		if counter == 0 {
			break
		}
	}
	learnt[0] = p.negate()
	// Compute backtrack level: max level among learnt[1:].
	bt := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].vindex()] > s.level[learnt[maxI].vindex()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = s.level[learnt[1].vindex()]
	}
	for _, q := range learnt {
		s.seen[q.vindex()] = false
	}
	s.learntBuf = learnt
	return learnt, bt
}

func (s *sat) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heapPos[v] >= 0 {
		s.heapUp(s.heapPos[v])
	}
}

func (s *sat) decayActivities() { s.varInc /= 0.95 }

func (s *sat) backtrackTo(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].vindex()
		s.polarity[v] = s.assigns[v] == tTrue
		s.assigns[v] = tUndef
		s.reason[v] = crefNone
		if s.heapPos[v] < 0 {
			s.heapInsert(v)
		}
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *sat) pickBranchVar() int {
	for len(s.heap) > 0 {
		v := s.heapRemoveMax()
		if s.assigns[v] == tUndef {
			return v
		}
	}
	return -1
}

// Heap operations (max-heap on activity).

func (s *sat) heapInsert(v int) {
	s.heap = append(s.heap, v)
	s.heapPos[v] = len(s.heap) - 1
	s.heapUp(len(s.heap) - 1)
}

func (s *sat) heapUp(i int) {
	v := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if s.activity[s.heap[p]] >= s.activity[v] {
			break
		}
		s.heap[i] = s.heap[p]
		s.heapPos[s.heap[i]] = i
		i = p
	}
	s.heap[i] = v
	s.heapPos[v] = i
}

func (s *sat) heapDown(i int) {
	v := s.heap[i]
	n := len(s.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.activity[s.heap[c+1]] > s.activity[s.heap[c]] {
			c++
		}
		if s.activity[s.heap[c]] <= s.activity[v] {
			break
		}
		s.heap[i] = s.heap[c]
		s.heapPos[s.heap[i]] = i
		i = c
	}
	s.heap[i] = v
	s.heapPos[v] = i
}

func (s *sat) heapRemoveMax() int {
	v := s.heap[0]
	last := s.heap[len(s.heap)-1]
	s.heap = s.heap[:len(s.heap)-1]
	s.heapPos[v] = -1
	if len(s.heap) > 0 {
		s.heap[0] = last
		s.heapPos[last] = 0
		s.heapDown(0)
	}
	return v
}

// luby returns the i-th element (1-based) of the Luby restart
// sequence.
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i >= 1<<uint(k-1) && i < (1<<uint(k))-1 {
			return luby(i - (1 << uint(k-1)) + 1)
		}
	}
}

// satResult mirrors Result for the SAT core.
type satResult int

const (
	satSat satResult = iota
	satUnsat
	satUnknown
)

// solve runs the CDCL loop. On satSat, assigns holds a full model; on
// satUnsat or satUnknown the trail is fully retracted.
func (s *sat) solve() satResult {
	if s.failed {
		s.dropTrail()
		return satUnsat
	}
	s.backtrackTo(0)
	var restarts int64
	conflictsUntilRestart := luby(1) * defaultRestartBase
	var conflictCount int64
	maxLearnts := len(s.clauses)/2 + 1000
	for {
		conflict := s.propagate()
		if conflict != crefNone {
			s.conflicts++
			conflictCount++
			if s.budget != nil && !s.budget.spend(50) {
				s.dropTrail()
				return satUnknown
			}
			if s.decisionLevel() == 0 {
				// Conflict with no decisions assigned: the clause
				// database itself is unsatisfiable, permanently.
				s.failed = true
				s.dropTrail()
				return satUnsat
			}
			learnt, bt := s.analyze(conflict)
			s.backtrackTo(bt)
			s.learn(learnt)
			s.decayActivities()
			continue
		}
		if conflictCount >= conflictsUntilRestart {
			restarts++
			conflictCount = 0
			conflictsUntilRestart = luby(restarts+1) * defaultRestartBase
			s.backtrackTo(0)
		}
		if len(s.learnts) > maxLearnts {
			s.reduceLearnts()
			maxLearnts = maxLearnts*11/10 + 100
		}
		if s.budget != nil && !s.budget.spend(1) {
			s.dropTrail()
			return satUnknown
		}
		v := s.pickBranchVar()
		if v < 0 {
			return satSat
		}
		s.decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(mkLit(v, !s.polarity[v]), crefNone)
	}
}

// dropTrail fully retracts the trail; called on every non-sat exit.
func (s *sat) dropTrail() { s.backtrackTo(0) }

// locked reports whether clause c is the reason for an assignment on
// the trail. A reason clause always implies its first literal (the
// literal is true, so watch maintenance never swaps it away), so only
// that variable needs checking.
func (s *sat) locked(c cref) bool {
	return s.reason[s.arena[c+1].vindex()] == c
}

// reduceLearnts drops roughly half of the learnt clauses (the longer
// ones), keeping reason clauses. Dropped clauses are flagged deleted in
// their headers and unhooked from the watch lists; their arena space
// is reclaimed by compact once it is half the arena.
func (s *sat) reduceLearnts() {
	// Simple policy: keep binary clauses and the shorter half.
	kept := s.learnts[:0]
	removed := false
	n := len(s.learnts)
	for i, c := range s.learnts {
		size := int(s.arena[c] >> clauseShift)
		if size <= 2 || i >= n/2 || s.locked(c) {
			kept = append(kept, c)
		} else {
			s.arena[c] |= clauseDeleted
			s.wasted += 1 + size
			removed = true
		}
	}
	s.learnts = kept
	if !removed {
		return
	}
	for li, ws := range s.watches {
		out := ws[:0]
		for _, w := range ws {
			if s.arena[w.c]&clauseDeleted == 0 {
				out = append(out, w)
			}
		}
		s.watches[li] = out
	}
	if 2*s.wasted > len(s.arena) {
		s.compact()
	}
}

// compact rebuilds the arena without deleted clauses, keeping live
// ones in their relative order, and rewrites every cref the core
// holds. crefs are opaque handles, so the search is unaffected.
func (s *sat) compact() {
	old := s.arena
	to := make([]lit, 1, len(old)-s.wasted)
	for c := 1; c < len(old); {
		h := old[c]
		end := c + 1 + int(h>>clauseShift)
		if h&clauseDeleted == 0 {
			// Every clause has at least two literals, so old[c+1] can
			// hold the forwarding address once the clause is copied.
			to = append(to, old[c:end]...)
			old[c+1] = lit(len(to) - (end - c))
		}
		c = end
	}
	fwd := func(c cref) cref { return cref(old[c+1]) }
	for i, c := range s.clauses {
		s.clauses[i] = fwd(c)
	}
	for i, c := range s.learnts {
		s.learnts[i] = fwd(c)
	}
	for v, c := range s.reason {
		if c != crefNone {
			s.reason[v] = fwd(c)
		}
	}
	for _, ws := range s.watches {
		for i := range ws {
			ws[i].c = fwd(ws[i].c)
		}
	}
	s.arena, s.wasted = to, 0
}

// modelValue returns the model value of var v after satSat.
func (s *sat) modelValue(v int) bool { return s.assigns[v] == tTrue }
