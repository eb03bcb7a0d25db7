package solver

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"execrecon/internal/expr"
)

// reuseQuery is one step of the reuse differential: a constraint
// system plus the options it is solved under.
type reuseQuery struct {
	kind string
	cs   []*expr.Expr
	opts Options
}

// genReuseQueries builds a mixed query sequence over one builder:
// random sat and unsat systems (the unsat ones fail at the root while
// blasting), factoring and store-chain queries under budgets tight
// enough to exhaust (ResultUnknown), constant-false early exits, and
// unlimited random systems.
func genReuseQueries(b *expr.Builder, rng *rand.Rand, n int) []reuseQuery {
	var qs []reuseQuery
	for i := 0; i < n; i++ {
		opts := DefaultOptions()
		var q reuseQuery
		switch k := rng.Intn(7); k {
		case 0, 1:
			q = reuseQuery{kind: "system", cs: genSystemIn(b, rng, k == 1)}
		case 2:
			// x*y == c with both factors non-trivial: conflict-heavy.
			const w = 14
			x, y := b.Var("fx", w), b.Var("fy", w)
			c := uint64(rng.Intn(1<<w-3) + 3)
			q = reuseQuery{kind: "factor", cs: []*expr.Expr{
				b.Eq(b.Mul(x, y), b.Const(c, w)),
				b.Ult(b.Const(1, w), x), b.Ult(b.Const(1, w), y),
				b.Ult(x, b.Const(1<<(w/2+1), w)), b.Ult(y, b.Const(1<<(w/2+1), w)),
			}}
		case 3:
			arr := b.ConstArray(b.Const(0, 8), 32)
			for j := 0; j < 2+rng.Intn(10); j++ {
				arr = b.Store(arr, b.Var(fmt.Sprintf("i%d", j), 32), b.Const(uint64(j+1), 8))
			}
			sel := b.Select(arr, b.Var("j", 32))
			q = reuseQuery{kind: "chain", cs: []*expr.Expr{b.Eq(sel, b.Const(uint64(1+rng.Intn(4)), 8))}}
		case 4:
			q = reuseQuery{kind: "false", cs: append(genSystemIn(b, rng, false), b.False())}
		case 5:
			// Never step-limited. The kind is named after the portfolio
			// racing these queries once exercised; name and draws are
			// kept so the random sequence, and the search golden file
			// drawn from it, stay stable.
			q = reuseQuery{kind: "portfolio", cs: genSystemIn(b, rng, rng.Intn(3) == 0)}
		default:
			q = reuseQuery{kind: "system", cs: genSystemIn(b, rng, false)}
		}
		if q.kind != "portfolio" && rng.Intn(3) == 0 {
			opts.MaxSteps = int64(50 + rng.Intn(3000))
		}
		q.opts = opts
		qs = append(qs, q)
	}
	return qs
}

// TestSolverReuseDifferential answers one random query sequence with a
// single Solver and with a fresh Solver per query. Result, model and
// every work counter must agree exactly: reuse may only change
// allocation.
func TestSolverReuseDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	b := expr.NewBuilder()
	qs := genReuseQueries(b, rng, 120)
	reused := New(b, DefaultOptions())
	seen := map[Result]int{}
	for i, q := range qs {
		reused.opts = q.opts
		rres, rmodel, rerr := reused.Solve(q.cs)
		fresh := New(b, q.opts)
		fres, fmodel, ferr := fresh.Solve(q.cs)
		if (rerr != nil) != (ferr != nil) || rres != fres {
			t.Fatalf("query %d (%s): reused %v/%v, fresh %v/%v", i, q.kind, rres, rerr, fres, ferr)
		}
		if !reflect.DeepEqual(rmodel, fmodel) {
			t.Fatalf("query %d (%s): models differ: reused %v, fresh %v", i, q.kind, rmodel, fmodel)
		}
		rs, fs := reused.LastStats(), fresh.LastStats()
		type counters struct {
			Steps                              int64
			SATVars, SATClauses                int
			Propagations, Conflicts, Decisions int64
		}
		rc := counters{rs.Steps, rs.SATVars, rs.SATClauses, rs.Propagations, rs.Conflicts, rs.Decisions}
		fc := counters{fs.Steps, fs.SATVars, fs.SATClauses, fs.Propagations, fs.Conflicts, fs.Decisions}
		if rc != fc {
			t.Fatalf("query %d (%s): stats differ: reused %+v, fresh %+v", i, q.kind, rc, fc)
		}
		seen[rres]++
	}
	for _, r := range []Result{ResultSat, ResultUnsat, ResultUnknown} {
		if seen[r] == 0 {
			t.Errorf("query mix never produced %v: %v", r, seen)
		}
	}
}

// genSystemIn builds a random constraint system over three 12-bit
// variables of b. With a witness it is satisfiable by construction;
// the unsat variants additionally pin a variable to two different
// values.
func genSystemIn(b *expr.Builder, rng *rand.Rand, unsat bool) []*expr.Expr {
	const w = 12
	vars := []*expr.Expr{b.Var("a", w), b.Var("b", w), b.Var("c", w)}
	witness := expr.NewAssignment()
	for _, v := range vars {
		witness.Vars[v.Name] = uint64(rng.Intn(1 << w))
	}
	var gen func(depth int) *expr.Expr
	gen = func(depth int) *expr.Expr {
		if depth == 0 || rng.Intn(3) == 0 {
			if rng.Intn(2) == 0 {
				return vars[rng.Intn(len(vars))]
			}
			return b.Const(uint64(rng.Intn(1<<w)), w)
		}
		x, y := gen(depth-1), gen(depth-1)
		switch rng.Intn(8) {
		case 0:
			return b.Add(x, y)
		case 1:
			return b.Sub(x, y)
		case 2:
			return b.And(x, y)
		case 3:
			return b.Or(x, y)
		case 4:
			return b.Xor(x, y)
		case 5:
			return b.Mul(x, b.Const(uint64(rng.Intn(8)), w))
		case 6:
			return b.Ite(b.Ult(x, y), x, y)
		default:
			return b.Not(x)
		}
	}
	var cs []*expr.Expr
	for k := 0; k < 4; k++ {
		e := gen(3)
		cs = append(cs, b.Eq(e, b.Const(witness.MustEval(e), w)))
	}
	if unsat {
		v := vars[rng.Intn(len(vars))]
		pin := witness.Vars[v.Name]
		cs = append(cs,
			b.Eq(v, b.Const(pin, w)),
			b.Eq(v, b.Const(pin^1, w)))
	}
	return cs
}

// randomCNF returns a random 3-SAT instance over n variables.
func randomCNF(rng *rand.Rand, n, m int) [][]lit {
	cnf := make([][]lit, m)
	for i := range cnf {
		for j := 0; j < 3; j++ {
			cnf[i] = append(cnf[i], mkLit(1+rng.Intn(n), rng.Intn(2) == 0))
		}
	}
	return cnf
}

// solveCNF loads cnf into s (which must be fresh or reset) and
// solves it.
func solveCNF(s *sat, n int, cnf [][]lit) satResult {
	for s.numVars <= n {
		s.newVar()
	}
	for _, c := range cnf {
		if !s.addClause(append([]lit(nil), c...)) {
			return satUnsat
		}
	}
	return s.solve()
}

// checkModel reports whether s's current assignment satisfies cnf.
func checkModel(s *sat, cnf [][]lit) bool {
	for _, c := range cnf {
		ok := false
		for _, l := range c {
			if s.value(l) == tTrue {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// TestSATCoreReuseDifferential runs random 3-SAT instances near the
// phase transition — hard enough to learn thousands of clauses, so
// reduceLearnts and arena compaction both run — on one core reset
// between instances and on a fresh core each. Verdicts, models and
// search counters must be identical.
func TestSATCoreReuseDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	reused := newSAT(nil)
	verdicts := map[satResult]int{}
	for trial := 0; trial < 12; trial++ {
		n := 80 + rng.Intn(120)
		cnf := randomCNF(rng, n, n*426/100)
		reused.reset(nil)
		rres := solveCNF(reused, n, cnf)
		fresh := newSAT(nil)
		fres := solveCNF(fresh, n, cnf)
		if rres != fres {
			t.Fatalf("trial %d: reused %v, fresh %v", trial, rres, fres)
		}
		if reused.conflicts != fresh.conflicts || reused.propagations != fresh.propagations ||
			reused.decisions != fresh.decisions || len(reused.learnts) != len(fresh.learnts) {
			t.Fatalf("trial %d: counters differ: reused c=%d p=%d d=%d l=%d, fresh c=%d p=%d d=%d l=%d", trial,
				reused.conflicts, reused.propagations, reused.decisions, len(reused.learnts),
				fresh.conflicts, fresh.propagations, fresh.decisions, len(fresh.learnts))
		}
		if !reflect.DeepEqual(reused.assigns, fresh.assigns) {
			t.Fatalf("trial %d: models differ", trial)
		}
		if rres == satSat && !checkModel(reused, cnf) {
			t.Fatalf("trial %d: model does not satisfy the CNF", trial)
		}
		verdicts[rres]++
	}
	if verdicts[satSat] == 0 || verdicts[satUnsat] == 0 {
		t.Errorf("instance mix not balanced: %v", verdicts)
	}
}

// snapshotClauses copies the literals of the live problem and learnt
// clauses, in list order.
func snapshotClauses(s *sat) [][]lit {
	var out [][]lit
	for _, cs := range [][]cref{s.clauses, s.learnts} {
		for _, c := range cs {
			out = append(out, append([]lit(nil), s.clauseLits(c)...))
		}
	}
	return out
}

// checkArena verifies the core's clause references: the arena holds
// exactly the live clauses, every watcher sits on the list of one of
// its clause's two watched literals, and every reason clause implies
// its variable through its first literal.
func checkArena(t *testing.T, s *sat) {
	t.Helper()
	live := 1
	for _, cs := range [][]cref{s.clauses, s.learnts} {
		for _, c := range cs {
			if s.arena[c]&clauseDeleted != 0 {
				t.Fatalf("live clause %d flagged deleted", c)
			}
			live += 1 + len(s.clauseLits(c))
		}
	}
	if live+s.wasted != len(s.arena) {
		t.Fatalf("arena holds %d words, live %d + wasted %d", len(s.arena), live, s.wasted)
	}
	for li, ws := range s.watches {
		for _, w := range ws {
			lits := s.clauseLits(w.c)
			if lits[0].negate() != lit(li) && lits[1].negate() != lit(li) {
				t.Fatalf("watcher on %d for clause %v watching neither literal", li, lits)
			}
		}
	}
	for v, c := range s.reason {
		if c != crefNone && s.clauseLits(c)[0].vindex() != v {
			t.Fatalf("reason of var %d is clause %v", v, s.clauseLits(c))
		}
	}
}

// TestArenaCompact forces a learnt-clause reduction and a compaction
// in the middle of a held model and checks that the clause database
// survives intact — same literals in the same order, consistent
// watches and reasons — and that solving continues to a valid verdict.
func TestArenaCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	compacted := 0
	for trial := 0; trial < 20; trial++ {
		n := 60 + rng.Intn(60)
		cnf := randomCNF(rng, n, n*4)
		s := newSAT(nil)
		if solveCNF(s, n, cnf) != satSat {
			continue
		}
		s.reduceLearnts()
		checkArena(t, s)
		before := snapshotClauses(s)
		s.compact()
		compacted++
		if s.wasted != 0 {
			t.Fatalf("trial %d: %d words still wasted after compact", trial, s.wasted)
		}
		checkArena(t, s)
		if after := snapshotClauses(s); !reflect.DeepEqual(before, after) {
			t.Fatalf("trial %d: compaction changed the clause database", trial)
		}
		// Block the held model and keep solving on the compacted core;
		// a fresh core on the same clauses must reach the same verdict.
		block := make([]lit, 0, n)
		for v := 1; v <= n; v++ {
			block = append(block, mkLit(v, s.modelValue(v)))
		}
		cnf = append(cnf, block)
		s.backtrackTo(0)
		s.addClause(append([]lit(nil), block...))
		res := s.solve()
		if want := solveCNF(newSAT(nil), n, cnf); res != want {
			t.Fatalf("trial %d: compacted core says %v, fresh core %v", trial, res, want)
		}
		if res == satSat && !checkModel(s, cnf) {
			t.Fatalf("trial %d: post-compaction model does not satisfy the CNF", trial)
		}
	}
	if compacted == 0 {
		t.Fatal("no satisfiable instance to compact")
	}
}
