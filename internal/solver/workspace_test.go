package solver

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"execrecon/internal/expr"
)

// solveOutcome is everything a query's answer is compared on: the
// verdict, the error, the model and the work counters.
type solveOutcome struct {
	Res                                Result
	Err                                string
	Model                              *expr.Assignment
	Steps                              int64
	SATVars, SATClauses                int
	Propagations, Conflicts, Decisions int64
}

// solveFresh answers cs with a new Solver, as each symbolic execution
// engine does.
func solveFresh(b *expr.Builder, q reuseQuery) solveOutcome {
	s := New(b, q.opts)
	res, model, err := s.Solve(q.cs)
	o := solveOutcome{Res: res, Model: model}
	if err != nil {
		o.Err = err.Error()
	}
	st := s.LastStats()
	o.Steps, o.SATVars, o.SATClauses = st.Steps, st.SATVars, st.SATClauses
	o.Propagations, o.Conflicts, o.Decisions = st.Propagations, st.Conflicts, st.Decisions
	return o
}

// growQuery is a 24-bit factoring query whose CNF is larger than any
// in the reuse corpus.
func growQuery(b *expr.Builder) reuseQuery {
	const w = 24
	x, y := b.Var("gx", w), b.Var("gy", w)
	return reuseQuery{kind: "grow", opts: DefaultOptions(), cs: []*expr.Expr{
		b.Eq(b.Mul(x, y), b.Const(4093*4091, w)),
		b.Ult(b.Const(1, w), x), b.Ult(b.Const(1, w), y),
	}}
}

// TestWorkspaceReuseAcrossSolvers answers the reuse corpus with a new
// Solver per query, once in the workspace a larger query has just
// grown and once in a freshly built workspace. Verdicts, models and
// every work counter must agree: the borrowed workspace may only
// change allocation.
func TestWorkspaceReuseAcrossSolvers(t *testing.T) {
	b := expr.NewBuilder()
	qs := genReuseQueries(b, rand.New(rand.NewSource(2024)), 120)
	grow := growQuery(b)
	seen := map[Result]int{}
	for i, q := range qs {
		if g := solveFresh(b, grow); g.Res != ResultSat {
			t.Fatalf("grow query: %v %s", g.Res, g.Err)
		}
		grown := solveFresh(b, q)
		idleWS.Store(nil)
		fresh := solveFresh(b, q)
		if !reflect.DeepEqual(grown, fresh) {
			t.Fatalf("query %d (%s): grown workspace %+v, fresh workspace %+v", i, q.kind, grown, fresh)
		}
		seen[grown.Res]++
	}
	for _, r := range []Result{ResultSat, ResultUnsat, ResultUnknown} {
		if seen[r] == 0 {
			t.Errorf("query mix never produced %v: %v", r, seen)
		}
	}
}

// solveCorpus builds the reuse corpus over a builder of its own and
// answers it with a new Solver per query. Builders are not safe for
// concurrent use, so concurrent callers each build their own; node ids
// follow creation order, so every copy of the corpus is the same.
func solveCorpus() []solveOutcome {
	b := expr.NewBuilder()
	qs := genReuseQueries(b, rand.New(rand.NewSource(2024)), 120)
	out := make([]solveOutcome, len(qs))
	for i, q := range qs {
		out[i] = solveFresh(b, q)
	}
	return out
}

// TestWorkspaceReuseConcurrent answers the corpus from GOMAXPROCS
// goroutines at once, so Solve calls contend for the one idle
// workspace, and requires every goroutine's answers to equal the
// sequential ones.
func TestWorkspaceReuseConcurrent(t *testing.T) {
	want := solveCorpus()
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		n = 2
	}
	got := make([][]solveOutcome, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = solveCorpus()
		}(g)
	}
	wg.Wait()
	for g := range got {
		for i := range want {
			if !reflect.DeepEqual(got[g][i], want[i]) {
				t.Fatalf("goroutine %d, query %d: concurrent %+v, sequential %+v", g, i, got[g][i], want[i])
			}
		}
	}
}

// blastCDCLQueries is BenchmarkBlastCDCL's query set: a conflict-heavy
// factoring query plus a batch of random systems.
func blastCDCLQueries(eb *expr.Builder) [][]*expr.Expr {
	const w = 16
	x, y := eb.Var("x", w), eb.Var("y", w)
	queries := [][]*expr.Expr{{
		eb.Eq(eb.Mul(x, y), eb.Const(251*241, w)),
		eb.Ult(eb.Const(1, w), x), eb.Ult(eb.Const(1, w), y),
		eb.Ult(x, eb.Const(256, w)), eb.Ult(y, eb.Const(256, w)),
	}}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		queries = append(queries, genSystemIn(eb, rng, i%4 == 3))
	}
	return queries
}

// TestSolveAllocs bounds the allocations of answering
// BenchmarkBlastCDCL's query set with a new Solver per query once the
// idle workspace has grown to fit it. Rebuilding the SAT core, the
// blaster maps and every bit vector per query cost about 7,300.
func TestSolveAllocs(t *testing.T) {
	eb := expr.NewBuilder()
	queries := blastCDCLQueries(eb)
	solveSet := func() {
		for _, q := range queries {
			if _, _, err := New(eb, Options{}).Solve(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	solveSet() // warm-up: grow the workspace, intern the solver's nodes
	const maxAllocs = 300
	if n := testing.AllocsPerRun(20, solveSet); n > maxAllocs {
		t.Errorf("solving the query set allocates %.0f times, want <= %d", n, maxAllocs)
	}
}
