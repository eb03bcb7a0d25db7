package solver

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"execrecon/internal/expr"
)

// goldenQueries is the fixed query corpus of TestSearchGolden:
//   - the reuse-differential corpus (seed 2024, 120 queries) plus a
//     second draw of 40, covering sat, root-unsat, early-false and
//     budget-exhausted queries;
//   - random 3-SAT near the phase transition, encoded over one-bit
//     variables, whose searches restart, some of them under budgets
//     they exhaust.
func goldenQueries(b *expr.Builder) []reuseQuery {
	qs := genReuseQueries(b, rand.New(rand.NewSource(2024)), 120)
	qs = append(qs, genReuseQueries(b, rand.New(rand.NewSource(77)), 40)...)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 40; i++ {
		n := 90 + rng.Intn(60)
		cnf := randomCNF(rng, n, n*426/100)
		vars := make([]*expr.Expr, n+1)
		for v := 1; v <= n; v++ {
			vars[v] = b.Var(fmt.Sprintf("p%d", v), 1)
		}
		cs := make([]*expr.Expr, 0, len(cnf))
		for _, cl := range cnf {
			var or *expr.Expr
			for _, l := range cl {
				e := vars[l.vindex()]
				if l.sign() {
					e = b.BoolNot(e)
				}
				if or == nil {
					or = e
				} else {
					or = b.BoolOr(or, e)
				}
			}
			cs = append(cs, or)
		}
		opts := DefaultOptions()
		if i%4 == 3 {
			opts.MaxSteps = int64(20000 + rng.Intn(40000))
		}
		qs = append(qs, reuseQuery{kind: "3sat", cs: cs, opts: opts})
	}
	return qs
}

// modelDigest is a sha256 over the sorted textual form of a model;
// "-" for no model.
func modelDigest(m *expr.Assignment) string {
	if m == nil {
		return "-"
	}
	var lines []string
	for name, v := range m.Vars {
		lines = append(lines, fmt.Sprintf("%s=%d", name, v))
	}
	for name, av := range m.Arrays {
		for i, v := range av.Elems {
			lines = append(lines, fmt.Sprintf("%s[%d]=%d", name, i, v))
		}
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return fmt.Sprintf("%x", sum[:12])
}

// goldenCNF is one raw 3-SAT instance of TestSearchGolden, solved on
// the SAT core directly: large enough that the search restarts many
// times and reduces its learnt clauses, which Tseitin-encoded
// instances of a test-friendly size never reach.
type goldenCNF struct {
	n        int
	cnf      [][]lit
	maxSteps int64
}

func goldenCNFs() []goldenCNF {
	rng := rand.New(rand.NewSource(13))
	var out []goldenCNF
	for i := 0; i < 12; i++ {
		n := 170 + rng.Intn(60)
		g := goldenCNF{n: n, cnf: randomCNF(rng, n, n*426/100)}
		if i%4 == 3 {
			g.maxSteps = int64(100000 + rng.Intn(100000))
		}
		out = append(out, g)
	}
	return out
}

// searchGoldenLines solves every golden query with a fresh Solver,
// then every golden CNF on one reset core, and renders one line each:
// the query's kind, result, model digest, and the search counters.
func searchGoldenLines(t *testing.T) []string {
	t.Helper()
	b := expr.NewBuilder()
	var out []string
	for i, q := range goldenQueries(b) {
		s := New(b, q.opts)
		res, model, err := s.Solve(q.cs)
		if err != nil {
			t.Fatalf("query %d (%s): %v", i, q.kind, err)
		}
		st := s.LastStats()
		out = append(out, fmt.Sprintf("%d %s %v %s steps=%d vars=%d clauses=%d props=%d conflicts=%d decisions=%d",
			i, q.kind, res, modelDigest(model), st.Steps, st.SATVars, st.SATClauses,
			st.Propagations, st.Conflicts, st.Decisions))
	}
	core := newSAT(nil)
	for i, g := range goldenCNFs() {
		budget := &Budget{MaxSteps: g.maxSteps}
		core.reset(budget)
		res := solveCNF(core, g.n, g.cnf)
		digest := "-"
		if res == satSat {
			var sb strings.Builder
			for v := 1; v <= g.n; v++ {
				fmt.Fprintf(&sb, "%t,", core.modelValue(v))
			}
			sum := sha256.Sum256([]byte(sb.String()))
			digest = fmt.Sprintf("%x", sum[:12])
		}
		out = append(out, fmt.Sprintf("cnf%d %v %s steps=%d vars=%d clauses=%d props=%d conflicts=%d decisions=%d learnts=%d",
			i, []Result{ResultSat, ResultUnsat, ResultUnknown}[res], digest, budget.Used(), core.numVars,
			len(core.clauses), core.propagations, core.conflicts, core.decisions, len(core.learnts)))
	}
	return out
}

// TestSearchGolden pins the one-shot search: for every golden query
// the verdict, the model and every search counter must equal the
// recorded run in testdata/search_golden.txt. A change to the CDCL
// core, the blaster or the budget metering that moves any of them
// moves the stall points ER's reconstruction is built on.
func TestSearchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("solves 200 queries, some of them hard")
	}
	f, err := os.Open("testdata/search_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := searchGoldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d queries, golden file has %d", len(got), len(want))
	}
	seen := map[string]int{}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], want[i])
		}
		if f := strings.Fields(got[i]); !strings.HasPrefix(f[0], "cnf") {
			seen[f[2]]++
		}
	}
	for _, r := range []Result{ResultSat, ResultUnsat, ResultUnknown} {
		if seen[r.String()] == 0 {
			t.Errorf("golden corpus never produced %v: %v", r, seen)
		}
	}
}
