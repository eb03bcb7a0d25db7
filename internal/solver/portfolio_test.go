package solver

import (
	"math/rand"
	"testing"

	"execrecon/internal/expr"
)

// genSystem builds a random constraint system over three 12-bit
// variables. With a witness it is satisfiable by construction; the
// unsat variants additionally pin a variable to two different values.
func genSystem(rng *rand.Rand, unsat bool) (*expr.Builder, []*expr.Expr) {
	b := expr.NewBuilder()
	return b, genSystemIn(b, rng, unsat)
}

// genSystemIn is genSystem over an existing builder, so a sequence of
// systems can share one Solver.
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

// TestPortfolioDifferential races K ∈ {2,4,8} seeded workers (with
// cube splitting forced on) against the sequential one-shot solver on
// randomized systems: verdicts must match exactly, and both models —
// which may legitimately differ — must satisfy the constraints.
func TestPortfolioDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for _, workers := range []int{2, 4, 8} {
		for trial := 0; trial < 12; trial++ {
			unsat := trial%3 == 2
			b, cs := genSystem(rng, unsat)

			seq := New(b, DefaultOptions())
			sres, smodel, err := seq.Solve(cs)
			if err != nil {
				t.Fatalf("K=%d trial %d: sequential: %v", workers, trial, err)
			}

			port := NewPortfolio(b, DefaultOptions(), PortfolioOptions{
				Workers:        workers,
				CubeVars:       2,
				CubeMinClauses: 1, // force the cube path on small CNFs
			})
			pres, pmodel, err := port.Solve(cs)
			if err != nil {
				t.Fatalf("K=%d trial %d: portfolio: %v", workers, trial, err)
			}
			if pres != sres {
				t.Fatalf("K=%d trial %d: verdict diverged: sequential %v, portfolio %v",
					workers, trial, sres, pres)
			}
			if sres == ResultSat {
				for name, m := range map[string]*expr.Assignment{"sequential": smodel, "portfolio": pmodel} {
					ok, err := m.Satisfies(cs)
					if err != nil || !ok {
						t.Fatalf("K=%d trial %d: %s model invalid (err %v)", workers, trial, name, err)
					}
				}
			}
			if want := ResultUnsat; unsat && pres != want {
				t.Fatalf("K=%d trial %d: unsat-by-construction decided %v", workers, trial, pres)
			}
		}
	}
}

// TestPortfolioIncrementalDifferential drives two incremental sessions
// — one sequential, one racing — through the same growing query
// sequence (the shape of ER's reconstruction queries: mostly extend,
// occasionally contradict) and checks verdict parity at every step.
func TestPortfolioIncrementalDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, workers := range []int{2, 4} {
		cb := expr.NewBuilder()
		const w = 16
		x := cb.Var("x", w)
		y := cb.Var("y", w)

		seq := NewIncremental(Options{Validate: true})
		port := NewIncremental(Options{Validate: true, Portfolio: PortfolioOptions{Workers: workers}})

		var cs []*expr.Expr
		cs = append(cs, cb.Eq(cb.Add(x, y), cb.Const(500, w)))
		for step := 0; step < 12; step++ {
			query := cs
			if step%4 == 3 {
				// A contradicting side constraint (not retained):
				// x < 100 ∧ x > 60000 on top of the base system.
				query = append(append([]*expr.Expr{}, cs...),
					cb.Ult(x, cb.Const(100, w)),
					cb.Ult(cb.Const(60000, w), x))
			} else {
				cs = append(cs, cb.Ult(x, cb.Const(uint64(400-step*20), w)))
				query = cs
			}
			sres, smodel, err := seq.Solve(query)
			if err != nil {
				t.Fatalf("K=%d step %d: sequential: %v", workers, step, err)
			}
			pres, pmodel, err := port.Solve(query)
			if err != nil {
				t.Fatalf("K=%d step %d: portfolio: %v", workers, step, err)
			}
			if pres != sres {
				t.Fatalf("K=%d step %d: verdict diverged: sequential %v, portfolio %v",
					workers, step, sres, pres)
			}
			if sres == ResultSat {
				for name, m := range map[string]*expr.Assignment{"seq": smodel, "port": pmodel} {
					ok, err := m.Satisfies(query)
					if err != nil || !ok {
						t.Fatalf("K=%d step %d: %s model invalid (err %v)", workers, step, name, err)
					}
				}
			}
			_ = rng
		}
		if st := port.Stats(); st.Portfolio.Races == 0 {
			t.Errorf("K=%d: racing session never raced (fast path should not cover every query)", workers)
		}
	}
}

// TestPortfolioSeededDeterminism pins the seed-0 contract: a worker
// seeded 0 is the unmodified deterministic search, and distinct seeds
// configure distinct restart cadences.
func TestPortfolioSeededDeterminism(t *testing.T) {
	s := newSAT(nil)
	if s.restartBase != defaultRestartBase || s.randDecPm != 0 || s.randPhasePm != 0 {
		t.Fatalf("fresh core not at deterministic defaults: base=%d dec=%d phase=%d",
			s.restartBase, s.randDecPm, s.randPhasePm)
	}
	s.setSeed(3)
	if s.randDecPm == 0 || s.randPhasePm == 0 {
		t.Error("seeded core has no decision/phase noise configured")
	}
	s.setSeed(0)
	if s.restartBase != defaultRestartBase || s.randDecPm != 0 || s.randPhasePm != 0 || s.rng != 0 {
		t.Error("seed 0 did not restore the deterministic search")
	}
}
