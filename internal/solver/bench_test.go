package solver

import (
	"math/rand"
	"testing"

	"execrecon/internal/expr"
)

// BenchmarkBlastCDCL measures one query through bit blasting and CDCL
// search (array elimination is a no-op on these pure bitvector
// systems): a conflict-heavy factoring query plus a batch of random
// systems. "reused" is one Solver across iterations, its SAT core reset
// between queries; "fresh" builds a Solver per query. Allocations per
// op are the figure of interest.
func BenchmarkBlastCDCL(b *testing.B) {
	eb := expr.NewBuilder()
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
	run := func(b *testing.B, solverFor func() *Solver) {
		b.ReportAllocs()
		var conflicts, clauses int64
		for i := 0; i < b.N; i++ {
			s := solverFor()
			for _, q := range queries {
				if _, _, err := s.Solve(q); err != nil {
					b.Fatal(err)
				}
				st := s.LastStats()
				conflicts += st.Conflicts
				clauses += int64(st.SATClauses)
			}
		}
		b.ReportMetric(float64(clauses)/b.Elapsed().Seconds(), "clauses/s")
		b.ReportMetric(float64(conflicts)/float64(b.N), "conflicts/op")
	}
	b.Run("reused", func(b *testing.B) {
		s := New(eb, Options{})
		run(b, func() *Solver { return s })
	})
	b.Run("fresh", func(b *testing.B) {
		run(b, func() *Solver { return New(eb, Options{}) })
	})
}
