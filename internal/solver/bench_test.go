package solver

import (
	"testing"

	"execrecon/internal/expr"
)

// BenchmarkBlastCDCL measures one query set through bit blasting and
// CDCL search (array elimination is a no-op on these pure bitvector
// systems): a conflict-heavy factoring query plus a batch of random
// systems. Each query gets a new Solver, as each symbolic execution
// engine does; the idle workspace carries the SAT core and blaster
// state from one query to the next. Allocations per op are the figure
// of interest.
func BenchmarkBlastCDCL(b *testing.B) {
	eb := expr.NewBuilder()
	queries := blastCDCLQueries(eb)
	b.ReportAllocs()
	var conflicts, clauses int64
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			s := New(eb, Options{})
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
