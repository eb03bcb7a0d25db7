package main

import (
	"fmt"
	"os"
	"time"

	"execrecon/internal/core"
	"execrecon/internal/keyselect"
	"execrecon/internal/pt"
	"execrecon/internal/solver"
	"execrecon/internal/symex"
	"execrecon/internal/vm"
)

// maxIterations is core's default reoccurrence-loop bound.
const maxIterations = 16

// layers accumulates one round of the per-bug layer replay: each bug
// walked through the layers by hand, one public call at a time, along
// the same iterations its pipeline took.
type layers struct {
	vmInstrs     int64
	vmTime       time.Duration // untraced production runs
	vmAlloc      float64
	encodeTime   time.Duration // the same runs with a pt encoder attached
	traceBytes   int64
	decodeTime   time.Duration
	decodeAlloc  float64
	symInstrs    int64
	symQueries   int64
	symTime      time.Duration
	symSolveTime time.Duration
	symAlloc     float64
	exprNodes    int64
	satClauses   int64
	propagations int64
	conflicts    int64
	solveTime    time.Duration // final path constraint, replayed alone
	solveAlloc   float64
	selectTime   time.Duration
	instrTime    time.Duration
	graphNodes   int64
	sites        int64
	problems     []string
}

// replay walks every target its pipeline reproduced in pass p through
// the layers, and checks that each takes the iterations it took there.
func replay(b *suite, p *pass, log *spanLog) *layers {
	l := &layers{}
	ring := pt.NewRing(b.ringSize)
	for _, t := range b.targets {
		rep := p.reports[t.name]
		if rep == nil || !rep.Reproduced {
			continue // the oracle already counts it as failed
		}
		iters, err := replayTarget(t, ring, l, log)
		switch {
		case err != nil:
			l.problems = append(l.problems, fmt.Sprintf("%s: layer replay: %v", t.name, err))
		case iters != len(rep.Iterations):
			l.problems = append(l.problems, fmt.Sprintf("%s: layer replay took %d iterations, the pipeline %d",
				t.name, iters, len(rep.Iterations)))
		}
	}
	return l
}

// replayTarget reproduces one bug layer by layer: a traced production
// run (vm with a pt encoder), the same run untraced, pt.DecodeBytes,
// shepherded symbolic execution, and then either key data value
// selection plus re-instrumentation (a stall) or a replay of the final
// path constraint through a fresh solver and a concrete replay of the
// generated test case (completion). It returns the iterations taken.
func replayTarget(t *target, ring *pt.Ring, l *layers, log *spanLog) (int, error) {
	root := log.begin("replay", t.name, -1)
	defer root.end()
	deployed := t.mod
	for iter := 1; iter <= maxIterations; iter++ {
		ring.Reset()
		enc := pt.NewEncoder(ring)
		s := log.begin("vm.traced", t.name, root.idx)
		res := vm.New(deployed, vm.Config{Input: t.failing(), Tracer: enc, Seed: t.seed}).Run("main")
		enc.Finish()
		l.encodeTime += s.end()
		if !res.Failure.SameSignature(t.want) {
			return iter, fmt.Errorf("iteration %d: production run did not reproduce the failure", iter)
		}

		s = log.begin("vm", t.name, root.idx)
		plain := vm.New(deployed, vm.Config{Input: t.failing(), Seed: t.seed}).Run("main")
		l.vmTime += s.end()
		l.vmAlloc += s.alloc
		l.vmInstrs += plain.Stats.Instrs

		data, lost := ring.Bytes()
		l.traceBytes += int64(len(data))
		s = log.begin("pt.decode", t.name, root.idx)
		trace, err := pt.DecodeBytes(data, lost)
		l.decodeTime += s.end()
		l.decodeAlloc += s.alloc
		if err != nil {
			return iter, err
		}

		s = log.begin("symex", t.name, root.idx)
		sres := symex.New(deployed, trace, res.Failure, symex.Options{QueryBudget: t.budget, MaxInstrs: maxInstrs}).Run("main")
		l.symTime += s.end()
		l.symAlloc += s.alloc
		l.symInstrs += sres.Stats.Instrs
		l.symQueries += sres.Stats.SolverQueries
		l.symSolveTime += sres.Stats.SolverTime
		l.exprNodes += int64(sres.Stats.GraphNodes)

		switch sres.Status {
		case symex.StatusCompleted:
			s = log.begin("solver", t.name, root.idx)
			sol := solver.New(sres.Builder, solver.Options{MaxSteps: t.budget})
			verdict, _, err := sol.Solve(sres.PathConstraint)
			l.solveTime += s.end()
			l.solveAlloc += s.alloc
			st := sol.LastStats()
			l.satClauses += int64(st.SATClauses)
			l.propagations += st.Propagations
			l.conflicts += st.Conflicts
			if err != nil || verdict != solver.ResultSat {
				return iter, fmt.Errorf("final path constraint replays as %v (%v)", verdict, err)
			}
			s = log.begin("oracle", t.name, root.idx)
			ok := verifies(t, sres.TestCase)
			s.end()
			if !ok {
				return iter, fmt.Errorf("replayed test case does not reproduce the failure")
			}
			return iter, nil
		case symex.StatusStalled:
			s = log.begin("keyselect.select", t.name, root.idx)
			sel, err := keyselect.Select(sres)
			l.selectTime += s.end()
			if err != nil {
				return iter, err
			}
			l.graphNodes += int64(sel.GraphNodes)
			l.sites += int64(len(sel.Sites))
			s = log.begin("keyselect.instrument", t.name, root.idx)
			deployed, err = keyselect.Instrument(deployed, sel.Sites)
			l.instrTime += s.end()
			if err != nil {
				return iter, err
			}
		default:
			return iter, fmt.Errorf("symbolic execution %v: %v", sres.Status, sres.Err)
		}
	}
	return maxIterations, fmt.Errorf("not reproduced within %d iterations", maxIterations)
}

// verifies is the verdict oracle: the test case, run concretely on the
// pristine module under the bug's scheduler seed, must fail with the
// original failure's signature, and for a generated scenario also match
// the scenario's ground truth.
func verifies(t *target, tc *vm.Workload) bool {
	if tc == nil {
		return false
	}
	f := vm.New(t.mod, vm.Config{Input: tc.Clone(), Seed: t.seed}).Run("main").Failure
	if !f.SameSignature(t.want) {
		return false
	}
	return t.truth == nil || t.truth(f)
}

// check runs the oracle over a pass. It returns how many targets were
// verified, and problems: verdicts the pipeline claimed that the oracle
// rejects, which make the run incorrect. Targets that failed are named
// on standard error.
func check(b *suite, p *pass) (verified int, problems []string) {
	for _, t := range b.targets {
		rep := p.reports[t.name]
		switch {
		case rep == nil:
			fmt.Fprintf(os.Stderr, "perfbench: %s: not resolved\n", t.name)
		case rep.Reproduced && verifies(t, rep.TestCase):
			verified++
		case rep.Verified:
			problems = append(problems, fmt.Sprintf("%s: pipeline claims a verified test case the oracle rejects", t.name))
		default:
			fmt.Fprintf(os.Stderr, "perfbench: %s: not verified: %s\n", t.name, rep.FailReason)
		}
	}
	return verified, problems
}

// counts are the figures of a pass that must repeat exactly on the
// fixed bug sets: verdicts must not depend on caches or scheduling.
type counts struct {
	occurrences   int64
	recordedBytes int64
	iterations    int64
	symexInstrs   int64
	satClauses    int64
	satVars       int64
	exprNodes     int64
}

func countPass(p *pass) counts {
	var c counts
	for _, rep := range p.reports {
		if rep == nil {
			continue
		}
		c.occurrences += int64(rep.Occurrences)
		c.iterations += int64(len(rep.Iterations))
		c.satClauses += rep.TotalSATClauses
		c.satVars += rep.TotalSATVars
		c.recordedBytes += finalRecording(rep)
		for _, it := range rep.Iterations {
			c.symexInstrs += it.SymexInstrs
			c.exprNodes += int64(it.GraphNodes)
		}
	}
	return c
}

// finalRecording is the per-occurrence recording cost of the last
// instrumentation the pipeline deployed (0 when it never stalled).
func finalRecording(rep *core.Report) int64 {
	var cost int64
	for _, it := range rep.Iterations {
		if it.RecordingCost > 0 {
			cost = it.RecordingCost
		}
	}
	return cost
}
