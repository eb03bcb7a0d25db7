// Command perfbench is the repository's benchmark. It drives the
// system through the entry points users call (core.Reproduce, fleet.Run
// and cluster.RunHarness) under the default configuration, checks every
// verdict with an independent oracle, and prints the end-to-end metrics
// of an untraced run (--trace 0) or the per-layer metrics of a traced
// run (--trace 1). The last line of standard output is the result:
//
//	{"correct": true, "attempted": 13, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	perfbench --workload table1|deep-solve|fleet|population|cluster \
//	    --seed N --seconds S --trace 0|1
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"execrecon/internal/bench"
)

// workload is one named input set of the benchmark.
type workload struct {
	name  string
	setup func(seed int64, state string) (*suite, error)
	// exact marks the fixed bug sets, whose counts must repeat exactly
	// from pass to pass.
	exact bool
}

// The fixed bug sets are their own inputs; only the population's
// corpus is generated from the seed.
var workloads = []workload{
	{"table1", func(int64, string) (*suite, error) { return setupReproduce(0) }, true},
	{"deep-solve", func(int64, string) (*suite, error) { return setupReproduce(bench.DefaultQueryBudget) }, true},
	{"fleet", func(int64, string) (*suite, error) { return setupFleet() }, false},
	{"population", func(seed int64, _ string) (*suite, error) { return setupPopulation(seed) }, false},
	{"cluster", func(_ int64, state string) (*suite, error) { return setupCluster(state) }, false},
}

// Set-up runs at least minSetups times and until setupTime has been
// spent on it (at most maxSetups times); setup_s is the median.
const (
	minSetups = 5
	maxSetups = 100
	setupTime = time.Second
)

// stateDir roots the benchmark's own files inside the checkout.
const stateDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: table1, deep-solve, fleet, population or cluster")
	seed := flag.Int64("seed", 1, "input seed (population: the corpus seed)")
	seconds := flag.Int("seconds", 20, "measuring time per run, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload table1|deep-solve|fleet|population|cluster --seed N --seconds S --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	state, err := os.MkdirTemp(stateDir, "state-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(state)

	r := &runner{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, state: state}
	var res *result
	if *trace == 1 {
		res, err = r.traced()
	} else {
		res, err = r.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: INCORRECT:", p)
	}
	env, _ := json.Marshal(map[string]interface{}{"env": stamp(w.name, *seed, *trace)})
	fmt.Println(string(env))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// stamp identifies the environment a result was measured in.
func stamp(workload string, seed int64, trace int) map[string]interface{} {
	commit := os.Getenv("PERFBENCH_SOURCE")
	if commit == "" {
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					commit = s.Value
				}
			}
		}
	}
	return map[string]interface{}{
		"workload":   workload,
		"seed":       seed,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

// runner holds one benchmark run's settings and the problems found.
type runner struct {
	w        *workload
	seed     int64
	seconds  time.Duration
	state    string
	problems []string
	// Verdict tally over every pass of the run.
	attempted, verified int
	counts              []counts
}

// more reports whether another round of the given mean length still
// fits the measuring time.
func (r *runner) more(start time.Time, rounds int, minRounds int) bool {
	if rounds < minRounds {
		return true
	}
	mean := time.Since(start) / time.Duration(rounds)
	return time.Since(start)+mean <= r.seconds
}

// checkPass runs the oracle over a pass and tallies its verdicts and
// counts.
func (r *runner) checkPass(b *suite, p *pass) {
	for _, e := range p.errs {
		fmt.Fprintln(os.Stderr, "perfbench: pass error:", e)
	}
	fmt.Fprintf(os.Stderr, "perfbench: pass %d (traced=%v): wall %.4fs cpu %.4fs peak RSS %.1f MiB, alloc %.0f MiB, %d GCs\n",
		len(r.counts), p.traced, p.wall.Seconds(), p.cpu.Seconds(), p.peakRSS, p.rt.AllocMB, int(p.rt.NumGC))
	v, probs := check(b, p)
	r.attempted += len(b.targets)
	r.verified += v
	r.problems = append(r.problems, probs...)
	r.counts = append(r.counts, countPass(p))
}

// exactRepeat checks that every pass produced the same counts.
func (r *runner) exactRepeat() {
	if !r.w.exact || len(r.counts) < 2 {
		return
	}
	first := r.counts[0]
	for i, c := range r.counts[1:] {
		if c != first {
			r.problems = append(r.problems, fmt.Sprintf("counts of pass %d differ from pass 0: %+v vs %+v", i+1, c, first))
		}
	}
}

func (r *runner) result(ms map[string]metric) *result {
	return &result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.attempted - r.verified,
		Metrics:   ms,
	}
}

// untraced measures the end-to-end metrics.
func (r *runner) untraced() (*result, error) {
	var setups []float64
	var b *suite
	for start := time.Now(); len(setups) < minSetups || (len(setups) < maxSetups && time.Since(start) < setupTime); {
		t0 := time.Now()
		nb, err := r.w.setup(r.seed, r.state)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		b = nb
	}
	minPasses := 1
	if r.w.exact {
		minPasses = 2
	}
	var walls, cpus, rss []float64
	start := time.Now()
	for r.more(start, len(walls), minPasses) {
		p := b.run(false)
		r.checkPass(b, p)
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		rss = append(rss, p.peakRSS)
	}
	r.exactRepeat()
	occ := make([]float64, len(r.counts))
	rec := make([]float64, len(r.counts))
	for i, c := range r.counts {
		occ[i], rec[i] = float64(c.occurrences), float64(c.recordedBytes)
	}
	return r.result(map[string]metric{
		"setup_s":        {median(setups), "s"},
		"wall_s":         {median(walls), "s"},
		"cpu_s":          {median(cpus), "s"},
		"verified_frac":  {ratio(float64(r.verified), float64(r.attempted)), "frac"},
		"occurrences":    {median(occ), "count"},
		"recorded_bytes": {median(rec), "bytes"},
		"peak_rss_mb":    {median(rss), "MiB"},
	}), nil
}

// round is one unit of a traced run: an untraced and a traced pass,
// then the layer replay.
type round struct {
	plain, traced *pass
	layers        *layers
	stages        stageTimes
}

// traced measures the per-layer metrics.
func (r *runner) traced() (*result, error) {
	b, err := r.w.setup(r.seed, r.state)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	log := newSpanLog()
	var rounds []*round
	var samples []float64
	start := time.Now()
	for r.more(start, len(rounds), 1) {
		log.pass = len(rounds)
		rd := &round{}
		// Alternate which pass comes first, so that neither always
		// follows the previous round's replay.
		for i := 0; i < 2; i++ {
			traced := (i+len(rounds))%2 == 1
			p := b.run(traced)
			r.checkPass(b, p)
			if traced {
				rd.traced = p
			} else {
				rd.plain = p
			}
		}
		for _, sn := range rd.traced.spans {
			log.addTree(sn, -1)
			rd.stages.add(sn)
		}
		samples = append(samples, rd.stages.reconstructions...)
		rd.layers = replay(b, rd.traced, log)
		r.problems = append(r.problems, rd.layers.problems...)
		rounds = append(rounds, rd)
	}
	r.exactRepeat()
	path := filepath.Join(stateDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", r.w.name, r.seed))
	if err := log.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return r.result(layerMetrics(rounds, samples)), nil
}

// layerMetrics reduces the rounds of a traced run to the per-layer
// metrics, each the median over rounds.
func layerMetrics(rounds []*round, samples []float64) map[string]metric {
	ms := make(map[string]metric)
	med := func(name, unit string, f func(rd *round) float64) {
		xs := make([]float64, len(rounds))
		for i, rd := range rounds {
			xs[i] = f(rd)
		}
		ms[name] = metric{median(xs), unit}
	}
	sec := func(d time.Duration) float64 { return d.Seconds() }
	mib := func(n int64) float64 { return float64(n) / (1 << 20) }

	// Solver: pass totals from the pipelines' reports; rates and
	// allocation from replaying each bug's final path constraint.
	med("solver.time_s", "s", func(rd *round) float64 { return sec(solverTime(rd.traced)) })
	med("solver.share", "frac", func(rd *round) float64 {
		return ratio(sec(solverTime(rd.traced)), sec(rd.traced.wall))
	})
	med("solver.sat_vars", "count", func(rd *round) float64 { return float64(countPass(rd.traced).satVars) })
	med("solver.sat_clauses", "count", func(rd *round) float64 { return float64(countPass(rd.traced).satClauses) })
	med("solver.conflicts", "count", func(rd *round) float64 { return float64(rd.layers.conflicts) })
	med("solver.clauses_per_s", "1/s", func(rd *round) float64 {
		return ratio(float64(rd.layers.satClauses), sec(rd.layers.solveTime))
	})
	med("solver.propagations_per_s", "1/s", func(rd *round) float64 {
		return ratio(float64(rd.layers.propagations), sec(rd.layers.solveTime))
	})
	med("solver.alloc_mb", "MiB", func(rd *round) float64 { return rd.layers.solveAlloc })

	// Shepherded symbolic execution and the expression layer.
	med("symex.instrs", "count", func(rd *round) float64 { return float64(rd.layers.symInstrs) })
	med("symex.queries", "count", func(rd *round) float64 { return float64(rd.layers.symQueries) })
	med("symex.instrs_per_s", "1/s", func(rd *round) float64 {
		return ratio(float64(rd.layers.symInstrs), sec(rd.layers.symTime-rd.layers.symSolveTime))
	})
	med("symex.alloc_mb", "MiB", func(rd *round) float64 { return rd.layers.symAlloc })
	med("expr.nodes", "count", func(rd *round) float64 { return float64(rd.layers.exprNodes) })

	// Production: VM, trace encode and decode.
	med("vm.instrs", "count", func(rd *round) float64 { return float64(rd.layers.vmInstrs) })
	med("vm.instrs_per_s", "1/s", func(rd *round) float64 {
		return ratio(float64(rd.layers.vmInstrs), sec(rd.layers.vmTime))
	})
	med("vm.alloc_mb", "MiB", func(rd *round) float64 { return rd.layers.vmAlloc })
	med("pt.trace_bytes", "bytes", func(rd *round) float64 { return float64(rd.layers.traceBytes) })
	med("pt.encode_overhead_frac", "frac", func(rd *round) float64 {
		return ratio(sec(rd.layers.encodeTime), sec(rd.layers.vmTime)) - 1
	})
	med("pt.decode_mb_per_s", "MiB/s", func(rd *round) float64 {
		return ratio(mib(rd.layers.traceBytes), sec(rd.layers.decodeTime))
	})
	med("pt.decode_alloc_mb", "MiB", func(rd *round) float64 { return rd.layers.decodeAlloc })
	med("core.production_s", "s", func(rd *round) float64 { return sec(rd.traced.production) })

	// Key data value selection and re-instrumentation.
	med("keyselect.select_s", "s", func(rd *round) float64 { return sec(rd.layers.selectTime) })
	med("keyselect.instrument_s", "s", func(rd *round) float64 { return sec(rd.layers.instrTime) })
	med("keyselect.graph_nodes", "count", func(rd *round) float64 { return float64(rd.layers.graphNodes) })
	med("keyselect.sites", "count", func(rd *round) float64 { return float64(rd.layers.sites) })
	med("core.iterations", "count", func(rd *round) float64 { return float64(countPass(rd.traced).iterations) })

	// The pipeline's own stage spans.
	med("core.shepherd_self_s", "s", func(rd *round) float64 { return sec(rd.stages.shepherdSelf) })
	med("core.solve_s", "s", func(rd *round) float64 { return sec(rd.stages.solve) })
	med("core.keyselect_s", "s", func(rd *round) float64 { return sec(rd.stages.keyselect) })
	med("core.instrument_s", "s", func(rd *round) float64 { return sec(rd.stages.instrument) })
	med("core.verify_s", "s", func(rd *round) float64 { return sec(rd.stages.verify) })
	ms["core.reconstruction_p50_s"] = metric{nearestRank(samples, 0.5), "s"}
	ms["core.reconstruction_p90_s"] = metric{nearestRank(samples, 0.9), "s"}
	ms["core.reconstruction_samples"] = metric{float64(len(samples)), "count"}

	// Producers and fleet ingest (fleet workloads; 0 elsewhere).
	fl := func(f func(p *pass) float64) func(rd *round) float64 {
		return func(rd *round) float64 {
			if rd.traced.fleet == nil {
				return 0
			}
			return f(rd.traced)
		}
	}
	med("prod.runs", "count", fl(func(p *pass) float64 { return float64(p.fleet.Machines.Runs) }))
	med("prod.runs_per_s", "1/s", fl(func(p *pass) float64 { return ratio(float64(p.fleet.Machines.Runs), sec(p.wall)) }))
	med("prod.target_runs_per_s", "1/s", fl(func(p *pass) float64 { return p.targetRate }))
	med("fleet.accepted", "count", fl(func(p *pass) float64 { return float64(p.fleet.Accepted) }))
	med("fleet.drops", "count", fl(func(p *pass) float64 { return float64(fleetDrops(p)) }))
	med("fleet.useful_frac", "frac", fl(func(p *pass) float64 {
		return ratio(float64(countPass(p).occurrences), float64(p.fleet.Accepted))
	}))
	med("tracestore.raw_mb", "MiB", fl(func(p *pass) float64 { return mib(p.fleet.Store.RawBytes) }))
	med("tracestore.stored_mb", "MiB", fl(func(p *pass) float64 { return mib(p.fleet.Store.StoredBytes) }))
	med("tracestore.ratio", "ratio", fl(func(p *pass) float64 { return p.fleet.Store.Ratio() }))
	cl := func(f func(p *pass) float64) func(rd *round) float64 {
		return func(rd *round) float64 {
			if rd.traced.cluster == nil {
				return 0
			}
			return f(rd.traced)
		}
	}
	med("cluster.wal_bytes", "bytes", cl(func(p *pass) float64 { return float64(p.cluster.WALBytes) }))
	med("cluster.redispatched", "count", cl(func(p *pass) float64 { return float64(p.cluster.Redispatched) }))

	// Runtime cost of an untraced pass, and what tracing adds to it.
	med("runtime.alloc_mb", "MiB", func(rd *round) float64 { return rd.plain.rt.AllocMB })
	med("runtime.num_gc", "count", func(rd *round) float64 { return rd.plain.rt.NumGC })
	med("runtime.gc_cpu_frac", "frac", func(rd *round) float64 { return rd.plain.rt.GCCPUFrac })
	plain := make([]float64, len(rounds))
	traced := make([]float64, len(rounds))
	for i, rd := range rounds {
		plain[i], traced[i] = sec(rd.plain.wall), sec(rd.traced.wall)
	}
	ms["trace.overhead_frac"] = metric{ratio(median(traced), median(plain)) - 1, "frac"}
	return ms
}

func solverTime(p *pass) time.Duration {
	var d time.Duration
	for _, rep := range p.reports {
		if rep != nil {
			d += rep.TotalSolverTime
		}
	}
	return d
}

// fleetDrops counts occurrences the fleet threw away: ingest overflow,
// full bucket queues, stale deployments and undecodable traces.
func fleetDrops(p *pass) int64 {
	var n int64
	for _, d := range p.fleet.QueueDrops {
		n += d
	}
	for _, b := range p.fleet.Buckets {
		n += b.PendingDrops + b.StaleDrops + b.BadDrops
	}
	return n
}
