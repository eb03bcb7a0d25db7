package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"execrecon/internal/apps"
	"execrecon/internal/bench"
	"execrecon/internal/cluster"
	"execrecon/internal/core"
	"execrecon/internal/corpus"
	"execrecon/internal/fleet"
	"execrecon/internal/ir"
	"execrecon/internal/prod"
	"execrecon/internal/pt"
	"execrecon/internal/symex"
	"execrecon/internal/telemetry"
	"execrecon/internal/tracestore"
	"execrecon/internal/vm"
)

// maxInstrs bounds shepherded execution as bench.RunTable1 and the
// corpus and fleet experiments do.
const maxInstrs = 50_000_000

// Load sizing. On the fleet workloads each producer serves benign
// traffic with the failing input every failEvery-th run, and
// producerPace keeps the population's 200 producers below saturation
// (at the erbench default of 200µs they take both cores); clusterPace
// is the erbench cluster default. clusterNodes triage nodes with
// nproc/clusterNodes workers each keep the concurrent pipelines at or
// below nproc. fleetTimeout, several times a normal pass, ends a hung
// pass early enough for the run to finish in time.
const (
	populationN  = 200
	failEvery    = 3
	producerPace = 20 * time.Millisecond
	clusterNodes = 2
	clusterPace  = 100 * time.Millisecond
	fleetTimeout = 60 * time.Second
)

// target is one bug a workload reproduces, with the ground truth the
// verdict oracle checks the outcome against.
type target struct {
	name    string
	mod     *ir.Module // pristine module
	failing func() *vm.Workload
	seed    int64 // scheduler seed of the failing runs
	budget  int64 // per-query solver budget
	// want is the failing input's failure on the pristine module.
	want *vm.Failure
	// truth, for generated scenarios, is the scenario's own ground
	// truth about which failure the bug must produce.
	truth func(*vm.Failure) bool
}

func newTarget(name string, mod *ir.Module, failing func() *vm.Workload, seed, budget int64) (*target, error) {
	res := vm.New(mod, vm.Config{Input: failing(), Seed: seed}).Run("main")
	if res.Failure == nil {
		return nil, fmt.Errorf("%s: failing input does not fail", name)
	}
	return &target{name: name, mod: mod, failing: failing, seed: seed, budget: budget, want: res.Failure}, nil
}

// pass is one run of a workload in which every target is reproduced
// or resolved.
type pass struct {
	traced  bool
	wall    time.Duration
	cpu     time.Duration
	rt      rtDelta
	peakRSS float64 // MiB
	errs    []string
	reports map[string]*core.Report
	// Fleet workloads only: the closing fleet snapshot and the
	// producers' target rate.
	fleet      *fleet.Snapshot
	targetRate float64
	// Cluster only: the closing lease-table snapshot.
	cluster *cluster.ClusterSnapshot
	// Traced passes only: the program's own span trees and the time
	// spent inside the reoccurrence source.
	spans      []telemetry.SpanSnapshot
	production time.Duration
}

// suite is a workload after set-up: its targets and a way to run a pass.
type suite struct {
	targets  []*target
	ringSize int // trace ring size production uses on this workload
	run      func(traced bool) *pass
}

// timed runs f as a pass body and charges it wall and CPU time, runtime
// cost and peak RSS. Every pass starts from a collected heap and a fresh
// peak-RSS record, so garbage left by the previous pass does not move
// its figures.
func timed(p *pass, f func()) {
	runtime.GC()
	resetPeakRSS()
	rt0, cpu0, t0 := readRuntime(), cpuTime(), time.Now()
	f()
	p.wall, p.cpu, p.rt = time.Since(t0), cpuTime()-cpu0, rt0.to(readRuntime())
	p.peakRSS = peakRSSMB()
}

// appTargets compiles the 13 Table 1 apps, in the paper's row order.
// uniform, when non-zero, replaces every app's own stall budget.
func appTargets(uniform int64) ([]*target, error) {
	var ts []*target
	for _, a := range apps.All() {
		mod, err := a.Module()
		if err != nil {
			return nil, err
		}
		budget := a.QueryBudget
		if budget == 0 || uniform != 0 {
			budget = uniform
		}
		if budget == 0 {
			budget = bench.DefaultQueryBudget
		}
		t, err := newTarget(a.Name, mod, a.Failing, a.Seed, budget)
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// timedSource wraps the reoccurrence source so a traced pass can charge
// production time (VM runs, trace encode and decode) to its own span.
type timedSource struct {
	src   core.ReoccurrenceSource
	spent *time.Duration
}

func (s *timedSource) Next(req core.SourceRequest) (*core.Occurrence, error) {
	t0 := time.Now()
	occ, err := s.src.Next(req)
	*s.spent += time.Since(t0)
	return occ, err
}

// setupReproduce builds table1 (uniform == 0: each app's own budget) or
// deep-solve (uniform budget): one core.Reproduce per bug, in turn.
func setupReproduce(uniform int64) (*suite, error) {
	ts, err := appTargets(uniform)
	if err != nil {
		return nil, err
	}
	b := &suite{targets: ts, ringSize: pt.DefaultRingSize}
	b.run = func(traced bool) *pass {
		p := &pass{traced: traced, reports: make(map[string]*core.Report)}
		var tracer *telemetry.Tracer
		if traced {
			tracer = telemetry.NewTracer(len(ts))
		}
		timed(p, func() {
			for _, t := range ts {
				gen := &core.FixedWorkload{Workload: t.failing(), Seed: t.seed}
				cfg := core.Config{
					Module: t.mod,
					Symex:  symex.Options{QueryBudget: t.budget, MaxInstrs: maxInstrs},
				}
				if traced {
					cfg.Tracer = tracer
					cfg.Source = &timedSource{src: &core.GenSource{Gen: gen}, spent: &p.production}
				} else {
					cfg.Gen = gen
				}
				rep, err := core.Reproduce(cfg)
				if err != nil {
					p.errs = append(p.errs, fmt.Sprintf("%s: %v", t.name, err))
				}
				p.reports[t.name] = rep
			}
		})
		p.spans = tracer.Recent()
		return p
	}
	return b, nil
}

// setupPopulation generates the corpus from the seed and deploys it as
// fleet applications: one producer per scenario serving benign traffic
// with the failing input every failEvery-th run.
func setupPopulation(seed int64) (*suite, error) {
	scs, _, err := corpus.Generate(corpus.GenConfig{N: populationN, Seed: uint64(seed)})
	if err != nil {
		return nil, err
	}
	var ts []*target
	var fapps []fleet.App
	for _, sc := range scs {
		mod, err := sc.Module()
		if err != nil {
			return nil, err
		}
		failing := sc.App().Failing
		t, err := newTarget(sc.Name, mod, failing, sc.SchedSeed, sc.QueryBudget)
		if err != nil {
			return nil, err
		}
		t.truth = sc.Matches
		ts = append(ts, t)
		fapps = append(fapps, fleet.App{
			Name:     sc.Name,
			Module:   mod,
			Failing:  failing,
			Seed:     sc.SchedSeed,
			Gen:      sc.Gen(failEvery),
			Machines: 1,
			Symex:    symex.Options{QueryBudget: sc.QueryBudget, MaxInstrs: maxInstrs},
		})
	}
	return fleetSuite(ts, fapps, producerPace), nil
}

// setupFleet deploys the 13 Table 1 apps as fleet applications: one
// producer per app serving the app's benign traffic with the failing
// input every failEvery-th run.
func setupFleet() (*suite, error) {
	ts, err := appTargets(0)
	if err != nil {
		return nil, err
	}
	var fapps []fleet.App
	for i, a := range apps.All() {
		t := ts[i]
		fapps = append(fapps, fleet.App{
			Name:     t.name,
			Module:   t.mod,
			Failing:  t.failing,
			Seed:     t.seed,
			Gen:      prod.Mix(t.failing, t.seed, a.Benign, benignSeed, failEvery),
			Machines: 1,
			Symex:    symex.Options{QueryBudget: t.budget, MaxInstrs: maxInstrs},
		})
	}
	return fleetSuite(ts, fapps, producerPace), nil
}

// benignSeed is the scheduler seed of an app's n-th benign run.
func benignSeed(n int) int64 { return 100 + int64(n%3) }

// fleetSuite runs every pass as one fleet.Run over fapps, each producer
// paced at pace.
func fleetSuite(ts []*target, fapps []fleet.App, pace time.Duration) *suite {
	b := &suite{targets: ts, ringSize: prod.MachineRingSize}
	b.run = func(traced bool) *pass {
		producers := 0
		for _, a := range fapps {
			producers += a.Machines
		}
		p := &pass{traced: traced, targetRate: float64(producers) / pace.Seconds()}
		var tracer *telemetry.Tracer
		if traced {
			tracer = telemetry.NewTracer(2 * len(fapps))
		}
		var res *fleet.Result
		var err error
		timed(p, func() {
			res, err = fleet.Run(fapps, fleet.Options{Pace: pace, Timeout: fleetTimeout, Tracer: tracer})
		})
		if err != nil {
			p.errs = append(p.errs, err.Error())
		}
		if res != nil {
			p.reports = bucketReports(res.Buckets)
			p.fleet = &res.Final
		}
		p.spans = tracer.Recent()
		return p
	}
	return b
}

// bucketReports maps each app to its bucket's report, preferring a
// reproduced bucket when one app surfaced more than one signature.
func bucketReports(bs []fleet.BucketResult) map[string]*core.Report {
	out := make(map[string]*core.Report)
	for _, b := range bs {
		if b.Report == nil {
			continue
		}
		if cur := out[b.App]; cur == nil || (!cur.Reproduced && b.Report.Reproduced) {
			out[b.App] = b.Report
		}
	}
	return out
}

// setupCluster compiles the 13 apps and measures starting the cluster
// (archive, WAL, coordinator and nodes on loopback); each pass then runs
// a fresh cluster to completion through cluster.RunHarness.
func setupCluster(stateRoot string) (*suite, error) {
	ts, err := appTargets(0)
	if err != nil {
		return nil, err
	}
	fapps := make([]fleet.App, len(ts))
	for i, t := range ts {
		fapps[i] = fleet.App{
			Name:    t.name,
			Module:  t.mod,
			Failing: t.failing,
			Seed:    t.seed,
			Symex:   symex.Options{QueryBudget: t.budget, MaxInstrs: maxInstrs},
		}
	}
	workers := runtime.GOMAXPROCS(0) / clusterNodes
	if workers < 1 {
		workers = 1
	}
	if err := startCluster(fapps, workers, stateRoot); err != nil {
		return nil, err
	}
	b := &suite{targets: ts, ringSize: prod.MachineRingSize}
	b.run = func(traced bool) *pass {
		// fleet.Options.MachinesPerApp defaults to 2 producers per app.
		p := &pass{traced: traced, targetRate: float64(2*len(fapps)) / clusterPace.Seconds()}
		dir, err := os.MkdirTemp(stateRoot, "cluster-*")
		if err != nil {
			p.errs = append(p.errs, err.Error())
			return p
		}
		defer os.RemoveAll(dir)
		var res *cluster.HarnessResult
		timed(p, func() {
			res, err = cluster.RunHarness(cluster.HarnessOptions{
				Apps:           fapps,
				Nodes:          clusterNodes,
				WorkersPerNode: workers,
				Dir:            dir,
				Pace:           clusterPace,
				Timeout:        fleetTimeout,
				NodeTracers:    traced,
			})
		})
		if err != nil {
			p.errs = append(p.errs, err.Error())
		}
		if res != nil && res.Fleet != nil {
			p.reports = bucketReports(res.Fleet.Buckets)
			p.fleet = &res.Fleet.Final
			p.cluster = &res.Cluster
			for _, tl := range res.Timelines {
				p.spans = append(p.spans, tl.Root)
			}
		}
		return p
	}
	return b, nil
}

// startCluster brings a cluster up and tears it down again: the start-up
// cost a cluster pass pays before any bucket is leased.
func startCluster(fapps []fleet.App, workers int, stateRoot string) error {
	dir, err := os.MkdirTemp(stateRoot, "start-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := tracestore.Open(filepath.Join(dir, "store"), tracestore.Options{})
	if err != nil {
		return err
	}
	defer store.Close()
	coord, err := cluster.NewCoordinator(fapps, cluster.CoordinatorOptions{
		Fleet:   fleet.Options{Pace: clusterPace, Timeout: fleetTimeout},
		Store:   store,
		WALPath: filepath.Join(dir, "lease.wal"),
	})
	if err != nil {
		return err
	}
	if err := coord.Start(); err != nil {
		coord.Close()
		return err
	}
	defer coord.Crash()
	for i := 0; i < clusterNodes; i++ {
		n, err := cluster.NewNode(cluster.NodeOptions{
			Name:        fmt.Sprintf("node-%d", i),
			Coordinator: coord.URL(),
			Apps:        fapps,
			Workers:     workers,
		})
		if err != nil {
			return err
		}
		if err := n.Start(); err != nil {
			return err
		}
		defer n.Close()
	}
	return nil
}
