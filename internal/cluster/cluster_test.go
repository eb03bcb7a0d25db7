package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"execrecon/internal/fleet"
	"execrecon/internal/ir"
	"execrecon/internal/minc"
	"execrecon/internal/symex"
	"execrecon/internal/telemetry"
	"execrecon/internal/tracestore"
	"execrecon/internal/vm"
)

func compile(t *testing.T, name, src string) *ir.Module {
	t.Helper()
	mod, err := minc.Compile(name, src)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return mod
}

// The same three-app mix as the fleet stress tests: alpha and beta
// reconstruct in one iteration; gamma stalls on a symbolic write
// chain under a small solver budget, forcing key-data-value
// selection and an instrumented rollout over the wire.
const alphaSrc = `
func main() int {
	int x = input32("x");
	assert(x != 42, "alpha bug");
	return 0;
}`

const betaSrc = `
func check(int v) {
	assert(v != 7, "beta bug");
}
func main() int {
	check(input32("y"));
	return 0;
}`

const gammaSrc = `
int m[256];
func main() int {
	int i = 0;
	while (i < 10) {
		int k = input32("k");
		if (k < 0 || k >= 250) { return 0; }
		m[k] = m[k + 1] + 1;
		i = i + 1;
	}
	assert(m[60] != 3, "gamma chain");
	return 0;
}`

func gammaWorkload() *vm.Workload {
	w := vm.NewWorkload().Add("k", 62, 61, 60)
	for i := 0; i < 7; i++ {
		w.Add("k", 200)
	}
	return w
}

func testApps(t *testing.T) []fleet.App {
	t.Helper()
	return []fleet.App{
		{
			Name:    "alpha",
			Module:  compile(t, "alpha", alphaSrc),
			Failing: func() *vm.Workload { return vm.NewWorkload().Add("x", 42) },
			Seed:    1,
		},
		{
			Name:    "beta",
			Module:  compile(t, "beta", betaSrc),
			Failing: func() *vm.Workload { return vm.NewWorkload().Add("y", 7) },
			Seed:    1,
		},
		{
			Name:    "gamma",
			Module:  compile(t, "gamma", gammaSrc),
			Failing: gammaWorkload,
			Seed:    1,
			Symex:   symex.Options{QueryBudget: 30_000},
		},
	}
}

// checkParity asserts verdict parity with the in-process fleet: every
// app's bucket resolved, reproduced, and verified.
func checkParity(t *testing.T, res *fleet.Result, apps []fleet.App) {
	t.Helper()
	if res == nil {
		t.Fatal("nil fleet result")
	}
	if len(res.Buckets) != len(apps) {
		t.Fatalf("buckets = %d, want %d: %+v", len(res.Buckets), len(apps), res.Buckets)
	}
	seen := map[string]fleet.BucketResult{}
	for _, b := range res.Buckets {
		seen[b.App] = b
		if !b.Reproduced || !b.Verified {
			t.Errorf("bucket %s: reproduced=%v verified=%v (report %+v)",
				b.App, b.Reproduced, b.Verified, b.Report)
		}
	}
	for _, a := range apps {
		if _, ok := seen[a.Name]; !ok {
			t.Errorf("no bucket for app %s", a.Name)
		}
	}
	// gamma must have reconstructed across a rollout: > 1 iteration.
	if g, ok := seen["gamma"]; ok && g.Report != nil {
		if len(g.Report.Iterations) < 2 {
			t.Errorf("gamma iterations = %d, want >= 2 (stall + rollout + retry)", len(g.Report.Iterations))
		}
	}
}

// TestClusterSingleNode runs the full three-app mix through one
// remote triage node over real loopback HTTP: every verdict must
// match the in-process fleet, including gamma's wire-protocol rollout
// leg.
func TestClusterSingleNode(t *testing.T) {
	apps := testApps(t)
	res, err := RunHarness(HarnessOptions{
		Apps:           apps,
		Nodes:          1,
		Dir:            t.TempDir(),
		MachinesPerApp: 2,
		Pace:           50 * time.Microsecond,
		Timeout:        90 * time.Second,
	})
	if err != nil {
		t.Fatalf("RunHarness: %v", err)
	}
	checkParity(t, res.Fleet, apps)
	if res.Killed != -1 {
		t.Errorf("Killed = %d without chaos", res.Killed)
	}
	snap := res.Cluster
	if snap.Granted < 3 {
		t.Errorf("leases granted = %d, want >= 3", snap.Granted)
	}
	if snap.Resolved != 3 {
		t.Errorf("remote resolutions = %d, want 3", snap.Resolved)
	}
	var nodeTotal int64
	for _, n := range res.NodeResolved {
		nodeTotal += n
	}
	if nodeTotal != 3 {
		t.Errorf("node-side resolved = %d, want 3", nodeTotal)
	}
	for _, b := range snap.Buckets {
		if b.State != "resolved" || !b.Reproduced || !b.Verified {
			t.Errorf("bucket %s/%#x: state=%s reproduced=%v verified=%v",
				b.App, b.Key, b.State, b.Reproduced, b.Verified)
		}
	}
}

// TestClusterTwoNodes splits the same mix across two nodes: the work
// must actually distribute (every lease granted, all verdicts equal)
// regardless of which node wins which bucket.
func TestClusterTwoNodes(t *testing.T) {
	apps := testApps(t)
	res, err := RunHarness(HarnessOptions{
		Apps:           apps,
		Nodes:          2,
		WorkersPerNode: 2,
		Dir:            t.TempDir(),
		MachinesPerApp: 2,
		Pace:           50 * time.Microsecond,
		Timeout:        90 * time.Second,
	})
	if err != nil {
		t.Fatalf("RunHarness: %v", err)
	}
	checkParity(t, res.Fleet, apps)
	var nodeTotal int64
	for _, n := range res.NodeResolved {
		nodeTotal += n
	}
	if nodeTotal != 3 {
		t.Errorf("node-side resolved = %d, want 3 (per node: %v)", nodeTotal, res.NodeResolved)
	}
	if res.Cluster.NodesLive < 1 {
		t.Errorf("nodes live = %d at shutdown, want >= 1", res.Cluster.NodesLive)
	}
}

// TestClusterKillNodeChaos is the acceptance chaos test (run with
// -race): kill -9 one of two nodes at a randomized point
// mid-reconstruction — while leases are held, possibly mid-fetch or
// mid-rollout — and every bucket must still resolve with full verdict
// parity, the victim's leases expiring and re-dispatching to the
// survivor, which replays the banked reoccurrences from the archive.
func TestClusterKillNodeChaos(t *testing.T) {
	apps := testApps(t)
	rng := rand.New(rand.NewSource(42))
	for run := 0; run < 2; run++ {
		killAfter := 50*time.Millisecond + time.Duration(rng.Int63n(int64(1200*time.Millisecond)))
		victim := rng.Intn(2)
		t.Run(fmt.Sprintf("kill_node%d_after_%v", victim, killAfter), func(t *testing.T) {
			res, err := RunHarness(HarnessOptions{
				Apps:           apps,
				Nodes:          2,
				WorkersPerNode: 2,
				TTL:            300 * time.Millisecond,
				Dir:            t.TempDir(),
				KillAfter:      killAfter,
				KillNode:       victim,
				MachinesPerApp: 2,
				Pace:           50 * time.Microsecond,
				Timeout:        90 * time.Second,
			})
			if err != nil {
				t.Fatalf("RunHarness: %v", err)
			}
			checkParity(t, res.Fleet, apps)
			if res.Killed != victim {
				t.Errorf("Killed = %d, want %d", res.Killed, victim)
			}
			snap := res.Cluster
			// Whatever the victim held at death must have been
			// re-dispatched, and expiries and re-dispatches must agree.
			if snap.Expired != snap.Redispatched {
				t.Errorf("expired %d != redispatched %d", snap.Expired, snap.Redispatched)
			}
			for _, b := range snap.Buckets {
				if b.State != "resolved" {
					t.Errorf("bucket %s/%#x not resolved: %+v", b.App, b.Key, b)
				}
			}
			// The survivor must have carried everything the victim
			// dropped: resolutions add up to the bucket count.
			var nodeTotal int64
			for _, n := range res.NodeResolved {
				nodeTotal += n
			}
			if nodeTotal != 3 {
				t.Errorf("node-side resolved = %d, want 3 (per node: %v, expired %d)",
					nodeTotal, res.NodeResolved, snap.Expired)
			}
			t.Logf("killed node-%d after %v: expired=%d redispatched=%d per-node=%v",
				victim, killAfter, snap.Expired, snap.Redispatched, res.NodeResolved)
		})
	}
}

// TestClusterRedispatchAfterKill pins the lease-expiry leg the
// randomized chaos runs may miss: the leaseholder is killed the
// moment its grant is observed — guaranteed mid-reconstruction, since
// gamma's solver leg runs for seconds — and a late-started survivor
// must inherit the bucket through TTL expiry and replay it from the
// archive to the same verdict.
func TestClusterRedispatchAfterKill(t *testing.T) {
	apps := testApps(t)[2:3] // gamma only: long reconstruction window
	dir := t.TempDir()
	store, err := tracestore.Open(filepath.Join(dir, "store"), tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	coord, err := NewCoordinator(apps, CoordinatorOptions{
		Fleet: fleet.Options{
			MachinesPerApp: 2,
			Pace:           50 * time.Microsecond,
			Timeout:        90 * time.Second,
		},
		Store:   store,
		WALPath: filepath.Join(dir, "lease.wal"),
		TTL:     250 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	if err := coord.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	victim, err := NewNode(NodeOptions{Name: "victim", Coordinator: coord.URL(), Apps: apps, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap := coord.Snapshot()
		if snap.Granted >= 1 {
			if countResolved(snap) != 0 {
				t.Fatalf("gamma resolved before the kill window: %+v", snap)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never leased the bucket")
		}
		time.Sleep(time.Millisecond)
	}
	victim.Kill()
	survivor, err := NewNode(NodeOptions{Name: "survivor", Coordinator: coord.URL(), Apps: apps, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := survivor.Start(); err != nil {
		t.Fatal(err)
	}
	res, err := coord.Wait()
	victim.Close()
	survivor.Close()
	if err != nil {
		t.Fatalf("Wait: %v\nsnapshot: %+v", err, coord.Snapshot())
	}
	checkParity(t, res, apps)
	snap := coord.Snapshot()
	if snap.Expired < 1 || snap.Redispatched < 1 {
		t.Errorf("expired=%d redispatched=%d, want >= 1 each", snap.Expired, snap.Redispatched)
	}
	if victim.Resolved() != 0 {
		t.Errorf("killed node resolved %d buckets", victim.Resolved())
	}
	if survivor.Resolved() != 1 {
		t.Errorf("survivor resolved %d buckets, want 1", survivor.Resolved())
	}
	t.Logf("redispatch: expired=%d redispatched=%d granted=%d", snap.Expired, snap.Redispatched, snap.Granted)
}

// TestClusterCoordinatorRestart crashes the coordinator mid-run (no
// checkpoint, no drain — the WAL and archive are all that survive)
// and restarts it over the same state: recovered verdicts must not be
// re-triaged, in-flight buckets must re-dispatch, and the final table
// must show every bucket resolved exactly once.
func TestClusterCoordinatorRestart(t *testing.T) {
	apps := testApps(t)
	dir := t.TempDir()
	store, err := tracestore.Open(filepath.Join(dir, "store"), tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	walPath := filepath.Join(dir, "lease.wal")

	copts := CoordinatorOptions{
		Fleet: fleet.Options{
			MachinesPerApp: 2,
			Pace:           50 * time.Microsecond,
			Timeout:        90 * time.Second,
		},
		Store:   store,
		WALPath: walPath,
		TTL:     300 * time.Millisecond,
	}
	coord1, err := NewCoordinator(apps, copts)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	if err := coord1.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	node1, err := NewNode(NodeOptions{
		Name: "n1", Coordinator: coord1.URL(), Apps: apps, Workers: 2,
	})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	if err := node1.Start(); err != nil {
		t.Fatalf("node start: %v", err)
	}

	// Let the run get partway: at least one verdict committed to the
	// WAL (alpha and beta resolve fast; gamma's solver leg keeps the
	// run alive well past this point).
	deadline := time.Now().Add(60 * time.Second)
	for {
		snap := coord1.Snapshot()
		if countResolved(snap) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no bucket resolved before crash window: %+v", snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
	node1.Kill()
	coord1.Crash()
	node1.Close()
	snap1 := coord1.Snapshot()
	pre := countResolved(snap1)
	if pre < 1 {
		t.Fatalf("crash-time snapshot lost resolutions: %+v", snap1)
	}
	t.Logf("crashed with %d/3 buckets resolved (granted=%d)", pre, snap1.Granted)

	// Restart over the same WAL + archive with a fresh node.
	coord2, err := NewCoordinator(apps, copts)
	if err != nil {
		t.Fatalf("restart NewCoordinator: %v", err)
	}
	if err := coord2.Start(); err != nil {
		t.Fatalf("restart Start: %v", err)
	}
	node2, err := NewNode(NodeOptions{
		Name: "n2", Coordinator: coord2.URL(), Apps: apps, Workers: 2,
	})
	if err != nil {
		t.Fatalf("restart NewNode: %v", err)
	}
	if err := node2.Start(); err != nil {
		t.Fatalf("restart node start: %v", err)
	}
	res, err := coord2.Wait()
	node2.Close()
	if err != nil {
		t.Fatalf("restarted run: %v\nsnapshot: %+v", err, coord2.Snapshot())
	}
	checkParity(t, res, apps)

	snap2 := coord2.Snapshot()
	if snap2.Recovered < pre {
		t.Errorf("recovered %d lease records, want >= %d", snap2.Recovered, pre)
	}
	if got := countResolved(snap2); got != 3 {
		t.Errorf("final resolved buckets = %d, want 3: %+v", got, snap2.Buckets)
	}
	// No duplicated resolutions: pre-crash verdicts replay from the
	// WAL without a node ever re-triaging them, so the restarted run
	// remote-resolves exactly the remainder.
	if want := int64(3 - pre); node2.Resolved() != want {
		t.Errorf("node2 resolved %d buckets, want %d (pre-crash %d)", node2.Resolved(), want, pre)
	}
	if snap2.Resolved != int64(3-pre) {
		t.Errorf("restarted coordinator committed %d remote resolutions, want %d", snap2.Resolved, 3-pre)
	}
	for _, b := range snap2.Buckets {
		if b.State != "resolved" || !b.Reproduced || !b.Verified {
			t.Errorf("bucket %s/%#x after restart: %+v", b.App, b.Key, b)
		}
	}
}

func countResolved(snap ClusterSnapshot) int {
	n := 0
	for _, b := range snap.Buckets {
		if b.State == "resolved" {
			n++
		}
	}
	return n
}

// TestClusterMetricsRoundTrip checks the er_cluster_* series and the
// /debug/er cluster section against the wire snapshot while the
// coordinator is live.
func TestClusterMetricsRoundTrip(t *testing.T) {
	apps := testApps(t)[:1] // alpha only: fast, deterministic counts
	dir := t.TempDir()
	store, err := tracestore.Open(filepath.Join(dir, "store"), tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	reg := telemetry.New()
	coord, err := NewCoordinator(apps, CoordinatorOptions{
		Fleet: fleet.Options{
			MachinesPerApp: 1,
			Pace:           50 * time.Microsecond,
			Timeout:        60 * time.Second,
			Telemetry:      reg,
		},
		Store:   store,
		WALPath: filepath.Join(dir, "lease.wal"),
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	if err := coord.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	node, err := NewNode(NodeOptions{Name: "n0", Coordinator: coord.URL(), Apps: apps})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	if err := node.Start(); err != nil {
		t.Fatalf("node start: %v", err)
	}

	cl := NewClient(coord.URL(), "")
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap, err := cl.State()
		if err == nil && snap.Resolved >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bucket never resolved: %+v (err %v)", snap, err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// /metrics: the er_cluster_* series must expose the same counts
	// the wire snapshot reports.
	body := httpGet(t, coord.URL()+"/metrics")
	for _, name := range []string{
		"er_cluster_nodes_live",
		"er_cluster_leases_granted_total",
		"er_cluster_leases_renewed_total",
		"er_cluster_leases_expired_total",
		"er_cluster_leases_redispatched_total",
		"er_cluster_buckets_resolved_total",
		"er_cluster_submits_total",
		"er_cluster_wal_bytes",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if v := metricValue(t, body, "er_cluster_buckets_resolved_total"); v != 1 {
		t.Errorf("er_cluster_buckets_resolved_total = %v, want 1", v)
	}
	if v := metricValue(t, body, "er_cluster_leases_granted_total"); v < 1 {
		t.Errorf("er_cluster_leases_granted_total = %v, want >= 1", v)
	}
	if v := metricValue(t, body, "er_cluster_wal_bytes"); v <= 0 {
		t.Errorf("er_cluster_wal_bytes = %v, want > 0", v)
	}

	// /debug/er: the cluster section must round-trip as JSON and
	// agree with /v1/state.
	var dbg struct {
		State struct {
			Cluster ClusterSnapshot `json:"cluster"`
		} `json:"state"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, coord.URL()+"/debug/er")), &dbg); err != nil {
		t.Fatalf("/debug/er decode: %v", err)
	}
	if dbg.State.Cluster.Resolved != 1 {
		t.Errorf("/debug/er cluster.resolved = %d, want 1", dbg.State.Cluster.Resolved)
	}
	if dbg.State.Cluster.Granted < 1 {
		t.Errorf("/debug/er cluster.granted = %d, want >= 1", dbg.State.Cluster.Granted)
	}
	verd, err := cl.Verdicts()
	if err != nil || !verd.OK {
		t.Fatalf("verdicts: %v %+v", err, verd)
	}
	if len(verd.Buckets) != 1 || verd.Buckets[0].App != "alpha" || !verd.Buckets[0].Reproduced {
		t.Errorf("verdicts = %+v", verd.Buckets)
	}

	if _, err := coord.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	node.Close()
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return string(b)
}

// metricValue extracts an unlabelled series value from Prometheus
// text exposition.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := strings.TrimPrefix(line, name)
		if len(rest) == 0 || rest[0] != ' ' {
			continue // another metric sharing the prefix, or labelled
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("parse %s value %q: %v", name, rest, err)
		}
		return v
	}
	t.Fatalf("metric %s not found in exposition", name)
	return 0
}

// TestClusterProtocolVersionMismatch: a node speaking the wrong
// protocol version is rejected in the envelope (HTTP 200, OK=false),
// and malformed JSON is a 400.
func TestClusterProtocolVersionMismatch(t *testing.T) {
	apps := testApps(t)[:1]
	dir := t.TempDir()
	store, err := tracestore.Open(filepath.Join(dir, "store"), tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	coord, err := NewCoordinator(apps, CoordinatorOptions{
		Fleet:   fleet.Options{MachinesPerApp: 1, Timeout: 60 * time.Second},
		Store:   store,
		WALPath: filepath.Join(dir, "lease.wal"),
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	if err := coord.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer coord.Crash()

	body, _ := json.Marshal(&LeaseRequest{V: ProtocolVersion + 1, Node: "stale"})
	resp, err := http.Post(coord.URL()+PathLease, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("version mismatch: HTTP %d, want 200 + envelope rejection", resp.StatusCode)
	}
	var lr LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	if lr.OK || !strings.Contains(lr.Err, "protocol version") {
		t.Errorf("version mismatch response = %+v", lr)
	}

	resp2, err := http.Post(coord.URL()+PathLease, "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: HTTP %d, want 400", resp2.StatusCode)
	}
}

// TestSubmitRejectsOversizeBody: a /v1/submit body larger than one
// base64-encoded trace ring plus envelope is refused with 413 before
// ingest sees it, so no ring is allocated and no bucket can form. The
// body is produced lazily; the declared length alone trips the cap.
func TestSubmitRejectsOversizeBody(t *testing.T) {
	apps := testApps(t)[:1]
	dir := t.TempDir()
	store, err := tracestore.Open(filepath.Join(dir, "store"), tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	coord, err := NewCoordinator(apps, CoordinatorOptions{
		Fleet:   fleet.Options{MachinesPerApp: 1, Timeout: 60 * time.Second},
		Store:   store,
		WALPath: filepath.Join(dir, "lease.wal"),
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()
	// Serve only the wire protocol: the fleet is never started, so no
	// production machine can create buckets behind the test's back.
	mux := http.NewServeMux()
	coord.mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// A well-formed submit whose raw trace is just over the cap: without
	// the bound it would decode and be ingested.
	prefix := fmt.Sprintf(`{"v":%d,"app":%q,"failure":{"Kind":1},"raw":"`, ProtocolVersion, apps[0].Name)
	const suffix = `"}`
	raw := (int64(maxRequestBytes) - int64(len(prefix)+len(suffix)) + 4) / 4 * 4 // whole base64 quanta
	size := int64(len(prefix)) + raw + int64(len(suffix))
	body := io.MultiReader(strings.NewReader(prefix),
		io.LimitReader(repeatReader('A'), raw), strings.NewReader(suffix))
	req, err := http.NewRequest(http.MethodPost, srv.URL+PathSubmit, body)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = size
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversize submit: HTTP %d, want 413", resp.StatusCode)
		}
	}
	// (A client may instead see its upload cut off once the server has
	// answered and closed; either way nothing may have been ingested.)
	if n := coord.submits.Load(); n != 0 {
		t.Errorf("oversize submit counted: submits=%d", n)
	}
	if snap := coord.fleet.Snapshot(); snap.Accepted != 0 || len(snap.Buckets) != 0 {
		t.Errorf("oversize submit reached ingest: accepted=%d buckets=%d", snap.Accepted, len(snap.Buckets))
	}

	// A normal-sized submit on the same endpoint is accepted.
	small, _ := json.Marshal(&SubmitRequest{V: ProtocolVersion, App: apps[0].Name,
		Failure: &vm.Failure{Kind: vm.FailAssert}, Raw: []byte{1, 2, 3}})
	resp, err = http.Post(srv.URL+PathSubmit, "application/json", bytes.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if !sr.OK || !sr.Accepted || coord.submits.Load() != 1 {
		t.Errorf("small submit: %+v (submits=%d)", sr, coord.submits.Load())
	}
}

// repeatReader yields an endless stream of one byte.
type repeatReader byte

func (r repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}

// TestClusterValidation covers the assembly-time input checks.
func TestClusterValidation(t *testing.T) {
	apps := testApps(t)[:1]
	store, err := tracestore.Open(filepath.Join(t.TempDir(), "store"), tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := NewCoordinator(apps, CoordinatorOptions{WALPath: "x"}); err == nil {
		t.Error("coordinator without store accepted")
	}
	if _, err := NewCoordinator(apps, CoordinatorOptions{Store: store}); err == nil {
		t.Error("coordinator without WAL path accepted")
	}
	if _, err := NewNode(NodeOptions{Coordinator: "http://x", Apps: apps}); err == nil {
		t.Error("node without name accepted")
	}
	if _, err := NewNode(NodeOptions{Name: "n", Apps: apps}); err == nil {
		t.Error("node without coordinator accepted")
	}
	if _, err := NewNode(NodeOptions{Name: "n", Coordinator: "http://x"}); err == nil {
		t.Error("node without apps accepted")
	}
	if _, err := RunHarness(HarnessOptions{Apps: apps, Nodes: 0, Dir: "x"}); err == nil {
		t.Error("harness with zero nodes accepted")
	}
	if _, err := RunHarness(HarnessOptions{Apps: apps, Nodes: 1}); err == nil {
		t.Error("harness without state dir accepted")
	}
	if _, err := RunHarness(HarnessOptions{Apps: apps, Nodes: 2, Dir: "x",
		KillAfter: time.Second, KillNode: 5}); err == nil {
		t.Error("harness with out-of-range kill node accepted")
	}
}
