package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/pipeline"
	"repro/internal/simsvc"
)

// e2eMaxInsts keeps end-to-end simulations fast (shared convention with
// the simsvc e2e tests).
const e2eMaxInsts = 5_000_000

func resolveMachine(m string) (pipeline.Config, error) {
	return experiments.MachineConfig(experiments.Machine(m))
}

// daemonConfig sizes every test daemon's queue to take any test batch.
var daemonConfig = simsvc.ServerConfig{Workers: 2, QueueDepth: 64}

// startDaemon serves runner through a full simsvc server: a simulating
// Runner for a worker or the stand-alone reference, a fleet Dispatcher
// for a coordinator.
func startDaemon(t *testing.T, cfg simsvc.ServerConfig, runner simsvc.JobRunner) *httptest.Server {
	t.Helper()
	s, err := simsvc.NewServer(cfg, runner)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return hs
}

func simRunner(cache *simsvc.DiskCache) *simsvc.Runner {
	return &simsvc.Runner{Resolve: resolveMachine, MaxInsts: e2eMaxInsts, Cache: cache}
}

// startFleet starts two real worker daemons, each simulating over its own
// persistent cache, and a coordinator whose JobRunner is a fleet
// dispatcher over them: the same server surface as a single daemon, with
// execution sharded across the fleet.
func startFleet(t *testing.T, hedge, coolOff time.Duration) (workers []*httptest.Server, coord *simsvc.Client, d *fleet.Dispatcher) {
	t.Helper()
	var urls []string
	for i := 0; i < 2; i++ {
		cache, err := simsvc.OpenDiskCache(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		w := startDaemon(t, daemonConfig, simRunner(cache))
		workers = append(workers, w)
		urls = append(urls, w.URL)
	}
	d, err := fleet.New(fleet.Config{
		Workers:    urls,
		Local:      simRunner(nil),
		HedgeAfter: hedge,
		CoolOff:    coolOff,
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := startDaemon(t, simsvc.ServerConfig{Workers: 4, QueueDepth: 64}, d)
	return workers, &simsvc.Client{Base: cs.URL}, d
}

// e2eJobs builds a job set whose shard keys cover every worker on the
// ring, extending a base grid with MaxInsts-perturbed runs until each
// worker owns at least one job (the perturbed bound exceeds the
// programs' natural instruction counts, so timing is unaffected).
func e2eJobs(t *testing.T, workers []string) []simsvc.JobSpec {
	t.Helper()
	jobs := []simsvc.JobSpec{
		{Workload: "queens", Toolchain: "base", Machine: "base32"},
		{Workload: "queens", Toolchain: "base", Machine: "base16"},
		{Workload: "queens", Toolchain: "fac", Machine: "fac16"},
		{Workload: "queens", Toolchain: "fac", Machine: "fac32"},
		{Workload: "queens", Toolchain: "fac", Machine: "fac32+rr"},
	}
	local := simRunner(nil)
	ring, err := fleet.NewRing(workers)
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[string]bool)
	for _, j := range jobs {
		key, err := local.Key(j)
		if err != nil {
			t.Fatal(err)
		}
		covered[ring.Owner(key)] = true
	}
	for i := uint64(1); len(covered) < len(workers); i++ {
		if i > 10_000 {
			t.Fatal("could not cover every worker's shard")
		}
		j := simsvc.JobSpec{Workload: "queens", Toolchain: "base", Machine: "base32", MaxInsts: e2eMaxInsts + i}
		key, err := local.Key(j)
		if err != nil {
			t.Fatal(err)
		}
		if !covered[ring.Owner(key)] {
			covered[ring.Owner(key)] = true
			jobs = append(jobs, j)
		}
	}
	return jobs
}

func submit(t *testing.T, c *simsvc.Client, jobs []simsvc.JobSpec) (batch string, jobIDs []string) {
	t.Helper()
	batch, jobIDs, err := c.Submit(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	return batch, jobIDs
}

// waitReport waits for the batch to finish, fails the test if any job
// failed or was lost, and returns the batch's report bytes.
func waitReport(t *testing.T, c *simsvc.Client, batch string, total int) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	st, err := c.WaitBatch(ctx, batch, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != total || st.Failed != 0 || st.Cancelled != 0 {
		t.Fatalf("batch finished done=%d failed=%d cancelled=%d, want %d done",
			st.Done, st.Failed, st.Cancelled, total)
	}
	report, err := c.Report(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// referenceReport runs jobs on a stand-alone daemon simulating locally,
// with no dispatcher in the path.
func referenceReport(t *testing.T, jobs []simsvc.JobSpec) []byte {
	t.Helper()
	ref := &simsvc.Client{Base: startDaemon(t, daemonConfig, simRunner(nil)).URL}
	batch, _ := submit(t, ref, jobs)
	return waitReport(t, ref, batch, len(jobs))
}

// TestE2EFleetMatchesSingleDaemon: a batch run through a coordinator and
// two sharded workers produces report bytes identical to the same batch
// on a single stand-alone daemon — the determinism contract survives
// distribution. Every worker serves part of the batch, and job views
// attribute each run to the worker that executed it.
func TestE2EFleetMatchesSingleDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation in -short mode")
	}
	workers, coord, disp := startFleet(t, -1, 0)
	w0, w1 := workers[0], workers[1]
	jobs := e2eJobs(t, []string{w0.URL, w1.URL})

	batch, jobIDs := submit(t, coord, jobs)
	fleetReport := waitReport(t, coord, batch, len(jobs))
	refReport := referenceReport(t, jobs)

	if !bytes.Equal(fleetReport, refReport) {
		t.Fatalf("fleet report differs from single daemon:\n--- fleet ---\n%s\n--- single ---\n%s",
			fleetReport, refReport)
	}

	// Every worker served at least one job, and together they served all.
	var total uint64
	for _, st := range disp.FleetStats() {
		if st.Completed == 0 {
			t.Fatalf("worker %s completed nothing: %+v", st.URL, disp.FleetStats())
		}
		total += st.Completed
	}
	if total != uint64(len(jobs)) {
		t.Fatalf("fleet completed %d jobs, want %d", total, len(jobs))
	}

	// Job views attribute the serving worker.
	for _, id := range jobIDs {
		resp, err := http.Get(coord.Base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var jv struct {
			Worker string `json:"worker"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if jv.Worker != w0.URL && jv.Worker != w1.URL {
			t.Fatalf("job %s attributed to %q, want one of the workers", id, jv.Worker)
		}
	}
}

// TestE2EFleetSurvivesWorkerKill: killing a worker mid-batch loses no
// jobs — its shard fails over to the survivor — and the drained batch's
// report is still byte-identical to a single daemon's.
func TestE2EFleetSurvivesWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end simulation in -short mode")
	}
	// Tight hedge/cool-off so the kill is absorbed quickly: in-flight
	// requests die with the connection and fail over; stragglers hedge.
	workers, coord, disp := startFleet(t, 300*time.Millisecond, 100*time.Millisecond)
	victim, survivor := workers[0], workers[1]
	jobs := e2eJobs(t, []string{victim.URL, survivor.URL})

	batch, _ := submit(t, coord, jobs)
	// SIGKILL equivalent for an httptest worker: sever live connections
	// (aborting its in-flight simulations) and stop accepting new ones,
	// while the batch is still in flight.
	victim.CloseClientConnections()
	victim.Close()

	fleetReport := waitReport(t, coord, batch, len(jobs))
	refReport := referenceReport(t, jobs)

	if !bytes.Equal(fleetReport, refReport) {
		t.Fatalf("post-kill fleet report differs from single daemon:\n--- fleet ---\n%s\n--- single ---\n%s",
			fleetReport, refReport)
	}
	// The survivor picked up the dead worker's shard.
	for _, st := range disp.FleetStats() {
		if st.URL == survivor.URL && st.Completed < uint64(len(jobs)) {
			// Some jobs may have completed on the victim before the kill;
			// the survivor must have served everything that remained.
			if st.Completed == 0 {
				t.Fatalf("survivor served nothing: %+v", disp.FleetStats())
			}
		}
	}
}
