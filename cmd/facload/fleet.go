package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/simsvc"
)

const (
	fleetSize = 2  // worker daemons; a worker kill needs at least two
	fleetJobs = 12 // batch size
)

// soakFleet soaks the distributed fabric: workers, a coordinator sharding
// over them, a mid-batch SIGKILL of one worker, and a stand-alone
// reference daemon the surviving fleet must byte-match.
func soakFleet(bin, tmp string) error {
	// Workers: real simulating daemons, each with its own shard cache.
	var workers []*proc
	var workerURLs []string
	for i := 0; i < fleetSize; i++ {
		w, err := startFacd(bin, "-workers", "2", "-queue", "64",
			"-cache", filepath.Join(tmp, fmt.Sprintf("fleet-cache%d", i)))
		if err != nil {
			return fmt.Errorf("worker %d: %w", i, err)
		}
		defer w.cmd.Process.Kill()
		workers = append(workers, w)
		workerURLs = append(workerURLs, w.base)
	}

	// The coordinator: same facd binary, no local simulation; its runner
	// is the fleet dispatcher. A short hedge delay keeps straggler
	// re-dispatch fast once a worker is killed.
	coord, err := startFacd(bin, "-workers", "4", "-queue", "64",
		"-coordinator", strings.Join(workerURLs, ","), "-hedge-after", "2s")
	if err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}
	defer coord.cmd.Process.Kill()

	// The reference: one stand-alone daemon whose report bytes define
	// correct output for the same batch.
	ref, err := startFacd(bin, "-workers", "2", "-queue", "64")
	if err != nil {
		return fmt.Errorf("reference daemon: %w", err)
	}
	defer ref.cmd.Process.Kill()

	httpc := &http.Client{Timeout: 5 * time.Minute}
	coordC := &simsvc.Client{Base: coord.base, HTTPClient: httpc}
	refC := &simsvc.Client{Base: ref.base, HTTPClient: httpc}
	fmt.Printf("facload: fleet soak: coordinator %s over %d workers, reference %s\n",
		coord.base, len(workers), ref.base)

	// Probe the workload's natural instruction count through the
	// coordinator itself, which also proves the sync dispatch path.
	ctx := context.Background()
	rec, _, err := coordC.RunSync(ctx, simsvc.JobSpec{Workload: workload, Toolchain: toolchain, Machine: machine})
	if err != nil {
		return fmt.Errorf("probe run via coordinator: %w", err)
	}

	// One batch of unique jobs (distinct max_insts above the natural
	// count: distinct shard keys, identical timing), so the batch spreads
	// over the ring and every job costs a real simulation somewhere.
	jobs := make([]simsvc.JobSpec, fleetJobs)
	for i := range jobs {
		jobs[i] = simsvc.JobSpec{Workload: workload, Toolchain: toolchain, Machine: machine,
			MaxInsts: rec.Insts + 1 + uint64(i)}
	}
	batch, _, err := coordC.Submit(ctx, jobs)
	if err != nil {
		return fmt.Errorf("fleet submit: %w", err)
	}

	// SIGKILL one worker while the batch is in flight. No drain, no
	// goodbye: its in-flight simulations die with the process and the
	// coordinator must fail its shard over to the survivors.
	victim := workers[0]
	_, _ = victim.stop(os.Kill) // the error is the "signal: killed" exit this step causes
	fmt.Printf("facload: SIGKILLed worker %s mid-batch\n", victim.base)

	if err := waitDone(coordC, batch, fleetJobs); err != nil {
		return fmt.Errorf("after the worker kill: %w", err)
	}
	fleetReport, err := coordC.Report(ctx, batch)
	if err != nil {
		return err
	}

	// Every shard saw work: the coordinator's /metrics fleet section must
	// show a dispatch to each worker, including the one later killed.
	var metrics struct {
		Fleet []struct {
			URL        string `json:"url"`
			Dispatched uint64 `json:"dispatched"`
			Completed  uint64 `json:"completed"`
		} `json:"fleet"`
	}
	if err := getJSON(coordC, "/metrics", &metrics); err != nil {
		return err
	}
	if len(metrics.Fleet) != len(workers) {
		return fmt.Errorf("/metrics reports %d fleet workers, want %d", len(metrics.Fleet), len(workers))
	}
	var totalCompleted uint64
	for _, w := range metrics.Fleet {
		fmt.Printf("facload: worker %s dispatched=%d completed=%d\n", w.URL, w.Dispatched, w.Completed)
		if w.Dispatched == 0 {
			return fmt.Errorf("worker %s never received work for its shard", w.URL)
		}
		totalCompleted += w.Completed
	}
	if totalCompleted < fleetJobs {
		return fmt.Errorf("fleet completed %d dispatches for %d jobs", totalCompleted, fleetJobs)
	}

	// The reference daemon runs the identical batch; distribution and the
	// worker kill must be invisible in the bytes.
	refBatch, _, err := refC.Submit(ctx, jobs)
	if err != nil {
		return fmt.Errorf("reference submit: %w", err)
	}
	if err := waitDone(refC, refBatch, fleetJobs); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	refReport, err := refC.Report(ctx, refBatch)
	if err != nil {
		return err
	}
	if !bytes.Equal(fleetReport, refReport) {
		return fmt.Errorf("fleet report differs from reference daemon:\n--- fleet ---\n%s\n--- reference ---\n%s",
			fleetReport, refReport)
	}
	fmt.Printf("facload: %d jobs survived the worker kill, report byte-identical to reference (%d bytes)\n",
		fleetJobs, len(fleetReport))

	// Finally, the coordinator honours the same drain contract as a single
	// daemon, SIGTERMed with a second batch in flight.
	if _, _, err := coordC.Submit(ctx, jobs[:fleetJobs/2]); err != nil {
		return fmt.Errorf("drain-batch submit: %w", err)
	}
	out, err := coord.stop(syscall.SIGTERM)
	if err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}
	if err := checkDrain(out, fleetJobs+fleetJobs/2); err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}
	fmt.Printf("facload: coordinator drained cleanly (%d jobs)\n", fleetJobs+fleetJobs/2)
	return nil
}
