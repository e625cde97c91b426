package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/simsvc"
)

// The tenant daemon's limits: tight enough that the probes have
// deterministic trip points and the soak keeps the daemon saturated.
const (
	tenants      = 3
	workers      = 2
	maxQueued    = 8 // per-tenant queued-jobs quota
	maxInFlight  = 2 // per-tenant running-jobs cap
	queueDepth   = tenants * maxQueued
	maxBodyBytes = 4096
	fairMin      = 0.5 // minimum min/max ratio of per-tenant completions
	minPerTenant = 5   // every tenant completes at least this many soak runs
	rotatedToken = "tok-t0-rotated"
)

func tenantName(i int) string { return fmt.Sprintf("t%d", i) }

// writeClients writes the tenant table, tenant 0 holding tok0.
func writeClients(path, tok0 string) error {
	var b strings.Builder
	b.WriteString("# facload tenants\n")
	for i := 0; i < tenants; i++ {
		tok := "tok-" + tenantName(i)
		if i == 0 {
			tok = tok0
		}
		fmt.Fprintf(&b, "%s:%s:1\n", tenantName(i), tok)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// soakTenants boots one multi-tenant daemon, probes its API surface, then
// soaks it from every tenant until a mid-soak SIGTERM.
func soakTenants(bin, tmp string, duration time.Duration) error {
	clientsFile := filepath.Join(tmp, "clients.conf")
	if err := writeClients(clientsFile, "tok-t0"); err != nil {
		return err
	}
	accessLog := filepath.Join(tmp, "access.jsonl")
	d, err := startFacd(bin,
		"-workers", strconv.Itoa(workers),
		"-queue", strconv.Itoa(queueDepth),
		"-cache", filepath.Join(tmp, "cache"),
		"-clients-file", clientsFile,
		"-max-queued-per-client", strconv.Itoa(maxQueued),
		"-max-inflight-per-client", strconv.Itoa(maxInFlight),
		"-max-body-bytes", strconv.Itoa(maxBodyBytes),
		"-access-log", accessLog,
	)
	if err != nil {
		return err
	}
	defer d.cmd.Process.Kill()

	httpc := &http.Client{Timeout: 2 * time.Minute}
	clients := make([]*simsvc.Client, tenants)
	for i := range clients {
		clients[i] = &simsvc.Client{Base: d.base, Token: "tok-" + tenantName(i), HTTPClient: httpc}
	}
	natural, probed, err := probe(d, clients[0], clientsFile)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	fmt.Printf("facload: probes passed (%d jobs); soaking %s for %v (%d tenants, %d workers, %d insts/run)\n",
		probed, d.base, duration, tenants, workers, natural)

	// One open-loop submitter per tenant, single-job batches, retrying on
	// 429 backpressure, stopping at the first 503 (drain) or transport
	// error (server gone). Every job sets a unique max_insts above the
	// natural count, so each has a distinct cache key and costs a real
	// simulation while still running to its natural completion.
	var jobSeq atomic.Uint64
	accepted := make([]atomic.Uint64, tenants)
	var wg sync.WaitGroup
	for ten, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				job := simsvc.JobSpec{Workload: workload, Toolchain: toolchain, Machine: machine,
					MaxInsts: natural + 1 + jobSeq.Add(1)}
				_, _, err := c.Submit(context.Background(), []simsvc.JobSpec{job})
				var retry *simsvc.RetryError
				var se *simsvc.StatusError
				switch {
				case err == nil:
					accepted[ten].Add(1)
				case errors.As(err, &retry):
					time.Sleep(20 * time.Millisecond)
				case errors.As(err, &se) && se.Status == http.StatusServiceUnavailable:
					return // draining
				case errors.As(err, &se):
					fmt.Fprintf(os.Stderr, "facload: tenant %s: %v\n", tenantName(ten), err)
					return
				default:
					return // the server shut its listener; the soak is over
				}
			}
		}()
	}

	// Mid-soak SIGTERM: the submitters are still racing when the drain
	// starts, which is exactly the window the drop-free guarantee covers.
	time.Sleep(duration)
	out, err := d.stop(syscall.SIGTERM)
	wg.Wait()
	if err != nil {
		return err
	}
	total := probed
	for ten := range accepted {
		total += accepted[ten].Load()
	}
	if err := checkDrain(out, total); err != nil {
		return err
	}

	doneByTenant, waits, runs, err := readCompletions(accessLog)
	if err != nil {
		return err
	}
	var logged uint64
	for _, n := range doneByTenant {
		logged += n
	}
	if logged != total {
		return fmt.Errorf("access log records %d completions, daemon reports %d", logged, total)
	}

	minDone, maxDone := ^uint64(0), uint64(0)
	for ten := range accepted {
		n := doneByTenant[tenantName(ten)]
		if ten == 0 {
			n -= probed // the probes ran as tenant 0
		}
		fmt.Printf("facload: tenant %s accepted=%d completed=%d\n", tenantName(ten), accepted[ten].Load(), n)
		minDone, maxDone = min(minDone, n), max(maxDone, n)
		if n < minPerTenant {
			return fmt.Errorf("tenant %s completed only %d runs (floor %d)", tenantName(ten), n, minPerTenant)
		}
	}
	ratio := float64(minDone) / float64(maxDone)
	if ratio < fairMin {
		return fmt.Errorf("unfair schedule: min/max completed ratio %.2f < %.2f (min=%d max=%d)",
			ratio, fairMin, minDone, maxDone)
	}

	waitP99, runP99 := p99(waits), p99(runs)
	bound := waitBound(queueDepth, workers, runP99)
	fmt.Printf("facload: %d jobs drained cleanly, fairness ratio %.2f, queue wait p50=%.0fms p99=%.0fms, bound %.0fms = 2×(%d/%d+1)×p99 run %.0fms\n",
		total, ratio, waits[len(waits)/2], waitP99, bound, queueDepth, workers, runP99)
	if waitP99 > bound {
		return fmt.Errorf("queue wait p99 %.0fms exceeds the derived bound %.0fms", waitP99, bound)
	}
	return nil
}

// probe checks the daemon's API surface as tenant c, on a quiet daemon,
// and returns the workload's natural instruction count and the number of
// jobs it had accepted. It leaves c holding tenant 0's rotated token.
func probe(d *proc, c *simsvc.Client, clientsFile string) (natural, accepted uint64, err error) {
	ctx := context.Background()
	spec := simsvc.JobSpec{Workload: workload, Toolchain: toolchain, Machine: machine}
	submit := func() (string, error) {
		id, _, err := c.Submit(ctx, []simsvc.JobSpec{spec})
		if err == nil {
			accepted++
		}
		return id, err
	}
	runBatch := func() (string, error) {
		id, err := submit()
		if err != nil {
			return "", err
		}
		return id, waitDone(c, id, 1)
	}

	// A fresh simulation, reported as one canonical RunRecord.
	id, err := runBatch()
	if err != nil {
		return 0, 0, err
	}
	data, err := c.Report(ctx, id)
	if err != nil {
		return 0, 0, err
	}
	report, err := obs.DecodeReport(data)
	if err != nil {
		return 0, 0, fmt.Errorf("report does not decode: %w", err)
	}
	if len(report.Records) != 1 {
		return 0, 0, fmt.Errorf("report has %d records, want 1", len(report.Records))
	}
	rec := report.Records[0]
	if rec.Benchmark != workload || rec.Cycles == 0 || rec.Insts == 0 || rec.IPC == 0 {
		return 0, 0, fmt.Errorf("degenerate record: %+v", rec)
	}

	// The same batch again, served from the persistent cache.
	id, err = runBatch()
	if err != nil {
		return 0, 0, err
	}
	var metrics struct {
		Jobs struct {
			CacheHits uint64 `json:"cache_hits"`
		} `json:"jobs"`
	}
	if err := getJSON(c, "/metrics", &metrics); err != nil {
		return 0, 0, err
	}
	if metrics.Jobs.CacheHits == 0 {
		return 0, 0, fmt.Errorf("resubmitted batch was not served from cache")
	}

	// Subscribing to the finished batch replays its full fac/progress/v1
	// history (hello with the schema, the cache-served completion, the
	// terminal batch summary), then ends the stream so ReadAll returns.
	resp, err := raw(c, http.MethodGet, "/v1/batches/"+id+"/events", nil)
	if err != nil {
		return 0, 0, err
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, 0, err
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return 0, 0, fmt.Errorf("events content type %q, want text/event-stream", ct)
	}
	for _, want := range []string{"event: hello", obs.ProgressEventSchema, `"event":"done"`, `"cache_hit":true`, `"event":"batch"`} {
		if !strings.Contains(string(stream), want) {
			return 0, 0, fmt.Errorf("progress stream missing %q:\n%s", want, stream)
		}
	}

	// Abuse is refused with the right status and does not disturb the
	// daemon (the soak's clean drain is the proof).
	anon := &simsvc.Client{Base: c.Base, HTTPClient: c.HTTPClient}
	_, _, err = anon.Submit(ctx, []simsvc.JobSpec{spec})
	if err := wantStatus(err, http.StatusUnauthorized, "unauthenticated submit"); err != nil {
		return 0, 0, err
	}

	// A batch one job over the tenant quota cannot fit whatever the queue
	// holds. Client folds a missing Retry-After into a default, so the
	// header is read raw.
	jobs := make([]simsvc.JobSpec, maxQueued+1)
	for i := range jobs {
		jobs[i] = spec
	}
	burst, err := json.Marshal(map[string]any{"jobs": jobs})
	if err != nil {
		return 0, 0, err
	}
	resp, err = raw(c, http.MethodPost, "/v1/batches", burst)
	if err != nil {
		return 0, 0, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		return 0, 0, fmt.Errorf("over-quota burst got %d with Retry-After %q, want 429 with a hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	big := spec
	big.Workload = strings.Repeat("a", maxBodyBytes+1)
	_, _, err = c.Submit(ctx, []simsvc.JobSpec{big})
	if err := wantStatus(err, http.StatusRequestEntityTooLarge, "oversized body"); err != nil {
		return 0, 0, err
	}

	// A malformed job id must be 404, not an alias of some real job.
	resp, err = raw(c, http.MethodGet, "/v1/jobs/jxyz", nil)
	if err != nil {
		return 0, 0, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		return 0, 0, fmt.Errorf("malformed job id got %d, want 404", resp.StatusCode)
	}

	// Rotate tenant 0's token and reload live: the old token stops
	// working, the new one works, and nothing restarts (the soak's drain
	// is from the same process).
	if err := writeClients(clientsFile, rotatedToken); err != nil {
		return 0, 0, err
	}
	if err := d.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		return 0, 0, err
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		// A success means the submit raced ahead of the reload; the job is
		// counted and drains with the soak.
		if _, err := submit(); err != nil {
			if err := wantStatus(err, http.StatusUnauthorized, "old token after SIGHUP"); err != nil {
				return 0, 0, err
			}
			break
		}
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("old token still accepted 10s after SIGHUP reload")
		}
		time.Sleep(100 * time.Millisecond)
	}
	c.Token = rotatedToken
	if _, err := submit(); err != nil {
		return 0, 0, fmt.Errorf("rotated token: %w", err)
	}
	return rec.Insts, accepted, nil
}

// readCompletions parses the daemon's JSONL access log into per-tenant
// completed-run counts and the queue-wait and run-time distributions.
func readCompletions(path string) (byTenant map[string]uint64, waits, runs []float64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("open access log: %w", err)
	}
	defer f.Close()
	byTenant = make(map[string]uint64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e struct {
			Event       string  `json:"event"`
			Client      string  `json:"client"`
			QueueWaitMS float64 `json:"queue_wait_ms"`
			RunMS       float64 `json:"run_ms"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, nil, nil, fmt.Errorf("bad access-log line %q: %w", sc.Text(), err)
		}
		if e.Event == "complete" {
			byTenant[e.Client]++
			waits = append(waits, e.QueueWaitMS)
			runs = append(runs, e.RunMS)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, nil, err
	}
	if len(waits) == 0 {
		return nil, nil, nil, fmt.Errorf("access log %s has no complete events", path)
	}
	return byTenant, waits, runs, nil
}
