// Command facload is facd's out-of-process harness. It builds the
// daemon once and runs three phases against real facd processes:
//
//  1. API probes, on a daemon with three equally-weighted tenants loaded
//     from a -clients-file and deliberately tight limits: a batch report
//     decodes to one non-degenerate RunRecord; the resubmitted batch is
//     served from the persistent cache; the batch's SSE progress stream
//     (fac/progress/v1) replays in full; an unauthenticated submit gets
//     401, a burst one job over the tenant quota 429 with Retry-After, an
//     oversized body 413 and a malformed job id 404; and a SIGHUP reload
//     rotates one tenant's token, after which the old token gets 401 and
//     the new one is accepted.
//  2. A mixed-tenant soak of the same daemon: one open-loop submitter
//     per tenant keeps it saturated with unique simulations (the
//     instruction budget varies per job, so the overload is real work,
//     not cache hits) until a mid-soak SIGTERM. It asserts the drain
//     contract (below), that the access log records one completion per
//     admitted job, fairness (per-tenant completions within a min/max
//     ratio of 0.5), a throughput floor per tenant, and a p99 queue wait
//     within a bound derived from the measured run time (waitBound).
//  3. A fleet soak: two worker daemons, a coordinator sharding over
//     them and a stand-alone reference daemon. One worker is SIGKILLed
//     mid-batch; the batch must drain with zero lost jobs, every worker
//     must have received work, and the coordinator's report must be
//     byte-identical to the reference's. The coordinator is then
//     SIGTERMed mid-batch under the same drain contract.
//
// The drain contract (checkDrain): facd exits 0 and its final line
// satisfies submitted == completed+failed+cancelled, submitted equals
// the jobs the harness saw accepted, and nothing failed or was
// cancelled, so no admitted job is ever dropped unreported, even with
// submissions racing the drain.
//
// Usage (from the repo root):
//
//	go run ./cmd/facload                # 30s tenant soak
//	go run ./cmd/facload -duration 5s   # the CI length
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/simsvc"
)

// Every submitted job runs this spec; a short run keeps per-job cost low.
const (
	workload  = "hashp"
	toolchain = "base"
	machine   = "base32"
)

func main() {
	duration := flag.Duration("duration", 30*time.Second, "tenant soak length before the mid-soak SIGTERM")
	flag.Parse()
	if err := run(*duration); err != nil {
		fmt.Fprintln(os.Stderr, "facload:", err)
		os.Exit(1)
	}
	fmt.Println("facload OK")
}

func run(duration time.Duration) error {
	tmp, err := os.MkdirTemp("", "facload")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "facd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/facd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build facd: %w", err)
	}
	if err := soakTenants(bin, tmp, duration); err != nil {
		return err
	}
	return soakFleet(bin, tmp)
}

// proc is one facd process: its announced base URL and its stdout,
// captured until the process exits.
type proc struct {
	cmd      *exec.Cmd
	base     string
	out      bytes.Buffer // read only after scanDone is closed
	scanDone chan struct{}
}

// startFacd launches facd on an ephemeral port and waits for its
// "facd listening on" line.
func startFacd(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start facd: %w", err)
	}
	p := &proc{cmd: cmd, scanDone: make(chan struct{})}
	ready := make(chan string, 1)
	go func() {
		defer close(p.scanDone)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			p.out.WriteString(line + "\n")
			if addr, ok := strings.CutPrefix(line, "facd listening on "); ok {
				select {
				case ready <- addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-ready:
		p.base = "http://" + addr
		return p, nil
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		return nil, fmt.Errorf("facd never announced its address")
	}
}

// stop sends sig and waits for the process to exit, returning its
// stdout. It waits for the scanner to reach EOF before calling Wait:
// Wait closes the stdout pipe on exit, which can drop the final drain
// lines the scanner has not read yet.
func (p *proc) stop(sig os.Signal) (string, error) {
	if err := p.cmd.Process.Signal(sig); err != nil {
		return "", err
	}
	select {
	case <-p.scanDone:
	case <-time.After(5 * time.Minute):
		return "", fmt.Errorf("facd %s did not exit after %v", p.base, sig)
	}
	if err := p.cmd.Wait(); err != nil {
		return "", fmt.Errorf("facd %s exited uncleanly: %w\noutput:\n%s", p.base, err, p.out.String())
	}
	return p.out.String(), nil
}

var drainLine = regexp.MustCompile(`facd drained cleanly \(submitted=(\d+) completed=(\d+) failed=(\d+) cancelled=(\d+)\)`)

// checkDrain asserts the drain contract on a stopped daemon's stdout:
// the daemon's own accounting identity, cross-checked against the
// accepted count the harness observed so that a dropped-but-unreported
// job cannot hide on either side.
func checkDrain(out string, accepted uint64) error {
	m := drainLine.FindStringSubmatch(out)
	if m == nil {
		return fmt.Errorf("missing clean-drain line; output:\n%s", out)
	}
	var n [4]uint64
	for i := range n {
		v, err := strconv.ParseUint(m[i+1], 10, 64)
		if err != nil {
			return fmt.Errorf("drain line %q: %w", m[0], err)
		}
		n[i] = v
	}
	submitted, completed, failed, cancelled := n[0], n[1], n[2], n[3]
	if submitted != completed+failed+cancelled {
		return fmt.Errorf("drain dropped jobs: submitted=%d but completed+failed+cancelled=%d",
			submitted, completed+failed+cancelled)
	}
	if submitted != accepted {
		return fmt.Errorf("daemon admitted %d jobs but the harness saw %d accepted (lost or phantom admissions)",
			submitted, accepted)
	}
	if failed != 0 || cancelled != 0 {
		return fmt.Errorf("jobs did not all succeed: failed=%d cancelled=%d", failed, cancelled)
	}
	return nil
}

// p99 returns the nearest-rank 99th percentile of xs, sorting xs.
func p99(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[(len(xs)*99+99)/100-1]
}

// waitBound is the p99 queue-wait gate in ms, derived from the measured
// p99 run time so that it scales with host speed: a job admitted behind
// a full queue of queue jobs served by workers waits queue/workers run
// times, plus one for the runs already in flight, and the factor of two
// absorbs scheduling jitter.
func waitBound(queue, workers int, p99RunMS float64) float64 {
	return 2 * (float64(queue)/float64(workers) + 1) * p99RunMS
}

// waitDone polls a batch to terminal and asserts every job completed.
func waitDone(c *simsvc.Client, batch string, total int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	st, err := c.WaitBatch(ctx, batch, 50*time.Millisecond)
	if err != nil {
		return fmt.Errorf("batch %s on %s: %w", batch, c.Base, err)
	}
	if st.Done != total || st.Failed != 0 || st.Cancelled != 0 {
		return fmt.Errorf("batch %s on %s lost jobs: done=%d failed=%d cancelled=%d of %d",
			batch, c.Base, st.Done, st.Failed, st.Cancelled, total)
	}
	return nil
}

// raw sends one request as c's tenant, for what simsvc.Client has no
// method for or hides: the SSE stream, job views, the Retry-After header
// and /metrics.
func raw(c *simsvc.Client, method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(method, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	return c.HTTPClient.Do(req)
}

// getJSON decodes a GET response body into out.
func getJSON(c *simsvc.Client, path string, out any) error {
	resp, err := raw(c, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// wantStatus checks that a Client call was refused with the given status.
func wantStatus(err error, want int, what string) error {
	var se *simsvc.StatusError
	if errors.As(err, &se) && se.Status == want {
		return nil
	}
	return fmt.Errorf("%s: got %v, want status %d", what, err, want)
}
