package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/simsvc"
	"repro/internal/workload"
)

// facdProc is a running cmd/facd child.
type facdProc struct {
	cmd    *exec.Cmd
	client *simsvc.Client
	exited chan error
}

// startFacd boots facd on a loopback port with a fresh result cache and
// open access, as `experiments -remote` without -token expects, and
// waits until it accepts connections.
func startFacd(bin, cacheDir string) (*facdProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", fmt.Sprint(runtime.NumCPU()), "-cache", cacheDir)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	f := &facdProc{cmd: cmd, exited: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "facd listening on "); ok {
				addr <- a
			}
		}
		close(addr)
		f.exited <- cmd.Wait() // after stdout reaches EOF, as Wait requires
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			return nil, fmt.Errorf("facd exited before listening: %v", <-f.exited)
		}
		// experiments uses the default transport; a clone of it keeps each
		// daemon's connections apart.
		f.client = &simsvc.Client{Base: "http://" + a,
			HTTPClient: &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}}
	case <-time.After(60 * time.Second):
		f.kill()
		return nil, fmt.Errorf("facd did not start listening within 60s")
	}
	return f, nil
}

func (f *facdProc) pid() int { return f.cmd.Process.Pid }

func (f *facdProc) kill() {
	f.cmd.Process.Kill()
	<-f.exited
}

// stop sends SIGTERM and waits for facd to drain and exit.
func (f *facdProc) stop() error {
	if err := f.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-f.exited:
		if err != nil {
			return fmt.Errorf("facd exit: %w", err)
		}
		return nil
	case <-time.After(60 * time.Second):
		f.kill()
		return fmt.Errorf("facd did not drain within 60s")
	}
}

// getRaw fetches a GET endpoint.
func (f *facdProc) getRaw(path string) ([]byte, error) {
	resp, err := f.client.HTTPClient.Get(f.client.Base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return data, nil
}

// table6Pairs are the (toolchain, machine) pairs Table 6 of
// cmd/experiments prefetches, in its order.
var table6Pairs = [][2]string{{"base", "fac32+rr"}, {"fac", "fac32+rr"}, {"base", "fac32"}, {"fac", "fac32"}}

// sessionSpecs returns the requests `experiments -remote -table6` sends
// for the named workloads: one synchronous run per workload and pair,
// workload by workload, with the suite's instruction budget.
func sessionSpecs(names []string) []simsvc.JobSpec {
	var specs []simsvc.JobSpec
	for _, n := range names {
		for _, p := range table6Pairs {
			specs = append(specs, simsvc.JobSpec{Workload: n, Toolchain: p[0], Machine: p[1], MaxInsts: simsvc.DefaultMaxInsts})
		}
	}
	return specs
}

// facdSpecs is one facd-mixed session: Table 6 over all 19 workloads, 76
// runs.
func facdSpecs() []simsvc.JobSpec { return sessionSpecs(workload.Names()) }

// clientLog is what one session worker sent and measured.
type clientLog struct {
	tally tally
	specs []simsvc.JobSpec // requests, in order
	lat   []float64        // their latencies, ms
	// verified holds each key's record once it has matched its pin, so
	// later copies are compared in memory rather than re-encoded.
	verified map[string]obs.RunRecord
}

// check reports whether rec equals its pinned record.
func (l *clientLog) check(p *pins, rec obs.RunRecord) bool {
	if v, ok := l.verified[rec.Key()]; ok {
		return reflect.DeepEqual(v, rec)
	}
	if !p.matches(rec) {
		return false
	}
	if l.verified == nil {
		l.verified = make(map[string]obs.RunRecord)
	}
	l.verified[rec.Key()] = rec
	return true
}

// session sends specs as one `experiments -remote` run does: one worker
// per log takes them in turn from a shared queue, each a synchronous run,
// and the session ends with the last reply. Every reply must carry its
// pinned record and report a cache hit exactly when wantHit.
func (f *facdProc) session(specs []simsvc.JobSpec, wantHit bool, p *pins, logs []clientLog) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := range logs {
		wg.Add(1)
		go func(l *clientLog) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(specs) {
					return
				}
				t0 := time.Now()
				rec, hit, err := f.client.RunSync(context.Background(), specs[k])
				l.lat = append(l.lat, float64(time.Since(t0))/float64(time.Millisecond))
				l.specs = append(l.specs, specs[k])
				l.tally.add(classify(err, err == nil && hit == wantHit && l.check(p, rec)))
			}
		}(&logs[i])
	}
	wg.Wait()
}

// shuffled returns specs in the next seeded order.
func shuffled(rng *rand.Rand, specs []simsvc.JobSpec) []simsvc.JobSpec {
	out := make([]simsvc.JobSpec, len(specs))
	for i, k := range rng.Perm(len(specs)) {
		out[i] = specs[k]
	}
	return out
}

// sessionSeconds sizes the fixed number of warm sessions a run measures:
// one per sessionSeconds of measuring time. A warm 76-run session takes
// about 20 ms on a 2-core Xeon.
const sessionSeconds = 0.02

// facdRunConfig is one facd-mixed measurement's shape.
type facdRunConfig struct {
	specs    []simsvc.JobSpec // one session's requests
	sessions int              // warm sessions, spread over the daemons
	rounds   int              // daemons, each set up and measured in turn
	seed     int64
	tag      string
}

// facdRun is what one facd-mixed measurement saw. Each round boots a
// daemon, sends it one cold session (its set-up), then its share of the
// warm sessions; spreading the warm sessions over the daemons keeps one
// daemon's state from deciding the figures.
type facdRun struct {
	setupS   float64
	missLat  []float64 // ms, the cold sessions of every daemon
	hitLat   []float64 // ms, the warm sessions of every daemon
	sessionS []float64 // seconds per warm session
	window   time.Duration
	cpu      time.Duration // facd CPU during the warm sessions
	peakRSS  float64       // median over the daemons of facd's peak RSS, MB
	tally    tally
	// The last daemon's requests and state, which the traced run uses.
	cold     []clientLog   // its cold session, per worker
	warm     []clientLog   // its warm sessions, per worker
	cpuTotal time.Duration // its CPU from boot to the end of its warm sessions
	rssSetup float64       // its RSS after set-up, MB
	rssEnd   float64       // and after the warm sessions
	metrics  []byte        // its /metrics body after the warm sessions
	waits    []float64     // queue waits of a batch sent to it afterwards, ms
	cacheDir string
}

func runFacd(e *env, cfg facdRunConfig) (*facdRun, error) {
	bins, err := e.buildTools("facd")
	if err != nil {
		return nil, err
	}
	s := &facdRun{}
	nCli := runtime.NumCPU()
	rng := rand.New(rand.NewSource(cfg.seed))
	var f *facdProc
	defer func() {
		if f != nil {
			f.kill()
		}
	}()
	var setups, peaks []float64
	for i := 0; i < cfg.rounds; i++ {
		s.cacheDir = filepath.Join(e.work, fmt.Sprintf("%s-cache-%d", cfg.tag, i))
		t0 := time.Now()
		if f, err = startFacd(bins[0], s.cacheDir); err != nil {
			return nil, err
		}
		s.cold = make([]clientLog, nCli)
		f.session(shuffled(rng, cfg.specs), false, e.pins, s.cold)
		setups = append(setups, time.Since(t0).Seconds())
		for _, l := range s.cold {
			s.tally.merge(l.tally)
			s.missLat = append(s.missLat, l.lat...)
		}
		if s.rssSetup, _, err = procMem(f.pid()); err != nil {
			return nil, err
		}

		cpu0, err := procCPU(f.pid())
		if err != nil {
			return nil, err
		}
		s.warm = make([]clientLog, nCli)
		t0 = time.Now()
		for k := i * cfg.sessions / cfg.rounds; k < (i+1)*cfg.sessions/cfg.rounds; k++ {
			order := shuffled(rng, cfg.specs)
			ts := time.Now()
			f.session(order, true, e.pins, s.warm)
			s.sessionS = append(s.sessionS, time.Since(ts).Seconds())
		}
		s.window += time.Since(t0)
		if s.cpuTotal, err = procCPU(f.pid()); err != nil {
			return nil, err
		}
		s.cpu += s.cpuTotal - cpu0
		for _, l := range s.warm {
			s.tally.merge(l.tally)
			s.hitLat = append(s.hitLat, l.lat...)
		}
		var peak float64
		if s.rssEnd, peak, err = procMem(f.pid()); err != nil {
			return nil, err
		}
		peaks = append(peaks, peak)

		if i == cfg.rounds-1 {
			if s.metrics, err = f.getRaw("/metrics"); err != nil {
				return nil, err
			}
			// Sessions never queue; the queue waits come from one batch of
			// the session's first specs, sent after the measurement.
			ok, err := s.queueWaits(f, cfg.specs[:min(len(cfg.specs), waitBatch)])
			s.tally.add(classify(err, ok))
			if err != nil {
				return nil, err
			}
		}
		err = f.stop()
		f = nil
		if err != nil {
			return nil, err
		}
	}
	s.setupS = median(setups)
	s.peakRSS = median(peaks)
	return s, nil
}

// waitBatch is the size of that batch, within facd's default per-client
// queue quota of 64 jobs.
const waitBatch = 32

// queueWaits submits specs as one batch, waits for it and reads its jobs'
// queue waits from the batch view. ok is false unless every job is done.
func (s *facdRun) queueWaits(f *facdProc, specs []simsvc.JobSpec) (ok bool, err error) {
	ctx := context.Background()
	id, _, err := f.client.Submit(ctx, specs)
	if err != nil {
		return false, err
	}
	st, err := f.client.WaitBatch(ctx, id, time.Millisecond)
	if err != nil {
		return false, err
	}
	data, err := f.getRaw("/v1/batches/" + id)
	if err != nil {
		return false, err
	}
	var v struct {
		Jobs []struct {
			QueueWaitMS float64 `json:"queue_wait_ms"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return false, err
	}
	for _, j := range v.Jobs {
		s.waits = append(s.waits, j.QueueWaitMS)
	}
	return st.Done == len(specs), nil
}

// serviceCounts reads the refusals and failed jobs facd reports.
func (s *facdRun) serviceCounts() (refused, failed float64, err error) {
	var m struct {
		Jobs    map[string]float64            `json:"jobs"`
		Clients map[string]map[string]float64 `json:"clients"`
	}
	if err := json.Unmarshal(s.metrics, &m); err != nil {
		return 0, 0, fmt.Errorf("decode /metrics: %w", err)
	}
	for _, c := range m.Clients {
		refused += c["rejected"]
	}
	return refused, m.Jobs["failed"], nil
}

func facdMixedRun(e *env, traced bool) (*facdRun, error) {
	rounds := setupRounds
	if traced {
		rounds = 1 // the replica repeats one daemon's requests
	}
	return runFacd(e, facdRunConfig{
		specs: facdSpecs(), sessions: max(rounds, int(e.seconds.Seconds()/sessionSeconds)),
		rounds: rounds, seed: e.seed, tag: "facd",
	})
}

func runFacdMixed(e *env) (*report, error) {
	s, err := facdMixedRun(e, false)
	if err != nil {
		return nil, err
	}
	r := newReport()
	r.tally = s.tally
	hits := s.hitLat
	r.printf("facd-mixed: seed %d, %d workers, %d daemons each sent one cold session, %d warm sessions of %d runs, %d warm requests in %.2fs",
		e.seed, len(s.warm), setupRounds, len(s.sessionS), len(facdSpecs()), len(hits), s.window.Seconds())
	r.set("setup_s", s.setupS, "s", fmt.Sprintf("facd boot plus one cold session (median of %d)", setupRounds))
	r.set("wall_s", median(s.sessionS), "s", fmt.Sprintf("one warm session (median of %d)", len(s.sessionS)))
	r.set("cpu_s", s.cpu.Seconds()/float64(len(s.sessionS)), "s", "facd user+sys CPU per warm session")
	r.set("peak_rss_mb", s.peakRSS, "MB", fmt.Sprintf("facd peak resident set (median of %d daemons)", setupRounds))
	r.show("jobs_per_s", float64(len(hits))/s.window.Seconds(), "1/s", "warm requests answered per second")
	showLatency(r, "hit", hits)
	showLatency(r, "miss", s.missLat)
	refused, failed, err := s.serviceCounts()
	if err != nil {
		return nil, err
	}
	r.printf("  facd reports %.0f refused requests and %.0f failed jobs", refused, failed)
	return r, nil
}

// showLatency prints a request kind's median and tail.
func showLatency(r *report, kind string, lat []float64) {
	r.show(kind+"_p50_ms", median(lat), "ms", fmt.Sprintf("(%d samples)", len(lat)))
	if t, ok := tail(lat); ok {
		r.show(kind+"_tail_ms", t.Value, "ms", "("+t.String()+")")
	} else {
		r.printf("  %-30s %14s %-8s (%d samples: too few for a tail)", kind+"_tail_ms", "-", "ms", len(lat))
	}
}
