// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) on the substitute benchmark suite: Figure 2 (load
// latency potential), Table 1 (reference behaviour), Figure 3 (offset
// distributions), Table 3 (baseline statistics and prediction failure
// rates), Table 4 (software support), Figure 6 (speedups), Table 6 (cache
// bandwidth overhead), plus the ablations DESIGN.md calls out (tag adder,
// store-buffer depth, MSHR count, block size).
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/fac"
	"repro/internal/ltb"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/simsvc"
	"repro/internal/workload"
)

// Geometries used throughout: the paper's 16KB direct-mapped cache with 16-
// and 32-byte blocks.
var (
	Geo16 = fac.Config{BlockBits: 4, SetBits: 14}
	Geo32 = fac.Config{BlockBits: 5, SetBits: 14}
)

// Machine names every simulator configuration used by the experiments.
type Machine string

const (
	MBase32     Machine = "base32"      // Table 5 baseline, 32B blocks
	MBase16     Machine = "base16"      // baseline with 16B data blocks
	MOneCycle   Machine = "1cyc"        // 1-cycle loads (Figure 2)
	MPerfect    Machine = "perfect"     // perfect data cache (Figure 2)
	MOnePerfect Machine = "1cyc+perf"   // both (Figure 2)
	MFAC16      Machine = "fac16"       // FAC, 16B blocks, no R+R speculation
	MFAC32      Machine = "fac32"       // FAC, 32B blocks, no R+R speculation
	MFAC16RR    Machine = "fac16+rr"    // FAC, 16B blocks, R+R speculation
	MFAC32RR    Machine = "fac32+rr"    // FAC, 32B blocks, R+R speculation
	MFAC32Tag   Machine = "fac32+tag"   // ablation: tag adder
	MFAC32SB4   Machine = "fac32+sb4"   // ablation: 4-entry store buffer
	MFAC32SB64  Machine = "fac32+sb64"  // ablation: 64-entry store buffer
	MFAC32MSHR1 Machine = "fac32+mshr1" // ablation: single outstanding miss
	MAGI        Machine = "agi"         // related work: AGI pipeline organization

	// Predictor-zoo machines (internal/predict), all at 32-byte blocks.
	MPCAX      Machine = "pcax"      // PC-indexed last-address table
	MStride    Machine = "stride"    // PC-indexed two-delta stride table
	MSelective Machine = "selective" // FAC gated by static proven-failing verdicts
)

// MachineConfig resolves a machine name to its simulator configuration.
func MachineConfig(m Machine) (pipeline.Config, error) {
	cfg := pipeline.DefaultConfig()
	switch m {
	case MBase32:
	case MBase16:
		cfg.DCache.BlockSize = 16
	case MOneCycle:
		cfg.LoadLatency = 1
	case MPerfect:
		cfg.PerfectDCache = true
	case MOnePerfect:
		cfg.LoadLatency = 1
		cfg.PerfectDCache = true
	case MFAC16:
		cfg.Predictor = "fac"
		cfg.DCache.BlockSize = 16
	case MFAC32:
		cfg.Predictor = "fac"
	case MFAC16RR:
		cfg.Predictor = "fac"
		cfg.DCache.BlockSize = 16
		cfg.SpeculateRegReg = true
	case MFAC32RR:
		cfg.Predictor = "fac"
		cfg.SpeculateRegReg = true
	case MFAC32Tag:
		cfg.Predictor = "fac"
		cfg.FACGeom = fac.Config{BlockBits: 5, SetBits: 14, TagAdder: true}
	case MFAC32SB4:
		cfg.Predictor = "fac"
		cfg.StoreBufferEntries = 4
	case MFAC32SB64:
		cfg.Predictor = "fac"
		cfg.StoreBufferEntries = 64
	case MFAC32MSHR1:
		cfg.Predictor = "fac"
		cfg.DCache.MSHRs = 1
	case MAGI:
		cfg.AGI = true
		cfg.MispredictPenalty++ // branches resolve one stage later
	case MPCAX:
		cfg.Predictor = "pcax"
	case MStride:
		cfg.Predictor = "stride"
	case MSelective:
		cfg.Predictor = "selective"
	default:
		return cfg, fmt.Errorf("experiments: unknown machine %q", m)
	}
	return cfg, nil
}

// FuncResult is what the evaluation reads of one binary's functional
// behaviour, all measured by one reader on the binary's emulation pass
// (meter).
type FuncResult struct {
	// Profile's geometries are Geo16 and Geo32, and for a base binary
	// also Geo32 with a tag adder and 64-byte blocks (the ablations').
	Profile *profile.Profile
	MemUse  uint64
	// Load-address accuracy of 1K-entry load target buffers (Golden &
	// Mudge) under the last-address and stride policies; base binaries
	// only, since the LTB comparison replays the baseline code.
	LTBLast, LTBStride float64
}

// Suite memoizes program builds, functional measurements, and timing
// runs across experiments. Every timing run also yields a canonical
// obs.RunRecord, so any sequence of experiments can be exported as one
// machine-readable report (cmd/experiments -json).
type Suite struct {
	MaxInsts uint64

	// flight collapses concurrent identical builds onto one leader. The
	// memo maps alone cannot do this: they are consulted under mu but
	// filled only after the work completes, so two workers racing on the
	// same key both used to run it. Runs are collapsed the same way
	// through claims, because Prefetch claims many keys at once.
	flight simsvc.Flight

	// runMany makes one emulation pass over a binary: core.RunMany. Every
	// pass of the suite goes through it; tests wrap it to count them.
	runMany func(ctx context.Context, p *prog.Program, cfgs []pipeline.Config, maxInsts uint64, readers ...func([]emu.Trace)) (core.Outcome, []pipeline.Stats, error)

	mu       sync.Mutex
	programs map[string]*prog.Program
	funcs    map[string]*FuncResult
	timings  map[string]pipeline.Stats
	records  map[string]obs.RunRecord
	claims   map[string]*claim // runs a Prefetch call is executing
	disk     *simsvc.DiskCache
	remote   *simsvc.Client
	counts   RunCounts
}

// claim is a run that one Prefetch call is executing. Other
// callers that need the same run wait for done instead of repeating it;
// err is the executing call's error when the run did not complete.
type claim struct {
	done chan struct{}
	err  error
}

// Run is one timing run: a workload binary, built by one toolchain, on
// one machine. A Run with no Machine is the binary's functional run: it
// measures the binary's FuncResult and times nothing.
type Run struct {
	Workload  workload.Workload
	Toolchain string
	Machine   Machine
	// adhoc is the configuration of a machine outside the machine table
	// (the cache sweep's). Such runs stay out of the exported report and
	// always simulate locally, since a remote daemon resolves only names.
	adhoc *pipeline.Config
}

func (r Run) key() string { return r.binary() + "|" + string(r.Machine) }

func (r Run) binary() string { return r.Workload.Name + "|" + r.Toolchain }

func (r Run) functional() bool { return r.Machine == "" }

func (r Run) config() (pipeline.Config, error) {
	if r.adhoc != nil {
		return *r.adhoc, nil
	}
	return MachineConfig(r.Machine)
}

// grid expands (toolchain, machine) pairs over every workload.
func grid(pairs [][2]string) []Run {
	var runs []Run
	for _, w := range workload.All() {
		for _, pr := range pairs {
			runs = append(runs, Run{Workload: w, Toolchain: pr[0], Machine: Machine(pr[1])})
		}
	}
	return runs
}

// RunCounts is the suite's execution accounting for one process: where
// each timing run's result actually came from. An unchanged grid re-run
// against a warm persistent cache reports Simulated == 0 with CacheHits ==
// everything.
type RunCounts struct {
	// Simulated counts fresh local simulations.
	Simulated int `json:"simulated"`
	// Remote counts runs served by a remote daemon or fleet coordinator.
	Remote int `json:"remote"`
	// CacheHits counts runs rehydrated from the persistent disk cache.
	CacheHits int `json:"cache_hits"`
}

// NewSuite creates an experiment suite.
func NewSuite() *Suite {
	return &Suite{
		MaxInsts: simsvc.DefaultMaxInsts,
		programs: make(map[string]*prog.Program),
		funcs:    make(map[string]*FuncResult),
		timings:  make(map[string]pipeline.Stats),
		records:  make(map[string]obs.RunRecord),
		claims:   make(map[string]*claim),
		runMany:  core.RunMany,
	}
}

// SetCache attaches a persistent result cache: timing runs whose
// content-addressed key (workload, toolchain, machine config, simulator
// version) is present are rehydrated from disk instead of simulated, and
// fresh runs are written back. The same directory format is shared with
// the facd daemon.
func (s *Suite) SetCache(c *simsvc.DiskCache) {
	s.mu.Lock()
	s.disk = c
	s.mu.Unlock()
}

// SetRemote routes named-machine timing runs to a simulation daemon (or
// fleet coordinator) instead of simulating locally. Determinism makes
// the substitution invisible: the daemon returns the exact RunRecord a
// local run would produce, so reports are byte-identical either way.
// Ad-hoc sweep configurations outside the named machine table still run
// locally — a remote daemon only resolves machine names.
func (s *Suite) SetRemote(c *simsvc.Client) {
	s.mu.Lock()
	s.remote = c
	s.mu.Unlock()
}

// Counts snapshots the suite's execution accounting.
func (s *Suite) Counts() RunCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts
}

// CacheStats reports the attached persistent cache's statistics, if any.
func (s *Suite) CacheStats() (simsvc.DiskCacheStats, bool) {
	s.mu.Lock()
	c := s.disk
	s.mu.Unlock()
	if c == nil {
		return simsvc.DiskCacheStats{}, false
	}
	return c.Stats(), true
}

func toolchain(name string) workload.Toolchain {
	if name == "fac" {
		return workload.FACToolchain()
	}
	return workload.BaseToolchain()
}

// Program builds (and caches) a workload under a toolchain ("base"/"fac").
// Concurrent callers for the same key share one build.
func (s *Suite) Program(w workload.Workload, tc string) (*prog.Program, error) {
	key := w.Name + "|" + tc
	s.mu.Lock()
	if p, ok := s.programs[key]; ok {
		s.mu.Unlock()
		return p, nil
	}
	s.mu.Unlock()
	v, _, err := s.flight.Do("prog|"+key, func() (any, error) {
		s.mu.Lock()
		if p, ok := s.programs[key]; ok {
			s.mu.Unlock()
			return p, nil
		}
		s.mu.Unlock()
		p, err := workload.Build(w, toolchain(tc))
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.programs[key] = p
		s.mu.Unlock()
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*prog.Program), nil
}

// Functional returns a binary's functional measurements, executing its
// functional run through Prefetch unless they are memoized already.
func (s *Suite) Functional(w workload.Workload, tc string) (*FuncResult, error) {
	r := Run{Workload: w, Toolchain: tc}
	if err := s.Prefetch([]Run{r}); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.funcs[r.binary()], nil
}

// Timing runs a workload on a machine (with caching and output validation).
func (s *Suite) Timing(w workload.Workload, tc string, m Machine) (pipeline.Stats, error) {
	if m == "" {
		return pipeline.Stats{}, fmt.Errorf("experiments: unknown machine %q", m)
	}
	return s.timing(Run{Workload: w, Toolchain: tc, Machine: m})
}

// timing returns one run's statistics, executing it through Prefetch
// unless it is memoized already.
func (s *Suite) timing(r Run) (pipeline.Stats, error) {
	if err := s.Prefetch([]Run{r}); err != nil {
		return pipeline.Stats{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.timings[r.key()], nil
}

// Prefetch executes runs in parallel and memoizes them. A timing run
// comes from the first place that has it: the memo, the persistent disk
// cache, then, for machines in the machine table, the remote daemon.
// The runs left over simulate locally, grouped by binary: each
// (workload, toolchain) pair is emulated once, its trace stream is timed
// on all of the group's machines at once (core.RunMany), and the binary's
// functional run, when it is among them, reads the same pass. A
// functional run alone makes a pass with no machines. A run that another
// Prefetch call is already executing is waited for, not repeated.
func (s *Suite) Prefetch(runs []Run) error {
	mine, waits := s.claim(runs)
	err := s.execute(mine)
	s.mu.Lock()
	for _, r := range mine {
		k := r.key()
		c := s.claims[k]
		delete(s.claims, k)
		if !s.memoized(r) {
			c.err = err
		}
		close(c.done)
	}
	s.mu.Unlock()
	for _, c := range waits {
		<-c.done
		if err == nil {
			err = c.err
		}
	}
	return err
}

// claim splits runs into those this call must execute, claiming each,
// and those another call is executing already. Duplicates and memoized
// runs drop out.
func (s *Suite) claim(runs []Run) (mine []Run, waits []*claim) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[string]bool, len(runs))
	for _, r := range runs {
		k := r.key()
		if seen[k] {
			continue
		}
		seen[k] = true
		if s.memoized(r) {
			continue
		}
		if c, ok := s.claims[k]; ok {
			waits = append(waits, c)
			continue
		}
		s.claims[k] = &claim{done: make(chan struct{})}
		mine = append(mine, r)
	}
	return mine, waits
}

// memoized reports whether r's result is in the memo. s.mu must be held.
func (s *Suite) memoized(r Run) bool {
	if r.functional() {
		_, ok := s.funcs[r.binary()]
		return ok
	}
	_, ok := s.timings[r.key()]
	return ok
}

// execute runs claimed runs: first each timing run's disk-cache lookup
// and remote execution, then one local simulation pass per binary for
// the rest.
func (s *Suite) execute(runs []Run) error {
	if len(runs) == 0 {
		return nil
	}
	cfgs := make([]pipeline.Config, len(runs))
	for i, r := range runs {
		if r.functional() {
			continue
		}
		cfg, err := r.config()
		if err != nil {
			return err
		}
		cfgs[i] = cfg
	}
	s.mu.Lock()
	disk, remote := s.disk, s.remote
	s.mu.Unlock()

	served := make([]bool, len(runs))
	if disk != nil || remote != nil {
		jobs := make([]job, len(runs))
		for i, r := range runs {
			jobs[i] = func(ctx context.Context) error {
				var err error
				served[i], err = s.fetch(ctx, r, cfgs[i], disk, remote)
				return err
			}
		}
		if err := runParallel(jobs); err != nil {
			return err
		}
	}

	var groups []*group
	byBinary := make(map[string]*group)
	for i, r := range runs {
		if served[i] {
			continue
		}
		g := byBinary[r.binary()]
		if g == nil {
			g = &group{w: r.Workload, tc: r.Toolchain}
			byBinary[r.binary()] = g
			groups = append(groups, g)
		}
		if r.functional() {
			g.measure = true
			continue
		}
		g.runs = append(g.runs, r)
		g.cfgs = append(g.cfgs, cfgs[i])
	}
	jobs := make([]job, len(groups))
	for i, g := range groups {
		jobs[i] = func(ctx context.Context) error {
			return s.simulate(ctx, g, disk)
		}
	}
	return runParallel(jobs)
}

// diskKey is r's content-addressed key in the persistent cache, or ""
// when there is no cache or the key cannot be computed.
func (s *Suite) diskKey(disk *simsvc.DiskCache, r Run, cfg pipeline.Config) string {
	if disk == nil {
		return ""
	}
	k, err := simsvc.CacheKey(r.Workload, r.Toolchain, string(r.Machine), cfg, s.MaxInsts)
	if err != nil {
		return ""
	}
	return k
}

// fetch serves one run from the persistent cache or, for a named
// machine, the remote daemon. It reports false when the run must
// simulate locally.
func (s *Suite) fetch(ctx context.Context, r Run, cfg pipeline.Config, disk *simsvc.DiskCache, remote *simsvc.Client) (bool, error) {
	if r.functional() {
		return false, nil
	}
	// Persistent cache: a prior process (this tool or the facd daemon)
	// may have already simulated this exact configuration.
	diskKey := s.diskKey(disk, r, cfg)
	if diskKey != "" {
		if rec, ok := disk.Get(diskKey); ok {
			s.finish(r, pipeline.StatsFromRecord(rec), rec, func(c *RunCounts) { c.CacheHits++ })
			return true, nil
		}
	}
	if remote == nil || r.adhoc != nil {
		return false, nil
	}
	rec, _, err := remote.RunSync(ctx, simsvc.JobSpec{
		Workload: r.Workload.Name, Toolchain: r.Toolchain, Machine: string(r.Machine), MaxInsts: s.MaxInsts,
	})
	if err != nil {
		return false, fmt.Errorf("%s/%s/%s: remote: %w", r.Workload.Name, r.Toolchain, r.Machine, err)
	}
	if diskKey != "" {
		disk.Put(diskKey, rec) // share the fetch with future local passes
	}
	s.finish(r, pipeline.StatsFromRecord(rec), rec, func(c *RunCounts) { c.Remote++ })
	return true, nil
}

// group is one emulation pass: a binary, the machines that time it, and
// whether it carries the binary's functional run.
type group struct {
	w       workload.Workload
	tc      string
	runs    []Run
	cfgs    []pipeline.Config
	measure bool
}

// simulate makes a group's emulation pass, checks the program's output,
// and memoizes every result. The meter is made here, not with the group,
// so that its buffers live only as long as the pass.
func (s *Suite) simulate(ctx context.Context, g *group, disk *simsvc.DiskCache) error {
	w, tc := g.w, g.tc
	var readers []func([]emu.Trace)
	var measured func(core.Outcome) *FuncResult
	if g.measure {
		readers, measured = meter(tc)
	}
	p, err := s.Program(w, tc)
	if err != nil {
		return err
	}
	out, stats, err := s.runMany(ctx, p, g.cfgs, s.MaxInsts, readers...)
	if err != nil {
		var errs pipeline.RunErrors
		if errors.As(err, &errs) {
			for i, e := range errs {
				if e != nil {
					return fmt.Errorf("%s/%s/%s: %w", w.Name, tc, g.runs[i].Machine, e)
				}
			}
		}
		return fmt.Errorf("%s/%s: %w", w.Name, tc, err)
	}
	if out.Output != w.Expected {
		return fmt.Errorf("%s/%s: output %q != expected %q", w.Name, tc, out.Output, w.Expected)
	}
	if g.measure {
		fr := measured(out)
		s.mu.Lock()
		s.funcs[w.Name+"|"+tc] = fr
		s.mu.Unlock()
	}
	for i, r := range g.runs {
		rec := stats[i].Record(w.Name, w.Class.String(), tc, string(r.Machine))
		if k := s.diskKey(disk, r, g.cfgs[i]); k != "" {
			disk.Put(k, rec) // best effort; a write failure only costs a future re-run
		}
		s.finish(r, stats[i], rec, func(c *RunCounts) { c.Simulated++ })
	}
	return nil
}

// meter returns the reader that measures a tc binary's FuncResult on the
// binary's emulation pass, and the function that returns the result once
// the pass has ended.
func meter(tc string) ([]func([]emu.Trace), func(core.Outcome) *FuncResult) {
	geoms := []fac.Config{Geo16, Geo32}
	var ltbs []*ltb.Predictor // last-address, stride
	if tc == "base" {
		geoms = append(geoms, fac.Config{BlockBits: 5, SetBits: 14, TagAdder: true}, fac.Config{BlockBits: 6, SetBits: 14})
		ltbs = []*ltb.Predictor{ltb.New(ltb.Config{Entries: 1024}), ltb.New(ltb.Config{Entries: 1024, Stride: true})}
	}
	prof := profile.New(geoms...)
	read := func(b []emu.Trace) {
		for _, tr := range b {
			prof.Note(tr)
			if tr.Inst.Op.IsLoad() {
				for _, l := range ltbs {
					l.Access(tr.PC, tr.EffAddr)
				}
			}
		}
	}
	return []func([]emu.Trace){read}, func(out core.Outcome) *FuncResult {
		fr := &FuncResult{Profile: &prof.P, MemUse: out.MemFootprint}
		if ltbs != nil {
			fr.LTBLast, fr.LTBStride = ltbs[0].Accuracy(), ltbs[1].Accuracy()
		}
		return fr
	}
}

// finish memoizes a completed run and counts where it came from. A
// disk-sourced RunRecord is stored verbatim, so a cache hit and a fresh
// simulation export the same bytes.
func (s *Suite) finish(r Run, st pipeline.Stats, rec obs.RunRecord, bump func(*RunCounts)) {
	k := r.key()
	s.mu.Lock()
	s.timings[k] = st
	if r.adhoc == nil {
		s.records[k] = rec
	}
	bump(&s.counts)
	s.mu.Unlock()
}

// Report collects every timing run performed so far into a sorted,
// deterministically encodable report. Identical experiment sequences
// produce byte-identical Report.Encode output regardless of worker
// count or execution order.
func (s *Suite) Report(tool string) *obs.Report {
	rep := obs.NewReport(tool, runtime.Version())
	s.mu.Lock()
	for _, r := range s.records {
		rep.Add(r)
	}
	s.mu.Unlock()
	rep.Sort()
	return rep
}

// job is one unit of parallel work. The pool's context is canceled when
// any job fails; jobs that can stop early (timing runs) thread it into
// the simulator's cycle loop.
type job func(ctx context.Context) error

// runParallel executes jobs with a bounded worker pool. On the first
// failure it cancels the pool context — in-flight simulations abort at
// the next cycle-loop check and queued jobs are skipped — and returns
// the error of the earliest-submitted genuinely failed job, so the
// reported error does not depend on worker count or scheduling.
func runParallel(jobs []job) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}
	type task struct {
		idx int
		fn  job
	}
	ch := make(chan task)
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ch {
				if ctx.Err() != nil {
					errs[t.idx] = ctx.Err() // skipped: pool already canceled
					continue
				}
				if err := t.fn(ctx); err != nil {
					errs[t.idx] = err
					cancel()
				}
			}
		}()
	}
	for i, j := range jobs {
		ch <- task{i, j}
	}
	close(ch)
	wg.Wait()

	// Deterministic selection: the earliest submitted error that is not
	// collateral damage of the pool's own cancellation. cancel() is only
	// called on a genuine failure, so at least one such error exists
	// whenever any error does.
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err // fallback, in case every error is cancellation
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
	}
	return first
}
