package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/fac"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/staticfac"
	"repro/internal/workload"
)

// span is one timed call into a layer. A span's self time is its
// duration minus the durations of its children.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"` // 0 = none
	Req    string        `json:"req"`              // the run or request the call served
	Layer  string        `json:"layer"`
	Start  time.Duration `json:"start_ns"` // since the tracer started
	Dur    time.Duration `json:"dur_ns"`
	// Work is the layer's count for the call: instructions (emu,
	// profile), cycles (pipeline), sites (staticfac), lookups that hit
	// (diskcache.get).
	Work uint64 `json:"work,omitempty"`
	// Aux is a second count: instructions (pipeline), trace batches
	// (emu), classified sites (staticfac).
	Aux uint64 `json:"aux,omitempty"`
}

// tracer keeps spans in memory; it is safe for concurrent use.
type tracer struct {
	name    string
	origin  time.Time
	wall    time.Duration // set by finish
	workers int           // goroutines that made the spans
	mu      sync.Mutex
	spans   []span
}

func newTracer(name string) *tracer { return &tracer{name: name, origin: time.Now()} }

// finish records how long the traced work took and on how many workers.
func (t *tracer) finish(workers int) {
	t.wall = time.Since(t.origin)
	t.workers = workers
}

// add records a span that started at t0 and returns its id.
func (t *tracer) add(layer, req string, parent int, t0 time.Time, dur time.Duration, work, aux uint64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Layer: layer,
		Start: t0.Sub(t.origin), Dur: dur, Work: work, Aux: aux})
	return id
}

// layerStat aggregates one layer's spans.
type layerStat struct {
	Self  time.Duration
	Calls int
	Work  uint64
	Aux   uint64
}

// layers sums self time and counts by layer.
func (t *tracer) layers() map[string]*layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.Dur
		}
	}
	out := make(map[string]*layerStat)
	for _, s := range t.spans {
		st := out[s.Layer]
		if st == nil {
			st = &layerStat{}
			out[s.Layer] = st
		}
		st.Self += s.Dur - child[s.ID]
		st.Calls++
		st.Work += s.Work
		st.Aux += s.Aux
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedSource is the emulator as the pipeline's trace source, like
// core's adapter, timing the emulator's share of the run.
type timedSource struct {
	e       *emu.Emulator
	emu     time.Duration
	batches uint64
}

func (t *timedSource) Next() (emu.Trace, bool, error) {
	if t.e.Halted {
		return emu.Trace{}, false, nil
	}
	t0 := time.Now()
	tr, err := t.e.Step()
	t.emu += time.Since(t0)
	if err != nil {
		return emu.Trace{}, false, err
	}
	return tr, true, nil
}

func (t *timedSource) NextBatch(buf []emu.Trace) (int, error) {
	t.batches++
	t0 := time.Now()
	n := 0
	for n < len(buf) && !t.e.Halted {
		if err := t.e.StepInto(&buf[n]); err != nil {
			t.emu += time.Since(t0)
			return 0, err
		}
		n++
	}
	t.emu += time.Since(t0)
	return n, nil
}

// toolchain returns a workload toolchain by its report name.
func toolchain(name string) workload.Toolchain {
	if name == "fac" {
		return workload.FACToolchain()
	}
	return workload.BaseToolchain()
}

// tracedBuild is workload.Build with each stage timed.
func tracedBuild(tr *tracer, w workload.Workload, tc workload.Toolchain) (*prog.Program, error) {
	req := w.Name + "|" + tc.Name
	t0 := time.Now()
	asmText, err := minic.Compile(w.Source, tc.Opts)
	tr.add("minic", req, 0, t0, time.Since(t0), 1, 0)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	t0 = time.Now()
	o, err := asm.Assemble(asmText)
	tr.add("asm", req, 0, t0, time.Since(t0), 1, 0)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	t0 = time.Now()
	p, err := prog.Link(o, tc.Link)
	tr.add("prog", req, 0, t0, time.Since(t0), 1, 0)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	return p, nil
}

// tracedSim is core.Run with the pipeline and the emulator timed
// apart, returning the run's record and its JSON encoding.
func tracedSim(tr *tracer, p *prog.Program, w workload.Workload, tc, machine string, cfg pipeline.Config, maxInsts uint64) (obs.RunRecord, []byte, error) {
	req := w.Name + "|" + tc + "|" + machine
	if cfg.PredictorName() == "selective" && cfg.StaticTable == nil {
		t0 := time.Now()
		cfg.StaticTable = predict.BuildStaticTable(p, cfg.FACGeometry())
		tr.add("staticfac", req, 0, t0, time.Since(t0), 0, 0)
	}
	e := emu.New(p)
	e.MaxInsts = maxInsts
	src := &timedSource{e: e}
	t0 := time.Now()
	st, err := pipeline.RunCtx(nil, cfg, src, nil)
	dur := time.Since(t0)
	if err != nil {
		return obs.RunRecord{}, nil, fmt.Errorf("%s: %w", req, err)
	}
	id := tr.add("pipeline", req, 0, t0, dur, st.Cycles, st.Insts)
	tr.add("emu", req, id, t0, src.emu, e.InstCount, src.batches)
	if out := e.Out.String(); out != w.Expected {
		return obs.RunRecord{}, nil, fmt.Errorf("%s: output %q != expected %q", req, out, w.Expected)
	}
	rec := st.Record(w.Name, w.Class.String(), tc, machine)
	t0 = time.Now()
	b, err := json.Marshal(rec)
	tr.add("obs", req, 0, t0, time.Since(t0), 1, 0)
	return rec, b, err
}

// tracedProfile is profile.Run timed as one call, with the output check
// experiments.Suite applies.
func tracedProfile(tr *tracer, p *prog.Program, w workload.Workload, tc string, maxInsts uint64, geoms ...fac.Config) error {
	t0 := time.Now()
	_, e, err := profile.Run(p, maxInsts, geoms...)
	tr.add("profile", w.Name+"|"+tc, 0, t0, time.Since(t0), e.InstCount, 0)
	if err != nil {
		return fmt.Errorf("%s/%s: %w", w.Name, tc, err)
	}
	if out := e.Out.String(); out != w.Expected {
		return fmt.Errorf("%s/%s: output %q != expected %q", w.Name, tc, out, w.Expected)
	}
	return nil
}

// tracedAnalyze is staticfac.Analyze timed, counting sites and classified
// sites.
func tracedAnalyze(tr *tracer, req string, p *prog.Program, g fac.Config) *staticfac.Analysis {
	t0 := time.Now()
	a := staticfac.Analyze(p, g)
	dur := time.Since(t0)
	s := a.Summary()
	tr.add("staticfac", req, 0, t0, dur, uint64(s.Sites), uint64(s.Sites-s.ByVerdict[staticfac.VerdictUnknown]))
	return a
}

// parallel runs jobs on nproc workers and returns the first error in job
// order.
func parallel(workers int, jobs []func() error) error {
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				errs[k] = jobs[k]()
			}
		}()
	}
	for k := range jobs {
		next <- k
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// overheadRatio is the share of the replica's worker time spent reading
// the clock for its spans: the number of timed intervals (one per span,
// one per trace batch the emulator filled) times the measured cost of
// timing one interval. The replica and the untraced run do different
// work, so their difference would not isolate the overhead.
func overheadRatio(tr *tracer) float64 {
	tr.mu.Lock()
	intervals := uint64(len(tr.spans))
	for _, s := range tr.spans {
		if s.Layer == "emu" {
			intervals += s.Aux
		}
	}
	tr.mu.Unlock()
	const n = 1 << 18
	t0 := time.Now()
	for i := 0; i < n; i++ {
		_ = time.Since(time.Now())
	}
	per := float64(time.Since(t0)) / n
	busy := float64(tr.workers) * float64(tr.wall)
	if busy == 0 {
		return 0
	}
	return float64(intervals) * per / busy
}

// layerRef is the untraced run a traced run is compared with.
type layerRef struct {
	cpu       time.Duration // system process CPU for the work the replica repeats
	coreUtil  float64       // cpu / (wall * nproc) of the untraced run
	uncovered []string      // work of the untraced run the replica skips
}

// svcStats are the service-layer numbers of a facd run.
type svcStats struct {
	hitOverheadMS, queueWaitMS float64
	refused, failed            float64
	metricsBytes, rssGrowthMB  float64
	note                       string // " (probe)" when a probe run measured them
}

// layerReport turns spans into the per-layer metrics. srcs[0] holds the
// workload's replica, whose self time is the trace's coverage; a layer
// the replica does not exercise is taken from the first later source
// that does (the probe), and marked so.
func layerReport(r *report, srcs []*tracer, ref layerRef, svc svcStats) {
	stats := make([]map[string]*layerStat, len(srcs))
	for i, t := range srcs {
		stats[i] = t.layers()
	}
	// pick returns a layer's aggregate, the worker time of its source, and
	// a note naming a fallback source. counted requires Work > 0.
	pick := func(layer string, counted bool) (*layerStat, float64, string) {
		for i, s := range stats {
			if st := s[layer]; st != nil && st.Calls > 0 && (!counted || st.Work > 0) {
				note := ""
				if i > 0 {
					note = " (" + srcs[i].name + ")"
				}
				return st, float64(srcs[i].workers) * srcs[i].wall.Seconds(), note
			}
		}
		return &layerStat{}, 0, " (not measured)"
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	pl, busy, note := pick("pipeline", false)
	r.set("pipeline.mcycles_per_s", ratio(float64(pl.Work)/1e6, pl.Self.Seconds()), "Mcycles/s", "timing-model self rate"+note)
	r.set("pipeline.busy_share", ratio(pl.Self.Seconds(), busy), "ratio", "pipeline self time over worker time"+note)
	r.set("sim.mcycles", float64(pl.Work)/1e6, "Mcycles", "cycles timed"+note)
	r.set("sim.minsts", float64(pl.Aux)/1e6, "Minsts", "instructions timed"+note)
	em, busy, note := pick("emu", false)
	r.set("emu.minsts_per_s", ratio(float64(em.Work)/1e6, em.Self.Seconds()), "Minsts/s", "emulator inside timing runs"+note)
	r.set("emu.busy_share", ratio(em.Self.Seconds(), busy), "ratio", "emulator self time over worker time"+note)
	pr, _, note := pick("profile", false)
	r.set("profile.minsts_per_s", ratio(float64(pr.Work)/1e6, pr.Self.Seconds()), "Minsts/s", "profile.Run"+note)
	for _, l := range []string{"minic", "asm", "prog"} {
		st, _, note := pick(l, false)
		r.set(l+".ms_per_program", ratio(st.Self.Seconds()*1e3, float64(st.Calls)), "ms", fmt.Sprintf("%d programs%s", st.Calls, note))
	}
	sf, _, note := pick("staticfac", false)
	r.set("staticfac.ms_per_program", ratio(sf.Self.Seconds()*1e3, float64(sf.Calls)), "ms", fmt.Sprintf("%d analyses%s", sf.Calls, note))
	cl, _, note := pick("staticfac", true)
	r.set("staticfac.classified_ratio", ratio(float64(cl.Aux), float64(cl.Work)), "ratio", fmt.Sprintf("%d of %d sites%s", cl.Aux, cl.Work, note))
	r.set("experiments.core_utilization", ref.coreUtil, "ratio", "untraced system process: cpu_s / (wall_s * nproc)")
	ob, _, note := pick("obs", false)
	r.set("obs.record_encode_us", ratio(ob.Self.Seconds()*1e6, float64(ob.Calls)), "us", fmt.Sprintf("%d records%s", ob.Calls, note))
	dg, _, note := pick("diskcache.get", false)
	r.set("diskcache.get_ms", ratio(dg.Self.Seconds()*1e3, float64(dg.Calls)), "ms", fmt.Sprintf("%d lookups%s", dg.Calls, note))
	r.set("diskcache.hit_ratio", ratio(float64(dg.Work), float64(dg.Calls)), "ratio", "lookups served"+note)
	dp, _, note := pick("diskcache.put", false)
	r.set("diskcache.put_ms", ratio(dp.Self.Seconds()*1e3, float64(dp.Calls)), "ms", fmt.Sprintf("%d stores%s", dp.Calls, note))
	r.set("simsvc.hit_overhead_ms", svc.hitOverheadMS, "ms", "facd hit p50 minus in-process Runner.Run hit p50"+svc.note)
	r.set("simsvc.queue_wait_ms", svc.queueWaitMS, "ms", "median queue wait of batch jobs"+svc.note)
	r.set("simsvc.refused", svc.refused, "count", "requests facd refused"+svc.note)
	r.set("simsvc.failed", svc.failed, "count", "jobs facd failed"+svc.note)
	r.set("simsvc.metrics_bytes", svc.metricsBytes, "bytes", "/metrics body at the end"+svc.note)
	r.set("simsvc.rss_growth_mb", svc.rssGrowthMB, "MB", "facd RSS at the end minus after set-up"+svc.note)

	var self time.Duration
	names := make([]string, 0, len(stats[0]))
	for name, st := range stats[0] {
		self += st.Self
		names = append(names, name)
	}
	sort.Strings(names)
	r.set("trace.coverage", ratio(self.Seconds(), ref.cpu.Seconds()), "ratio",
		fmt.Sprintf("replica self time %.2fs over untraced CPU %.2fs", self.Seconds(), ref.cpu.Seconds()))
	r.set("trace.overhead_ratio", overheadRatio(srcs[0]), "ratio", "clock reads of the replica's spans over its worker time")
	r.printf("  replica layers: %v", names)
	for _, u := range ref.uncovered {
		r.printf("  not covered by the trace: %s", u)
	}
}

// writeTrace stores a traced run's spans in the build directory.
func writeTrace(e *env, name string, tr *tracer) {
	path := filepath.Join(e.build, fmt.Sprintf("trace-%s-seed%d.jsonl", name, e.seed))
	if err := tr.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: write trace:", err)
		return
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
}
