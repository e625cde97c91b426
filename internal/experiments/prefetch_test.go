package experiments

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/simsvc"
	"repro/internal/workload"
)

// passLog records the emulation passes a Suite makes: one entry per
// runMany call, with the number of machines it timed.
type passLog struct {
	mu       sync.Mutex
	machines map[*prog.Program][]int
}

// logPasses wraps s's simulator, or stub in its place when non-nil, to
// record every pass.
func logPasses(s *Suite, stub func(*prog.Program) core.Outcome) *passLog {
	l := &passLog{machines: make(map[*prog.Program][]int)}
	run := s.runMany
	s.runMany = func(ctx context.Context, p *prog.Program, cfgs []pipeline.Config, maxInsts uint64, readers ...func([]emu.Trace)) (core.Outcome, []pipeline.Stats, error) {
		l.mu.Lock()
		l.machines[p] = append(l.machines[p], len(cfgs))
		l.mu.Unlock()
		if stub != nil {
			return stub(p), make([]pipeline.Stats, len(cfgs)), nil
		}
		return run(ctx, p, cfgs, maxInsts, readers...)
	}
	return l
}

// expectedOutputs is a runMany stub that runs nothing: every pass returns
// its program's expected output, zero Stats, and no traces to its readers.
func expectedOutputs(t *testing.T, s *Suite) func(*prog.Program) core.Outcome {
	t.Helper()
	expected := make(map[*prog.Program]string)
	for _, w := range workload.All() {
		for _, tc := range []string{"base", "fac"} {
			p, err := s.Program(w, tc)
			if err != nil {
				t.Fatal(err)
			}
			expected[p] = w.Expected
		}
	}
	return func(p *prog.Program) core.Outcome { return core.Outcome{Output: expected[p]} }
}

// count returns how many passes the log holds and how many machines they
// timed in all.
func (l *passLog) count() (passes, machines int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ks := range l.machines {
		passes += len(ks)
		for _, k := range ks {
			machines += k
		}
	}
	return passes, machines
}

// passes returns the machine counts of the passes over one binary.
func (l *passLog) passes(t *testing.T, s *Suite, w workload.Workload, tc string) []int {
	t.Helper()
	p, err := s.Program(w, tc)
	if err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.machines[p]
}

// only keeps the runs of the named workloads.
func only(runs []Run, names ...string) []Run {
	var kept []Run
	for _, r := range runs {
		for _, n := range names {
			if r.Workload.Name == n {
				kept = append(kept, r)
			}
		}
	}
	return kept
}

// evaluationPlan is the union of every step's runs: what
// cmd/experiments prefetches when it runs everything.
func evaluationPlan() []Run {
	var plan []Run
	for _, runs := range [][]Run{
		Table1Runs(), Figure2Runs(), Table3Runs(), Table4Runs(), Figure6Runs(), Table6Runs(),
		AblationRuns(), LTBRuns(), AGIRuns(), PredictorRuns(), SweepRuns(),
	} {
		plan = append(plan, runs...)
	}
	return plan
}

// TestPrefetchSimulatesMissesInOnePass: with a partly warm disk cache, a
// binary's group simulates only the runs the cache misses, all of them in
// one emulation pass.
func TestPrefetchSimulatesMissesInOnePass(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	w := testWorkload(t, "queens")
	open := func() *Suite {
		c, err := simsvc.OpenDiskCache(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSuite()
		s.SetCache(c)
		return s
	}
	if _, err := open().Timing(w, "base", MBase32); err != nil {
		t.Fatal(err)
	}

	s := open()
	log := logPasses(s, nil)
	if err := s.Prefetch(only(Figure2Runs(), "queens")); err != nil {
		t.Fatal(err)
	}
	if got := log.passes(t, s, w, "base"); len(got) != 1 || got[0] != 3 {
		t.Errorf("passes over queens/base timed %v machines, want one pass of 3", got)
	}
	if c := s.Counts(); c.Simulated != 3 || c.CacheHits != 1 {
		t.Errorf("counts = %+v, want 3 simulated / 1 cache hit", c)
	}
}

// TestPrefetchRemoteNamedLocalSweep: with a remote daemon attached, the
// named machines' runs go remote, and only the sweep's ad-hoc
// configurations are fanned out locally, one pass per binary.
func TestPrefetchRemoteNamedLocalSweep(t *testing.T) {
	runner := &simsvc.Runner{Resolve: func(m string) (pipeline.Config, error) {
		return MachineConfig(Machine(m))
	}}
	srv, err := simsvc.NewServer(simsvc.ServerConfig{Workers: 2}, runner)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	w := testWorkload(t, "queens")
	s := NewSuite()
	s.SetRemote(&simsvc.Client{Base: hs.URL})
	log := logPasses(s, nil)
	named := only(Table6Runs(), "queens")
	sweep := only(SweepRuns(), "queens")[:4] // two cache sizes, base and fac
	if err := s.Prefetch(append(named, sweep...)); err != nil {
		t.Fatal(err)
	}
	if c := s.Counts(); c.Remote != len(named) || c.Simulated != len(sweep) {
		t.Errorf("counts = %+v, want %d remote / %d simulated", c, len(named), len(sweep))
	}
	for _, tc := range []string{"base", "fac"} {
		if got := log.passes(t, s, w, tc); len(got) != 1 || got[0] != 2 {
			t.Errorf("passes over queens/%s timed %v machines, want one pass of the 2 sweep sizes", tc, got)
		}
	}
}

// TestPrefetchPlanOnePassPerBinary: a plan spanning several steps
// emulates each (workload, toolchain) once for all of its machines; the
// steps' own lookups afterwards are memo hits, and RunCounts counts
// timing runs, not passes.
func TestPrefetchPlanOnePassPerBinary(t *testing.T) {
	names := []string{"queens"}
	plan := only(append(Figure2Runs(), Table6Runs()...), names...)
	distinct := make(map[string]bool)
	for _, r := range plan {
		distinct[r.key()] = true
	}

	s := NewSuite()
	log := logPasses(s, nil)
	if err := s.Prefetch(plan); err != nil {
		t.Fatal(err)
	}
	for _, r := range plan {
		if _, err := s.timing(r); err != nil {
			t.Fatal(err)
		}
	}
	machines := 0
	for _, n := range names {
		for _, tc := range []string{"base", "fac"} {
			got := log.passes(t, s, testWorkload(t, n), tc)
			if len(got) != 1 {
				t.Errorf("%s/%s: %d passes, want 1", n, tc, len(got))
			}
			for _, k := range got {
				machines += k
			}
		}
	}
	if machines != len(distinct) {
		t.Errorf("passes timed %d machines, want the plan's %d distinct runs", machines, len(distinct))
	}
	if c := s.Counts(); c.Simulated != len(distinct) {
		t.Errorf("Simulated = %d, want %d timing runs", c.Simulated, len(distinct))
	}
}

// TestEvaluationPlanOnePassPerBinary: the full evaluation's 532 timing
// runs (380 recorded, 152 in the sweep) take 38 emulation passes, one
// per (workload, toolchain). The simulator is stubbed out, so the test
// checks the grouping, not the timing.
func TestEvaluationPlanOnePassPerBinary(t *testing.T) {
	s := NewSuite()
	log := logPasses(s, expectedOutputs(t, s))
	if err := s.Prefetch(evaluationPlan()); err != nil {
		t.Fatal(err)
	}
	if passes, machines := log.count(); passes != 38 || machines != 532 {
		t.Errorf("%d passes timed %d machines, want 38 passes for 532 runs", passes, machines)
	}
	if c := s.Counts(); c.Simulated != 532 {
		t.Errorf("Simulated = %d, want 532", c.Simulated)
	}
	if n := len(s.Report("test").Records); n != 380 {
		t.Errorf("report holds %d records, want 380", n)
	}
}

// TestEvaluationOnePassPerBinary: the whole evaluation, as
// cmd/experiments runs it (every step's runs in one Prefetch, then every
// step in turn), emulates each binary exactly once. The timing passes
// measure every functional result on the way, so the functional steps
// (Table 1, Figure 3, the ablations' failure rates, the LTB comparison)
// make no pass of their own.
func TestEvaluationOnePassPerBinary(t *testing.T) {
	s := NewSuite()
	log := logPasses(s, expectedOutputs(t, s))
	if err := s.Prefetch(evaluationPlan()); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	measured := len(s.funcs)
	s.mu.Unlock()
	if measured != 38 {
		t.Errorf("the timing passes measured %d binaries, want all 38", measured)
	}
	steps := []func() error{
		func() error { _, err := s.Table1(); return err },
		func() error { _, err := s.Figure2(); return err },
		func() error { _, err := s.Figure3(); return err },
		func() error { _, err := s.Table3(); return err },
		func() error { _, err := s.Table4(); return err },
		func() error { _, err := s.Figure6(); return err },
		func() error { _, err := s.Table6(); return err },
		func() error { _, err := s.Ablations(); return err },
		func() error { _, err := s.CompareLTB(); return err },
		func() error { _, err := s.CompareAGI(); return err },
		func() error { _, err := s.ComparePredictors(); return err },
		func() error { _, err := s.CacheSweep(); return err },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range workload.All() {
		for _, tc := range []string{"base", "fac"} {
			if got := log.passes(t, s, w, tc); len(got) != 1 {
				t.Errorf("%s/%s: %d passes %v, want 1", w.Name, tc, len(got), got)
			}
		}
	}
	if passes, _ := log.count(); passes != 38 {
		t.Errorf("%d passes, want 38", passes)
	}
}

// TestTable1AloneZeroMachinePasses: Table 1 with nothing timed measures
// every base binary, the only ones it reads, in a pass with no machines,
// one pass per binary.
func TestTable1AloneZeroMachinePasses(t *testing.T) {
	s := NewSuite()
	log := logPasses(s, expectedOutputs(t, s))
	if _, err := s.Table1(); err != nil {
		t.Fatal(err)
	}
	if passes, machines := log.count(); passes != 19 || machines != 0 {
		t.Errorf("%d passes timed %d machines, want 19 passes of none", passes, machines)
	}
	for _, w := range workload.All() {
		if got := log.passes(t, s, w, "base"); len(got) != 1 {
			t.Errorf("%s/base: %d passes, want 1", w.Name, len(got))
		}
	}
	if _, err := s.Figure3(); err != nil {
		t.Fatal(err)
	}
	if passes, _ := log.count(); passes != 19 {
		t.Errorf("Figure 3 after Table 1: %d passes, want still 19", passes)
	}
}

// TestFunctionalWaitsForGroup: a Functional call that arrives while a
// timing group is measuring the same binary waits for that group's pass
// instead of making a second one.
func TestFunctionalWaitsForGroup(t *testing.T) {
	s := NewSuite()
	w := testWorkload(t, "queens")
	outputs := expectedOutputs(t, s)
	entered, release := make(chan struct{}), make(chan struct{})
	log := logPasses(s, func(p *prog.Program) core.Outcome {
		entered <- struct{}{}
		<-release
		return outputs(p)
	})
	grouped := make(chan error)
	go func() {
		grouped <- s.Prefetch([]Run{{Workload: w, Toolchain: "base", Machine: MBase32}, {Workload: w, Toolchain: "base"}})
	}()
	<-entered
	measured := make(chan error)
	go func() {
		_, err := s.Functional(w, "base")
		measured <- err
	}()
	// A second pass would block in the stub; give Functional time to
	// reach it before the group's pass is let go.
	select {
	case <-entered:
		t.Fatal("Functional made a pass of its own while the group was measuring the binary")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-grouped; err != nil {
		t.Fatal(err)
	}
	if err := <-measured; err != nil {
		t.Fatal(err)
	}
	if got := log.passes(t, s, w, "base"); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("passes timed %v machines, want one pass of 1", got)
	}
}
