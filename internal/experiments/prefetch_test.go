package experiments

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/simsvc"
	"repro/internal/workload"
)

// passLog records the emulation passes a Suite's local simulations make:
// one entry per core.RunMany call, with the number of machines it timed.
type passLog struct {
	mu       sync.Mutex
	machines map[*prog.Program][]int
}

// logPasses wraps s's simulator, or stub in its place when non-nil, to
// record every pass.
func logPasses(s *Suite, stub func(*prog.Program, []pipeline.Config) []core.Result) *passLog {
	l := &passLog{machines: make(map[*prog.Program][]int)}
	run := s.runMany
	s.runMany = func(ctx context.Context, p *prog.Program, cfgs []pipeline.Config, maxInsts uint64) ([]core.Result, error) {
		l.mu.Lock()
		l.machines[p] = append(l.machines[p], len(cfgs))
		l.mu.Unlock()
		if stub != nil {
			return stub(p, cfgs), nil
		}
		return run(ctx, p, cfgs, maxInsts)
	}
	return l
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

// evaluationPlan is the union of every step's timing runs: what
// cmd/experiments prefetches when it runs everything.
func evaluationPlan() []Run {
	var plan []Run
	for _, runs := range [][]Run{
		Figure2Runs(), Table3Runs(), Table4Runs(), Figure6Runs(), Table6Runs(),
		AblationRuns(), AGIRuns(), PredictorRuns(), SweepRuns(),
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
	log := logPasses(s, func(p *prog.Program, cfgs []pipeline.Config) []core.Result {
		res := make([]core.Result, len(cfgs))
		for i := range res {
			res[i].Output = expected[p]
		}
		return res
	})
	if err := s.Prefetch(evaluationPlan()); err != nil {
		t.Fatal(err)
	}
	passes, machines := 0, 0
	for _, ks := range log.machines {
		passes += len(ks)
		for _, k := range ks {
			machines += k
		}
	}
	if passes != 38 || machines != 532 {
		t.Errorf("%d passes timed %d machines, want 38 passes for 532 runs", passes, machines)
	}
	if c := s.Counts(); c.Simulated != 532 {
		t.Errorf("Simulated = %d, want 532", c.Simulated)
	}
	if n := len(s.Report("test").Records); n != 380 {
		t.Errorf("report holds %d records, want 380", n)
	}
}
