package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/simsvc"
	"repro/internal/workload"
)

// paperEvaluation runs one cold `experiments -json` and checks its
// report and its stdout tables against the pins.
func paperEvaluation(e *env, bin string) (runResult, bool, error) {
	path := filepath.Join(e.work, "report.json")
	ev, err := runTool(bin, "-json", path)
	if err != nil {
		return ev, false, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return ev, false, err
	}
	os.Remove(path)
	okReport := sha(data) == e.pins.Report
	okStdout := sha(normalizeStdout(ev.Stdout)) == e.pins.Stdout
	if !okReport || !okStdout {
		fmt.Fprintf(os.Stderr, "perfbench: paper-eval output differs from its pins (report ok=%v, stdout ok=%v)\n", okReport, okStdout)
	}
	return ev, okReport && okStdout, nil
}

func runPaperEval(e *env) (*report, error) {
	bins, err := e.buildTools("experiments")
	if err != nil {
		return nil, err
	}
	setup, err := timeSetup(suiteBuildRounds, buildSuite)
	if err != nil {
		return nil, err
	}
	r := newReport()
	ev, ok, err := paperEvaluation(e, bins[0])
	if err != nil {
		return nil, err
	}
	r.tally.add(classify(nil, ok))
	r.printf("paper-eval: one cold evaluation of cmd/experiments -json, every table and figure")
	r.set("setup_s", setup, "s", fmt.Sprintf("build the suite's 38 programs in-process (median of %d)", suiteBuildRounds))
	r.set("wall_s", ev.Wall.Seconds(), "s", "one evaluation")
	r.set("cpu_s", ev.CPU.Seconds(), "s", "user+sys CPU of the evaluation")
	r.set("peak_rss_mb", ev.MaxRSS, "MB", "experiments peak resident set")
	return r, nil
}

// replicaKey is one recorded run of the pinned report.
type replicaKey struct{ bench, tc, machine string }

func tracePaperEval(e *env) (*report, error) {
	bins, err := e.buildTools("experiments")
	if err != nil {
		return nil, err
	}
	r := newReport()
	ev, ok, err := paperEvaluation(e, bins[0])
	if err != nil {
		return nil, err
	}
	r.tally.add(classify(nil, ok))
	nproc := runtime.NumCPU()
	ref := layerRef{
		cpu:      ev.CPU,
		coreUtil: ev.CPU.Seconds() / (ev.Wall.Seconds() * float64(nproc)),
		uncovered: []string{
			fmt.Sprintf("cache sweep: %d timing runs of ad-hoc configurations, outside the report",
				len(workload.All())*len(experiments.SweepSizes)*2),
			fmt.Sprintf("ablations: %d profile.Run calls with four geometries", len(workload.All())),
			fmt.Sprintf("LTB comparison: %d emulator replays through internal/ltb", len(workload.All())),
			"table rendering, report encoding and process start-up",
		},
	}

	// The replica: every build, functional profile and recorded timing
	// run of the evaluation, the latter two on nproc workers.
	var keys []replicaKey
	for k := range e.pins.Records {
		f := strings.Split(k, "|")
		keys = append(keys, replicaKey{f[0], f[1], f[2]})
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		return a.bench+"|"+a.tc+"|"+a.machine < b.bench+"|"+b.tc+"|"+b.machine
	})
	tr := newTracer("replica")
	progs := make(map[string]*prog.Program)
	for _, w := range workload.All() {
		for _, tc := range []string{"base", "fac"} {
			p, err := tracedBuild(tr, w, toolchain(tc))
			if err != nil {
				return nil, err
			}
			progs[w.Name+"|"+tc] = p
		}
	}

	var jobs []func() error
	for _, w := range workload.All() {
		for _, tc := range []string{"base", "fac"} {
			w, tc := w, tc
			jobs = append(jobs, func() error {
				return tracedProfile(tr, progs[w.Name+"|"+tc], w, tc, simsvc.DefaultMaxInsts, experiments.Geo16, experiments.Geo32)
			})
		}
	}
	recs := make([]obs.RunRecord, len(keys))
	matched := make([]bool, len(keys))
	for i, k := range keys {
		i, k := i, k
		jobs = append(jobs, func() error {
			w, err := workload.ByName(k.bench)
			if err != nil {
				return err
			}
			cfg, err := experiments.MachineConfig(experiments.Machine(k.machine))
			if err != nil {
				return err
			}
			rec, b, err := tracedSim(tr, progs[k.bench+"|"+k.tc], w, k.tc, k.machine, cfg, simsvc.DefaultMaxInsts)
			recs[i] = rec
			matched[i] = err == nil && sha(b) == e.pins.Records[rec.Key()]
			return err
		})
	}
	if err := parallel(nproc, jobs); err != nil {
		return nil, err
	}
	tr.finish(nproc)
	for _, m := range matched {
		r.tally.add(classify(nil, m))
	}
	rep := obs.NewReport("cmd/experiments", runtime.Version())
	for _, rec := range recs {
		rep.Add(rec)
	}
	data, err := rep.Encode()
	if err != nil {
		return nil, err
	}
	same := sha(data) == e.pins.Report
	r.tally.add(classify(nil, same))
	r.printf("paper-eval traced: %d recorded runs replicated in-process; report byte-identical to the pin: %v", len(recs), same)

	// The selective machine's static tables hide the analysis summary, so
	// the classified ratio comes from analysing those programs again,
	// outside the replica.
	extra := newTracer("selective re-analysis")
	for _, k := range keys {
		if k.machine == string(experiments.MSelective) {
			cfg, err := experiments.MachineConfig(experiments.MSelective)
			if err != nil {
				return nil, err
			}
			tracedAnalyze(extra, k.bench+"|"+k.tc, progs[k.bench+"|"+k.tc], cfg.FACGeometry())
		}
	}
	extra.finish(1)

	pt, svc, err := probe(e)
	if err != nil {
		return nil, err
	}
	layerReport(r, []*tracer{tr, extra, pt}, ref, svc)
	writeTrace(e, "paper-eval", tr)
	return r, nil
}

// machineConfig resolves a job spec's machine as facd does.
func machineConfig(m string) (pipeline.Config, error) {
	return experiments.MachineConfig(experiments.Machine(m))
}
