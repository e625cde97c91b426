package main

import (
	"encoding/json"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/simsvc"
	"repro/internal/workload"
)

func traceFacdMixed(e *env) (*report, error) {
	s, err := facdMixedRun(e, true)
	if err != nil {
		return nil, err
	}
	r := newReport()
	r.tally = s.tally
	nCli := runtime.NumCPU()
	ref := layerRef{
		cpu:      s.cpuTotal,
		coreUtil: s.cpu.Seconds() / (s.window.Seconds() * float64(nCli)),
		uncovered: []string{
			"facd start-up, HTTP serving, request decoding and response writing",
			"cache-key derivation and admission",
		},
	}
	r.printf("facd-mixed traced: seed %d, one cold and %d warm sessions, %d warm requests in %.2fs",
		e.seed, len(s.sessionS), len(s.hitLat), s.window.Seconds())

	// The replica: what facd did for the measured daemon's requests, each
	// worker's requests on a worker of its own: the cold session's cache
	// lookups, builds, simulations, stores and record encodings, then the
	// warm sessions' lookups and encodings.
	dc, err := simsvc.OpenDiskCache(filepath.Join(e.work, "replica-cache"), 0)
	if err != nil {
		return nil, err
	}
	runner := &simsvc.Runner{Resolve: machineConfig, MaxInsts: simsvc.DefaultMaxInsts}
	tr := newTracer("replica")
	for _, phase := range []struct {
		logs []clientLog
		hit  bool
	}{{s.cold, false}, {s.warm, true}} {
		var jobs []func() error
		tallies := make([]tally, len(phase.logs))
		for i, l := range phase.logs {
			i, l, hit := i, l, phase.hit
			jobs = append(jobs, func() error {
				for _, spec := range l.specs {
					ok, err := replayJob(tr, dc, runner, spec, hit, e.pins)
					if err != nil {
						return err
					}
					tallies[i].add(classify(nil, ok))
				}
				return nil
			})
		}
		if err := parallel(len(jobs), jobs); err != nil {
			return nil, err
		}
		for _, t := range tallies {
			r.tally.merge(t)
		}
	}
	tr.finish(nCli)

	svc, err := svcFromRun(s, facdSpecs())
	if err != nil {
		return nil, err
	}
	pt, _, err := probe(e)
	if err != nil {
		return nil, err
	}
	layerReport(r, []*tracer{tr, pt}, ref, svc)
	writeTrace(e, "facd-mixed", tr)
	return r, nil
}

// replayJob repeats in-process what facd does for one synchronous run:
// look the spec up in the cache, build and simulate it on a miss and
// store the record, and encode the record for the response. ok reports
// that the lookup hit exactly when wantHit and the record matches its
// pin.
func replayJob(tr *tracer, dc *simsvc.DiskCache, runner *simsvc.Runner, spec simsvc.JobSpec, wantHit bool, p *pins) (bool, error) {
	key, err := runner.Key(spec)
	if err != nil {
		return false, err
	}
	if rec, hit := tracedGet(tr, dc, key); hit {
		t0 := time.Now()
		b, err := json.Marshal(rec)
		tr.add("obs", spec.String(), 0, t0, time.Since(t0), 1, 0)
		return wantHit && err == nil && sha(b) == p.Records[rec.Key()], err
	}
	w, err := workload.ByName(spec.Workload)
	if err != nil {
		return false, err
	}
	cfg, err := machineConfig(spec.Machine)
	if err != nil {
		return false, err
	}
	prog, err := tracedBuild(tr, w, toolchain(spec.Toolchain))
	if err != nil {
		return false, err
	}
	rec, b, err := tracedSim(tr, prog, w, spec.Toolchain, spec.Machine, cfg, spec.MaxInsts)
	if err != nil {
		return false, err
	}
	if err := tracedPut(tr, dc, key, rec); err != nil {
		return false, err
	}
	return !wantHit && sha(b) == p.Records[rec.Key()], nil
}
