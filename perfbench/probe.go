package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/experiments"
	"repro/internal/fac"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/simsvc"
	"repro/internal/workload"
)

// probeWorkloads are the short programs the probe runs.
var probeWorkloads = []string{"hashp", "dct"}

// probeLookups is how many times the probe looks each stored record up
// again, as warm sessions do.
const probeLookups = 4

// probe exercises every layer on small fixed inputs, so that every
// per-layer metric is measured on every workload. A layer the workload's
// replica reaches is reported from the replica; the others from the
// probe, whose numbers describe the layer, not the workload, and which
// the per-layer report marks "(probe)".
func probe(e *env) (*tracer, svcStats, error) {
	tr := newTracer("probe")
	runner := &simsvc.Runner{Resolve: machineConfig, MaxInsts: simsvc.DefaultMaxInsts}
	dc, err := simsvc.OpenDiskCache(filepath.Join(e.work, "probe-cache"), 0)
	if err != nil {
		return nil, svcStats{}, err
	}
	progs := make(map[string]*prog.Program)
	for _, name := range probeWorkloads {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, svcStats{}, err
		}
		for _, tc := range []string{"base", "fac"} {
			p, err := tracedBuild(tr, w, toolchain(tc))
			if err != nil {
				return nil, svcStats{}, err
			}
			progs[name+"|"+tc] = p
			tracedAnalyze(tr, w.Name+"|"+tc, p, fac.Config{BlockBits: 5, SetBits: 14})
			if err := tracedProfile(tr, p, w, tc, simsvc.DefaultMaxInsts, experiments.Geo16, experiments.Geo32); err != nil {
				return nil, svcStats{}, err
			}
		}
	}
	// A cold session's misses, simulated and stored, then warm lookups.
	specs := sessionSpecs(probeWorkloads)
	var keys []string
	for _, spec := range specs {
		w, err := workload.ByName(spec.Workload)
		if err != nil {
			return nil, svcStats{}, err
		}
		key, err := runner.Key(spec)
		if err != nil {
			return nil, svcStats{}, err
		}
		tracedGet(tr, dc, key)
		cfg, err := machineConfig(spec.Machine)
		if err != nil {
			return nil, svcStats{}, err
		}
		rec, _, err := tracedSim(tr, progs[spec.Workload+"|"+spec.Toolchain], w, spec.Toolchain, spec.Machine, cfg, spec.MaxInsts)
		if err != nil {
			return nil, svcStats{}, err
		}
		if err := tracedPut(tr, dc, key, rec); err != nil {
			return nil, svcStats{}, err
		}
		keys = append(keys, key)
	}
	for i := 0; i < probeLookups; i++ {
		for _, key := range keys {
			tracedGet(tr, dc, key)
		}
	}
	tr.finish(1)

	s, err := runFacd(e, facdRunConfig{specs: specs, sessions: 50, rounds: 1, seed: e.seed, tag: "probe"})
	if err != nil {
		return nil, svcStats{}, err
	}
	if s.tally.errors() > 0 {
		return nil, svcStats{}, fmt.Errorf("probe facd run: %d of %d operations failed", s.tally.errors(), s.tally.Attempted)
	}
	svc, err := svcFromRun(s, specs)
	svc.note = " (probe)"
	return tr, svc, err
}

// tracedGet is DiskCache.Get timed; Work counts a hit.
func tracedGet(tr *tracer, dc *simsvc.DiskCache, key string) (obs.RunRecord, bool) {
	t0 := time.Now()
	r, ok := dc.Get(key)
	var work uint64
	if ok {
		work = 1
	}
	tr.add("diskcache.get", key, 0, t0, time.Since(t0), work, 0)
	return r, ok
}

// tracedPut is DiskCache.Put timed.
func tracedPut(tr *tracer, dc *simsvc.DiskCache, key string, rec obs.RunRecord) error {
	t0 := time.Now()
	err := dc.Put(key, rec)
	tr.add("diskcache.put", key, 0, t0, time.Since(t0), 1, 0)
	return err
}

// svcFromRun derives the service-layer numbers of a facd run. The
// hit overhead compares facd's hit latency with in-process Runner.Run
// hits on the same cache directory, after facd has exited.
func svcFromRun(s *facdRun, specs []simsvc.JobSpec) (svcStats, error) {
	dc, err := simsvc.OpenDiskCache(s.cacheDir, 0)
	if err != nil {
		return svcStats{}, err
	}
	runner := &simsvc.Runner{Resolve: machineConfig, Cache: dc}
	var lat []float64
	for i := 0; i < 400; i++ {
		t0 := time.Now()
		_, hit, err := runner.Run(context.Background(), specs[i%len(specs)])
		lat = append(lat, float64(time.Since(t0))/float64(time.Millisecond))
		if err != nil || !hit {
			return svcStats{}, fmt.Errorf("in-process hit of %s: hit=%v err=%v", specs[i%len(specs)], hit, err)
		}
	}
	refused, failed, err := s.serviceCounts()
	if err != nil {
		return svcStats{}, err
	}
	return svcStats{
		hitOverheadMS: median(s.hitLat) - median(lat),
		queueWaitMS:   median(s.waits),
		refused:       refused,
		failed:        failed,
		metricsBytes:  float64(len(s.metrics)),
		rssGrowthMB:   s.rssEnd - s.rssSetup,
	}, nil
}
