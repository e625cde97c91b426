// Package simsvc turns the timing simulator into infrastructure: a
// simulation-as-a-service layer with a bounded worker pool, a job queue
// with backpressure, per-job deadlines and cancellation plumbed through
// core.RunCtx into the pipeline's cycle loop, singleflight deduplication
// of identical in-flight jobs, and a content-addressed persistent result
// cache holding canonical obs.RunRecord reports. cmd/facd exposes it over
// HTTP/JSON; experiments.Suite shares the singleflight and the persistent
// cache so table and figure regeneration skips already-simulated runs.
//
// Determinism is the contract throughout: a job's result is the exact
// RunRecord an in-process core.Run of the same (workload, toolchain,
// machine) produces, whether it was computed by a worker, deduplicated
// onto a concurrent identical job, or served from the cache —
// Report.Encode output is byte-identical across all three paths.
package simsvc

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// Version identifies the simulator for cache addressing: it is folded
// into every cache key, so bump it whenever a change alters simulated
// timing (the committed BENCH_pipeline.json moving is the signal) to
// invalidate stale persisted results. facd/2: pipeline.Config lost its
// "FAC" key (FAC machines now set "Predictor": "fac"), so the config JSON
// hashed into every key changed; the bump makes that change deliberate.
const Version = "facd/2"

// DefaultMaxInsts is the default dynamic instruction bound, shared with
// experiments.Suite so daemon jobs and in-process experiment runs hit the
// same cache entries.
const DefaultMaxInsts = 2_000_000_000

// JobSpec names one simulation: a workload from the benchmark suite, a
// toolchain ("base" or "fac"), and a machine name resolved by the
// service's resolver (the experiments machine table in cmd/facd).
type JobSpec struct {
	Workload  string `json:"workload"`
	Toolchain string `json:"toolchain"`
	Machine   string `json:"machine"`
	// MaxInsts bounds the dynamic instruction count (0 = service default).
	MaxInsts uint64 `json:"max_insts,omitempty"`
}

func (j JobSpec) String() string {
	return j.Workload + "|" + j.Toolchain + "|" + j.Machine
}

// cacheKeyDoc is the canonical content hashed into a cache key. Every
// input that can change a run's RunRecord is present: the workload's
// source and pinned output, the toolchain, the fully resolved machine
// configuration (not just its name), the instruction bound, and the
// simulator and record-schema versions.
type cacheKeyDoc struct {
	Version   string          `json:"version"`
	Schema    string          `json:"schema"`
	Workload  string          `json:"workload"`
	SourceSHA string          `json:"source_sha256"`
	OutputSHA string          `json:"output_sha256"`
	Toolchain string          `json:"toolchain"`
	Machine   string          `json:"machine"`
	Config    pipeline.Config `json:"config"`
	MaxInsts  uint64          `json:"max_insts"`
}

// CacheKey derives the content-addressed persistent-cache key of one run.
// Identical inputs produce identical keys across processes and restarts;
// any change to the workload source, toolchain, machine configuration,
// instruction bound, or simulator version produces a fresh key.
func CacheKey(w workload.Workload, toolchain, machine string, cfg pipeline.Config, maxInsts uint64) (string, error) {
	shaHex := func(s string) string {
		h := sha256.Sum256([]byte(s))
		return hex.EncodeToString(h[:])
	}
	doc := cacheKeyDoc{
		Version:   Version,
		Schema:    obs.RunRecordSchema,
		Workload:  w.Name,
		SourceSHA: shaHex(w.Source),
		OutputSHA: shaHex(w.Expected),
		Toolchain: toolchain,
		Machine:   machine,
		Config:    cfg,
		MaxInsts:  maxInsts,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("simsvc: cache key: %w", err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

// Runner executes jobs: resolve the spec, probe the persistent cache,
// build and simulate on a miss, and store the canonical RunRecord back.
// Identical concurrent jobs are deduplicated: only one simulates, the
// rest share its record.
type Runner struct {
	// Resolve maps a machine name to its simulator configuration; cmd/facd
	// wires experiments.MachineConfig here.
	Resolve func(machine string) (pipeline.Config, error)
	// MaxInsts is the default dynamic-instruction bound for jobs that do
	// not set one (0 = DefaultMaxInsts).
	MaxInsts uint64
	// Cache, when non-nil, persists results across jobs and processes.
	Cache *DiskCache

	flight Flight
	dedup  atomic.Uint64
}

// runOutcome is the flight-shared result of one executed job.
type runOutcome struct {
	rec      obs.RunRecord
	cacheHit bool
}

// resolvedSpec is a JobSpec with every name looked up and every default
// applied: what Validate checks, what Key hashes, and what Run simulates.
type resolvedSpec struct {
	spec     JobSpec
	w        workload.Workload
	tc       workload.Toolchain
	cfg      pipeline.Config
	maxInsts uint64
}

// resolve looks up the spec's workload, toolchain, and machine, and
// applies the instruction-bound defaults.
func (r *Runner) resolve(spec JobSpec) (resolvedSpec, error) {
	rs := resolvedSpec{spec: spec}
	var err error
	if rs.w, err = workload.ByName(spec.Workload); err != nil {
		return rs, err
	}
	switch spec.Toolchain {
	case "base":
		rs.tc = workload.BaseToolchain()
	case "fac":
		rs.tc = workload.FACToolchain()
	default:
		return rs, fmt.Errorf("simsvc: unknown toolchain %q (want base or fac)", spec.Toolchain)
	}
	if r.Resolve == nil {
		return rs, errors.New("simsvc: runner has no machine resolver")
	}
	if rs.cfg, err = r.Resolve(spec.Machine); err != nil {
		return rs, err
	}
	rs.maxInsts = spec.MaxInsts
	if rs.maxInsts == 0 {
		rs.maxInsts = r.MaxInsts
	}
	if rs.maxInsts == 0 {
		rs.maxInsts = DefaultMaxInsts
	}
	return rs, nil
}

// key is the resolved spec's content-addressed cache key.
func (rs resolvedSpec) key() (string, error) {
	return CacheKey(rs.w, rs.spec.Toolchain, rs.spec.Machine, rs.cfg, rs.maxInsts)
}

// Validate checks that a spec names a known workload, toolchain, and
// machine without running anything, so the service can reject a bad
// batch at submission time.
func (r *Runner) Validate(spec JobSpec) error {
	_, err := r.resolve(spec)
	return err
}

// DedupCount reports how many jobs were served by joining an identical
// in-flight job instead of simulating.
func (r *Runner) DedupCount() uint64 { return r.dedup.Load() }

// CacheStats snapshots the persistent cache (ok=false when none is
// attached).
func (r *Runner) CacheStats() (DiskCacheStats, bool) {
	if r.Cache == nil {
		return DiskCacheStats{}, false
	}
	return r.Cache.Stats(), true
}

// Key derives the content-addressed cache key of a spec by resolving it
// the same way Run does. This is the fleet's shard key: every consumer
// of "the identity of this run" goes through here, so sharding, dedup,
// and caching all agree on what "the same run" means.
func (r *Runner) Key(spec JobSpec) (string, error) {
	rs, err := r.resolve(spec)
	if err != nil {
		return "", err
	}
	return rs.key()
}

// Warm pre-populates and pins the given specs in the persistent cache:
// each spec is simulated (or served from cache) via the normal Run path,
// then its key is pinned so LRU eviction under later cache pressure can
// never churn out the entries every rerun depends on. It returns how
// many runs were freshly simulated versus already cached.
func (r *Runner) Warm(ctx context.Context, specs []JobSpec) (simulated, hits int, err error) {
	if r.Cache == nil {
		return 0, 0, errors.New("simsvc: warm requires a persistent cache")
	}
	for _, spec := range specs {
		key, err := r.Key(spec)
		if err != nil {
			return simulated, hits, err
		}
		_, hit, err := r.Run(ctx, spec)
		if err != nil {
			return simulated, hits, fmt.Errorf("simsvc: warm %s: %w", spec, err)
		}
		if hit {
			hits++
		} else {
			simulated++
		}
		if err := r.Cache.Pin(key); err != nil {
			return simulated, hits, err
		}
	}
	return simulated, hits, nil
}

// Run executes one job. cacheHit reports that the record came from the
// persistent cache rather than a fresh simulation. ctx cancellation or
// deadline aborts the simulation's cycle loop promptly; the error then
// wraps ctx.Err().
func (r *Runner) Run(ctx context.Context, spec JobSpec) (rec obs.RunRecord, cacheHit bool, err error) {
	rs, err := r.resolve(spec)
	if err != nil {
		return obs.RunRecord{}, false, err
	}
	key, err := rs.key()
	if err != nil {
		return obs.RunRecord{}, false, err
	}

	v, shared, err := r.flight.Do(key, func() (any, error) {
		if r.Cache != nil {
			if rec, ok := r.Cache.Get(key); ok {
				return runOutcome{rec: rec, cacheHit: true}, nil
			}
		}
		w := rs.w
		p, err := workload.Build(w, rs.tc)
		if err != nil {
			return nil, err
		}
		res, err := core.RunCtx(ctx, p, rs.cfg, rs.maxInsts, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec, err)
		}
		if res.Output != w.Expected {
			return nil, fmt.Errorf("%s: output %q != expected %q", spec, res.Output, w.Expected)
		}
		rec := res.Stats.Record(w.Name, w.Class.String(), spec.Toolchain, spec.Machine)
		if r.Cache != nil {
			// A failed write only costs future hits; the run itself is good.
			_ = r.Cache.Put(key, rec)
		}
		return runOutcome{rec: rec}, nil
	})
	if shared {
		r.dedup.Add(1)
	}
	if err != nil {
		// A follower can inherit the leader's cancellation even though its
		// own context is fine; label that so callers know a retry would
		// simulate rather than fail again.
		if shared && ctx != nil && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			return obs.RunRecord{}, false, fmt.Errorf("simsvc: deduplicated onto a canceled identical job, retry: %w", err)
		}
		return obs.RunRecord{}, false, err
	}
	out := v.(runOutcome)
	return out.rec, out.cacheHit, nil
}
