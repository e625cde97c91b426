// Package core is the public facade of the fast-address-calculation study:
// it assembles and links programs, runs them on the timing simulator with or
// without fast address calculation, and returns combined functional +
// timing results. The experiment harness, the examples, and the benchmark
// suite are all built on this package.
package core

import (
	"context"
	"fmt"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/fac"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/predict"
	"repro/internal/prog"
)

// Build assembles one translation unit and links it.
func Build(source string, link prog.Config) (*prog.Program, error) {
	o, err := asm.Assemble(source)
	if err != nil {
		return nil, err
	}
	return prog.Link(o, link)
}

// Outcome is the functional outcome of a program's execution.
type Outcome struct {
	Output   string
	ExitCode int32
	// MemFootprint is the number of data bytes touched (whole pages), the
	// paper's "memory usage" metric.
	MemFootprint uint64
}

func outcome(e *emu.Emulator) Outcome {
	return Outcome{Output: e.Out.String(), ExitCode: e.ExitCode, MemFootprint: e.Mem.Footprint()}
}

// Result combines the functional outcome of a run with its timing.
type Result struct {
	Stats pipeline.Stats
	Outcome
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 { return r.Stats.IPC() }

// Run executes the program on the timing simulator. maxInsts bounds the
// dynamic instruction count (0 = unlimited).
func Run(p *prog.Program, machine pipeline.Config, maxInsts uint64) (Result, error) {
	return RunCtx(nil, p, machine, maxInsts, nil)
}

// RunCtx is Run with an observability sink and cancellation. A non-nil
// sink receives the run's event stream (see internal/obs); cmd/facprof
// is built on this. A non-nil context's deadline or cancellation aborts
// the simulation's cycle loop promptly with an error wrapping ctx.Err().
// The simulation service (internal/simsvc) uses this for per-job
// deadlines and client-disconnect cancellation; a nil ctx disables the
// checks at zero cost.
func RunCtx(ctx context.Context, p *prog.Program, machine pipeline.Config, maxInsts uint64, sink obs.Sink) (Result, error) {
	// The selective machine consults staticfac verdicts baked per linked
	// program; this is the layer that has the program in hand, so the bake
	// happens here unless the caller supplied a table already.
	if machine.Predictor == "selective" && machine.StaticTable == nil {
		machine.StaticTable = predict.BuildStaticTable(p, machine.FACGeometry())
	}
	e := emu.New(p)
	e.MaxInsts = maxInsts
	stats, err := pipeline.RunCtx(ctx, machine, e, sink)
	if err != nil {
		return Result{}, err
	}
	return Result{Stats: stats, Outcome: outcome(e)}, nil
}

// RunMany executes the program once, times that one dynamic instruction
// stream on every machine in cfgs and hands it to every reader
// (pipeline.RunMany). Each machine's Stats equal what RunCtx returns for
// it alone. The program's Outcome comes back once for the whole group,
// which may have no machines at all. The selective machine's static
// table is baked once per geometry for the whole group. When any machine
// fails, the error is a pipeline.RunErrors index-aligned with cfgs, and
// the other machines' Stats stay valid.
func RunMany(ctx context.Context, p *prog.Program, cfgs []pipeline.Config, maxInsts uint64, readers ...func([]emu.Trace)) (Outcome, []pipeline.Stats, error) {
	cfgs = append([]pipeline.Config(nil), cfgs...)
	static := make(map[fac.Config]*predict.StaticTable)
	for i := range cfgs {
		if c := &cfgs[i]; c.Predictor == "selective" && c.StaticTable == nil {
			g := c.FACGeometry()
			if static[g] == nil {
				static[g] = predict.BuildStaticTable(p, g)
			}
			c.StaticTable = static[g]
		}
	}
	e := emu.New(p)
	e.MaxInsts = maxInsts
	stats, err := pipeline.RunMany(ctx, cfgs, e, readers...)
	return outcome(e), stats, err
}

// RunFunctional executes the program on the emulator alone (no timing),
// returning the final emulator state for profiling and output checks.
func RunFunctional(p *prog.Program, maxInsts uint64) (*emu.Emulator, error) {
	e := emu.New(p)
	e.MaxInsts = maxInsts
	if err := e.Run(); err != nil {
		return e, err
	}
	return e, nil
}

// BuildAndRun is the one-call convenience: assemble, link, simulate.
func BuildAndRun(source string, link prog.Config, machine pipeline.Config, maxInsts uint64) (Result, error) {
	p, err := Build(source, link)
	if err != nil {
		return Result{}, fmt.Errorf("core: %w", err)
	}
	return Run(p, machine, maxInsts)
}
