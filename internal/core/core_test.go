package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/emu"
	"repro/internal/pipeline"
	"repro/internal/prog"
)

const helloAsm = `
	.data
msg:	.asciiz "hi"
	.text
main:
	la $a0, msg
	li $v0, 4
	syscall
	li $v0, 10
	syscall
`

func TestBuildAndRun(t *testing.T) {
	res, err := BuildAndRun(helloAsm, prog.DefaultConfig(), pipeline.DefaultConfig(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "hi" {
		t.Errorf("output = %q", res.Output)
	}
	if res.Stats.Insts == 0 || res.Stats.Cycles == 0 {
		t.Errorf("stats empty: %+v", res.Stats)
	}
	if res.IPC() <= 0 {
		t.Error("IPC non-positive")
	}
	if res.MemFootprint == 0 {
		t.Error("no memory footprint recorded")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build("main:\n\tbogus\n", prog.DefaultConfig()); err == nil {
		t.Error("assembler error not surfaced")
	}
	if _, err := BuildAndRun("main:\n\tbogus\n", prog.DefaultConfig(), pipeline.DefaultConfig(), 0); err == nil {
		t.Error("BuildAndRun error not surfaced")
	}
}

func TestRunFunctionalMatchesTiming(t *testing.T) {
	p, err := Build(helloAsm, prog.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e, err := RunFunctional(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, pipeline.DefaultConfig(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if e.Out.String() != res.Output {
		t.Errorf("functional %q != timing %q", e.Out.String(), res.Output)
	}
	if e.InstCount != res.Stats.Insts {
		t.Errorf("instruction counts differ: %d vs %d", e.InstCount, res.Stats.Insts)
	}
}

func TestRunFaultPropagates(t *testing.T) {
	p, err := Build("main:\n\tli $t0, 3\n\tlw $t1, 0($t0)\n\tjr $ra\n", prog.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(p, pipeline.DefaultConfig(), 0); err == nil || !strings.Contains(err.Error(), "unaligned") {
		t.Errorf("fault not propagated: %v", err)
	}

	// A fault in the shared emulator reaches every machine of a group.
	fac := pipeline.DefaultConfig()
	fac.Predictor = "fac"
	_, _, err = RunMany(nil, p, []pipeline.Config{pipeline.DefaultConfig(), fac, pipeline.DefaultConfig()}, 0)
	var errs pipeline.RunErrors
	if !errors.As(err, &errs) || len(errs) != 3 {
		t.Fatalf("group fault: %v, want a RunErrors for 3 machines", err)
	}
	for i, e := range errs {
		if e == nil || !strings.Contains(e.Error(), "unaligned") {
			t.Errorf("machine %d: fault not propagated: %v", i, e)
		}
	}
}

// stallAsm counts down a short loop, loads a word and uses it, then
// counts down a long loop: a machine whose data misses never fill
// stalls at the use, mid-stream.
const stallAsm = `
	.data
val:	.word 7
	.text
main:
	li $t0, 3000
warm:
	addi $t0, $t0, -1
	bne $t0, $zero, warm
	la $t1, val
	lw $t2, 0($t1)
	addi $t3, $t2, 1
	li $t0, 20000
spin:
	addi $t0, $t0, -1
	bne $t0, $zero, spin
	li $v0, 10
	syscall
`

// TestRunManyMatchesRunCtx: every machine of a group, one of them
// machine 0 alone, gets the Result RunCtx gives it, and a group with no
// machines still returns the program's Outcome.
func TestRunManyMatchesRunCtx(t *testing.T) {
	p, err := Build(stallAsm, prog.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fac := pipeline.DefaultConfig()
	fac.Predictor = "fac"
	sel := pipeline.DefaultConfig()
	sel.Predictor = "selective"
	cfgs := []pipeline.Config{pipeline.DefaultConfig(), fac, sel}
	for _, group := range [][]pipeline.Config{cfgs, cfgs[:1], nil} {
		out, stats, err := RunMany(nil, p, group, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(stats) != len(group) {
			t.Fatalf("group of %d: %d Stats", len(group), len(stats))
		}
		want, err := Run(p, cfgs[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		if out != want.Outcome {
			t.Errorf("group of %d: Outcome %+v, RunCtx %+v", len(group), out, want.Outcome)
		}
		for i, cfg := range group {
			want, err := Run(p, cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := (Result{Stats: stats[i], Outcome: out}); !reflect.DeepEqual(got, want) {
				t.Errorf("group of %d, machine %d: RunMany %+v, RunCtx %+v", len(group), i, got, want)
			}
		}
	}
}

// TestRunManyMachineFails: a machine that fails mid-run detaches from
// the ring, and the others run to the end of the stream without it.
func TestRunManyMachineFails(t *testing.T) {
	p, err := Build(stallAsm, prog.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	stuck := pipeline.DefaultConfig()
	stuck.DCache.MissLatency = 2_000_000 // the use waits past the no-progress watchdog
	stuck.NoFastForward = true
	fac := pipeline.DefaultConfig()
	fac.Predictor = "fac"
	cfgs := []pipeline.Config{pipeline.DefaultConfig(), stuck, fac}

	out, stats, err := RunMany(nil, p, cfgs, 0)
	var errs pipeline.RunErrors
	if !errors.As(err, &errs) {
		t.Fatalf("err = %v, want a RunErrors", err)
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "no progress") {
		t.Errorf("stuck machine: %v, want the no-progress failure", errs[1])
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Errorf("machine %d failed with its neighbour: %v", i, errs[i])
			continue
		}
		want, err := Run(p, cfgs[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := (Result{Stats: stats[i], Outcome: out}); !reflect.DeepEqual(got, want) {
			t.Errorf("machine %d: %+v, want %+v", i, got, want)
		}
	}
}

// TestRunManyCancelled: cancelling a group's context stops every
// machine of an endless program, RunMany returns, and no goroutine
// outlives it.
func TestRunManyCancelled(t *testing.T) {
	p, err := Build("main:\n\taddi $t0, $t0, 1\n\tj main\n", prog.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	fac := pipeline.DefaultConfig()
	fac.Predictor = "fac"
	_, _, err = RunMany(ctx, p, []pipeline.Config{pipeline.DefaultConfig(), fac, pipeline.DefaultConfig()}, 0)
	var errs pipeline.RunErrors
	if !errors.As(err, &errs) {
		t.Fatalf("err = %v, want a RunErrors", err)
	}
	for i, e := range errs {
		if !errors.Is(e, context.DeadlineExceeded) {
			t.Errorf("machine %d: %v, want the deadline", i, e)
		}
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("errors.Is does not see the deadline through the RunErrors: %v", err)
	}
	// RunMany waits for its machines, so only the context's timer
	// goroutine may still be finishing.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after RunMany, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// TestRunManyReaderCancelled: a group with a reader and no machines
// stops at its context's deadline too, with the deadline as its error.
func TestRunManyReaderCancelled(t *testing.T) {
	p, err := Build("main:\n\taddi $t0, $t0, 1\n\tj main\n", prog.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	traces := 0
	_, stats, err := RunMany(ctx, p, nil, 0, func(b []emu.Trace) { traces += len(b) })
	if !errors.Is(err, context.DeadlineExceeded) || len(stats) != 0 {
		t.Fatalf("err = %v with %d Stats, want the deadline and none", err, len(stats))
	}
	if traces == 0 {
		t.Error("the reader saw no traces before the deadline")
	}
}

func TestBadMachineConfig(t *testing.T) {
	p, err := Build(helloAsm, prog.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig()
	cfg.FetchWidth = 0
	if _, err := Run(p, cfg, 0); err == nil {
		t.Error("invalid machine config accepted")
	}
}
