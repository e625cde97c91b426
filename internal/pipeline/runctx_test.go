package pipeline

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/obs"
)

// endlessSource yields an unbounded straight-line instruction stream, for
// exercising cancellation of a run that would otherwise never finish.
type endlessSource struct {
	pc uint32
}

func (s *endlessSource) NextBatch(buf []emu.Trace) (int, error) {
	for i := range buf {
		buf[i] = emu.Trace{
			PC:     s.pc,
			Inst:   isa.Inst{Op: isa.ADD, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2},
			NextPC: s.pc + isa.InstBytes,
		}
		s.pc += isa.InstBytes
	}
	return len(buf), nil
}

// TestRunCtxNilMatchesRun: a background-style nil context changes nothing
// about the timing result.
func TestRunCtxNilMatchesRun(t *testing.T) {
	trs := seq(
		isa.Inst{Op: isa.ADD, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2},
		isa.Inst{Op: isa.LW, Rd: isa.T3, Rs: isa.T0, Imm: 4},
		isa.Inst{Op: isa.SUB, Rd: isa.T4, Rs: isa.T5, Rt: isa.T3},
	)
	setMem(&trs[1], 0x1000, 4, false)
	base := mustRun(t, fastCfg(), trs)

	trs2 := seq(
		isa.Inst{Op: isa.ADD, Rd: isa.T0, Rs: isa.T1, Rt: isa.T2},
		isa.Inst{Op: isa.LW, Rd: isa.T3, Rs: isa.T0, Imm: 4},
		isa.Inst{Op: isa.SUB, Rd: isa.T4, Rs: isa.T5, Rt: isa.T3},
	)
	setMem(&trs2[1], 0x1000, 4, false)
	got, err := RunCtx(context.Background(), fastCfg(), &sliceSource{trs: trs2}, nil)
	if err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	if got.Cycles != base.Cycles || got.Insts != base.Insts {
		t.Fatalf("RunCtx timing differs: %d cycles/%d insts vs %d/%d",
			got.Cycles, got.Insts, base.Cycles, base.Insts)
	}
}

// TestRunCtxCancellation: a cancelled context aborts an endless run
// promptly with an error wrapping the context's error.
func TestRunCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := RunCtx(ctx, fastCfg(), &endlessSource{pc: 0x400000}, nil)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt abort", d)
	}
}

// TestRunCtxDeadline: a deadline aborts the loop and the error reports
// DeadlineExceeded, the shape the simulation service's per-job timeout
// relies on.
func TestRunCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunCtx(ctx, fastCfg(), &endlessSource{pc: 0x400000}, nil)
	if err == nil {
		t.Fatal("deadline-exceeded run returned nil error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("deadline abort took %v, want prompt", d)
	}
}

// TestStatsRecordRoundtrip: StatsFromRecord is an exact inverse of
// Stats.Record over a fully populated Stats, including FAC and cache
// sections — the invariant the persistent result cache depends on.
func TestStatsRecordRoundtrip(t *testing.T) {
	var s Stats
	s.Cycles, s.Insts, s.Loads, s.Stores = 1000, 900, 200, 100
	s.LoadsSpeculated, s.StoresSpeculated = 150, 80
	s.LoadSpecFailed, s.StoreSpecFailed = 12, 5
	s.ExtraAccesses = 17
	s.BranchLookups, s.BranchMispredicts = 60, 7
	s.StoreBufferFullStalls = 3
	s.IssueActiveCycles = 700
	for i := range s.StallCycles {
		s.StallCycles[i] = uint64(10 + i)
	}
	for i := 0; i < 40; i++ {
		s.LoadLatency.Add(uint64(i % 37))
	}
	for i := range s.LoadFailKinds {
		s.LoadFailKinds[i] = uint64(2 + i)
		s.StoreFailKinds[i] = uint64(5 + i)
	}
	s.Predictor = "fac"
	s.ICache.Accesses, s.ICache.Misses = 500, 20
	s.ICache.DelayedHits, s.ICache.Evictions, s.ICache.Writebacks = 4, 19, 6
	s.DCache.Accesses, s.DCache.Misses = 300, 30
	s.DCache.DelayedHits, s.DCache.Evictions, s.DCache.Writebacks = 8, 29, 11
	for i := 0; i < 10; i++ {
		s.DCache.MSHROcc.Add(uint64(i % 4))
	}

	rec := s.Record("bench", "int", "fac", "fac32")
	back := StatsFromRecord(rec)
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", back, s)
	}
	rec2 := back.Record("bench", "int", "fac", "fac32")
	if !reflect.DeepEqual(rec, rec2) {
		t.Fatalf("record re-encode mismatch:\n got %+v\nwant %+v", rec2, rec)
	}

	// A run without FAC or caches roundtrips to zero-valued sections.
	var plain Stats
	plain.Cycles, plain.Insts = 10, 5
	prec := plain.Record("b", "int", "base", "base32")
	if prec.FAC != nil || prec.ICache != nil || prec.DCache != nil {
		t.Fatalf("plain record grew sections: %+v", prec)
	}
	if got := StatsFromRecord(prec); !reflect.DeepEqual(plain, got) {
		t.Fatalf("plain roundtrip mismatch: %+v", got)
	}

	// Records that crossed the disk (JSON) roundtrip identically too —
	// obs.Hist trims trailing buckets in its encoding.
	if obs.RunRecordSchema == "" {
		t.Fatal("schema constant empty")
	}
}

// TestStatsRecordRoundtripPredictor: a run under a zoo machine (named
// failure causes instead of the legacy fixed-slot breakdown, no-predict
// counters) survives Record → StatsFromRecord → Record unchanged.
func TestStatsRecordRoundtripPredictor(t *testing.T) {
	var s Stats
	s.Cycles, s.Insts, s.Loads, s.Stores = 500, 400, 100, 50
	s.LoadsSpeculated, s.StoresSpeculated = 60, 20
	s.LoadSpecFailed, s.StoreSpecFailed = 30, 4
	s.LoadsNoPredict, s.StoresNoPredict = 12, 7
	s.ExtraAccesses = 34
	s.IssueActiveCycles = 300
	s.Predictor = "stride"
	s.LoadFailKinds[0] = 25 // lastaddr
	s.LoadFailKinds[1] = 5  // stridebreak
	s.StoreFailKinds[0] = 4
	for i := 0; i < 20; i++ {
		s.LoadLatency.Add(uint64(i % 5))
	}

	rec := s.Record("bench", "int", "stride", "stride")
	if rec.FAC == nil || rec.FAC.Predictor != "stride" {
		t.Fatalf("zoo record lacks predictor name: %+v", rec.FAC)
	}
	if rec.FAC.LoadFailCauses["lastaddr"] != 25 || rec.FAC.LoadFailCauses["stridebreak"] != 5 {
		t.Fatalf("named failure causes wrong: %+v", rec.FAC.LoadFailCauses)
	}
	if rec.FAC.LoadFailKinds != (obs.FailureBreakdown{}) || rec.FAC.StoreFailKinds != (obs.FailureBreakdown{}) {
		t.Fatalf("zoo record must not use the legacy fixed-slot breakdown: %+v", rec.FAC)
	}
	back := StatsFromRecord(rec)
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", back, s)
	}
	rec2 := back.Record("bench", "int", "stride", "stride")
	if !reflect.DeepEqual(rec, rec2) {
		t.Fatalf("record re-encode mismatch:\n got %+v\nwant %+v", rec2, rec)
	}
}
