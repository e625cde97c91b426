package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/fac"
	"repro/internal/ltb"
	"repro/internal/profile"
	"repro/internal/workload"
)

// groupMachines is a 14-machine group, the size of the evaluation's.
var groupMachines = []Machine{
	MBase32, MBase16, MOneCycle, MPerfect, MOnePerfect, MFAC16, MFAC32,
	MFAC16RR, MFAC32RR, MFAC32Tag, MFAC32SB4, MAGI, MStride, MSelective,
}

// soloFuncResult measures a binary with profile.Run and, for a base
// binary, a separate replay through the two load target buffers: the
// reference a reader on the shared pass must match.
func soloFuncResult(t *testing.T, s *Suite, w workload.Workload, tc string) *FuncResult {
	t.Helper()
	p, err := s.Program(w, tc)
	if err != nil {
		t.Fatal(err)
	}
	geoms := []fac.Config{Geo16, Geo32}
	if tc == "base" {
		geoms = append(geoms, fac.Config{BlockBits: 5, SetBits: 14, TagAdder: true}, fac.Config{BlockBits: 6, SetBits: 14})
	}
	prof, e, err := profile.Run(p, s.MaxInsts, geoms...)
	if err != nil {
		t.Fatal(err)
	}
	fr := &FuncResult{Profile: prof, MemUse: e.Mem.Footprint()}
	if tc != "base" {
		return fr
	}
	last := ltb.New(ltb.Config{Entries: 1024})
	stride := ltb.New(ltb.Config{Entries: 1024, Stride: true})
	replay := emu.New(p)
	replay.MaxInsts = s.MaxInsts
	for !replay.Halted {
		tr, err := replay.Step()
		if err != nil {
			t.Fatal(err)
		}
		if tr.Inst.Op.IsLoad() {
			last.Access(tr.PC, tr.EffAddr)
			stride.Access(tr.PC, tr.EffAddr)
		}
	}
	fr.LTBLast, fr.LTBStride = last.Accuracy(), stride.Accuracy()
	return fr
}

// TestFuncResultExact: a binary's FuncResult is the same whether a
// reader measured it inside a 14-machine timing group, in a pass with no
// machines, or profile.Run and a solo LTB replay measured it.
func TestFuncResultExact(t *testing.T) {
	names := []string{"hashp", "dct", "matmul"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		w := testWorkload(t, name)
		for _, tc := range []string{"base", "fac"} {
			grouped := NewSuite()
			log := logPasses(grouped, nil)
			runs := []Run{{Workload: w, Toolchain: tc}}
			for _, m := range groupMachines {
				runs = append(runs, Run{Workload: w, Toolchain: tc, Machine: m})
			}
			if err := grouped.Prefetch(runs); err != nil {
				t.Fatal(err)
			}
			inGroup, err := grouped.Functional(w, tc)
			if err != nil {
				t.Fatal(err)
			}
			if got := log.passes(t, grouped, w, tc); !reflect.DeepEqual(got, []int{14}) {
				t.Fatalf("%s/%s: passes timed %v machines, want one pass of 14", name, tc, got)
			}

			alone := NewSuite()
			log = logPasses(alone, nil)
			noMachines, err := alone.Functional(w, tc)
			if err != nil {
				t.Fatal(err)
			}
			if got := log.passes(t, alone, w, tc); !reflect.DeepEqual(got, []int{0}) {
				t.Fatalf("%s/%s: passes timed %v machines, want one pass of none", name, tc, got)
			}

			solo := soloFuncResult(t, alone, w, tc)
			if !reflect.DeepEqual(inGroup, solo) {
				t.Errorf("%s/%s: measured in a group\n  %+v\nwant the solo measurement\n  %+v", name, tc, inGroup, solo)
			}
			if !reflect.DeepEqual(noMachines, solo) {
				t.Errorf("%s/%s: measured with no machines\n  %+v\nwant the solo measurement\n  %+v", name, tc, noMachines, solo)
			}
		}
	}
}

// TestFunctionalBudgetError: a binary that outruns MaxInsts fails with
// the emulator's budget error, whether its pass has no machines or
// times some.
func TestFunctionalBudgetError(t *testing.T) {
	w := testWorkload(t, "hashp")
	s := NewSuite()
	s.MaxInsts = 10_000
	log := logPasses(s, nil)
	if _, err := s.Functional(w, "base"); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("pass with no machines: err = %v, want the instruction budget error", err)
	}
	err := s.Prefetch([]Run{{Workload: w, Toolchain: "fac", Machine: MBase32}, {Workload: w, Toolchain: "fac"}})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("pass with machines: err = %v, want the instruction budget error", err)
	}
	// The failed pass memoized nothing, so the measurement is retried, and fails again.
	if _, err := s.Functional(w, "fac"); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("after the failed timing pass: err = %v, want the instruction budget error", err)
	}
	if got := log.passes(t, s, w, "fac"); !reflect.DeepEqual(got, []int{1, 0}) {
		t.Errorf("fac passes timed %v machines, want a pass of 1, then one of none", got)
	}
}
