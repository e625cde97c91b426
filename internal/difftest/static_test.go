package difftest

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/fac"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/staticfac"
)

// failureCorpus maps each handwritten failure-case program to the site
// opcode it stresses, the failure signal the static analysis must prove,
// and the machine on which the dynamic replays must actually occur.
var failureCorpus = []struct {
	file    string
	op      isa.Op
	signal  fac.Failure
	machine string
}{
	{"overflow.s", isa.LW, fac.FailOverflow, "fac32"},
	{"gencarry.s", isa.LW, fac.FailGenCarry, "fac32"},
	{"largenegconst.s", isa.LW, fac.FailLargeNegConst, "fac32"},
	{"negindexreg.s", isa.LWX, fac.FailNegIndexReg, "fac-regreg"},
}

func buildCorpus(t *testing.T, file string) *prog.Program {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "staticfac", file))
	if err != nil {
		t.Fatal(err)
	}
	o, err := asm.Assemble(string(src))
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	p, err := prog.Link(o, prog.DefaultConfig())
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return p
}

func machineByName(t *testing.T, name string) Machine {
	t.Helper()
	for _, m := range Machines() {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("no machine %q", name)
	return Machine{}
}

// TestFailureCorpus drives each handwritten failure-case program through
// the full differential oracle (which includes the static soundness
// cross-check on every FAC machine) and then asserts the sharp ends
// directly: the static analysis proves the site failing with the intended
// signal under every FAC geometry, and a dynamic run on the designated
// machine really does replay every speculation at that site.
func TestFailureCorpus(t *testing.T) {
	for _, tc := range failureCorpus {
		t.Run(tc.file, func(t *testing.T) {
			p := buildCorpus(t, tc.file)
			if err := Run(p, 100_000); err != nil {
				t.Fatal(err)
			}

			m := machineByName(t, tc.machine)
			geom := m.Cfg.FACGeometry()
			a := staticfac.Analyze(p, geom)
			var site *staticfac.Site
			for i := range a.Sites {
				if a.Sites[i].Inst.Op == tc.op {
					if site != nil {
						t.Fatalf("multiple %v sites; corpus programs must have exactly one", tc.op)
					}
					site = &a.Sites[i]
				}
			}
			if site == nil {
				t.Fatalf("no %v site found", tc.op)
			}
			if site.Verdict != staticfac.VerdictFailing {
				t.Fatalf("site %#x verdict %v (can=%v), want proven_failing",
					site.PC, site.Verdict, site.CanFail)
			}
			if site.CanFail&tc.signal == 0 {
				t.Fatalf("site %#x CanFail %v missing expected signal %v",
					site.PC, site.CanFail, tc.signal)
			}

			e := emu.New(p)
			e.MaxInsts = 100_000
			sites := obs.NewSiteCollector()
			if _, err := pipeline.RunCtx(nil, m.Cfg, e, sites); err != nil {
				t.Fatal(err)
			}
			d := sites.Sites[site.PC]
			if d == nil {
				t.Fatalf("machine %s never speculated site %#x", tc.machine, site.PC)
			}
			if d.Fails != d.Speculated || d.Fails == 0 {
				t.Fatalf("machine %s: site %#x replayed %d of %d speculations, want all (and >0)",
					tc.machine, site.PC, d.Fails, d.Speculated)
			}
			if d.FailMask&tc.signal == 0 {
				t.Fatalf("machine %s: site %#x dynamic failures %v missing %v",
					tc.machine, site.PC, d.FailMask, tc.signal)
			}
		})
	}
}
