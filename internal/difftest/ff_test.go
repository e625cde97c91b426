package difftest

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bpred"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/predict"
	"repro/internal/prog"
)

// recordingSink captures the full event stream for equality comparison.
type recordingSink struct {
	events []obs.Event
}

func (r *recordingSink) Event(e obs.Event) { r.events = append(r.events, e) }

// runBoth replays one stream under cfg with stall fast-forwarding enabled
// and disabled and fails the test unless the resulting RunRecords (cycles,
// stall partition, histograms, cache and FAC sections) are byte-identical
// and the observability event streams are element-identical.
func runBoth(t *testing.T, name string, cfg pipeline.Config, stream func() pipeline.BatchSource) {
	t.Helper()

	slow := cfg
	slow.NoFastForward = true
	var slowSink, fastSink recordingSink
	slowStats, err := pipeline.RunCtx(nil, slow, stream(), &slowSink)
	if err != nil {
		t.Fatalf("%s (no fast-forward): %v", name, err)
	}
	fastStats, err := pipeline.RunCtx(nil, cfg, stream(), &fastSink)
	if err != nil {
		t.Fatalf("%s (fast-forward): %v", name, err)
	}

	slowRec, err := json.Marshal(slowStats.Record("ff", "", "test", name))
	if err != nil {
		t.Fatal(err)
	}
	fastRec, err := json.Marshal(fastStats.Record("ff", "", "test", name))
	if err != nil {
		t.Fatal(err)
	}
	if string(slowRec) != string(fastRec) {
		t.Errorf("%s: fast-forwarded RunRecord differs\n  slow: %s\n  fast: %s", name, slowRec, fastRec)
	}

	if len(slowSink.events) != len(fastSink.events) {
		t.Fatalf("%s: event stream length %d with fast-forward, %d without",
			name, len(fastSink.events), len(slowSink.events))
	}
	for i := range slowSink.events {
		if slowSink.events[i] != fastSink.events[i] {
			t.Fatalf("%s: event %d differs\n  slow: %+v\n  fast: %+v",
				name, i, slowSink.events[i], fastSink.events[i])
		}
	}
}

// TestFastForwardExact is the regression gate for stall fast-forwarding:
// across every oracle machine, replaying the same stream with and without
// fast-forwarding must produce identical timing, stall accounting, and
// event streams. Generated traces exercise the trace-replay path; a MiniC
// program exercises the emulator-backed (batched) path end to end.
func TestFastForwardExact(t *testing.T) {
	seeds := []int64{1, 5, 11}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, m := range Machines() {
		for _, seed := range seeds {
			trs := RandomTrace(rand.New(rand.NewSource(seed)), 3000)
			runBoth(t, m.Name, m.Cfg, func() pipeline.BatchSource {
				return NewSliceSource(trs)
			})
		}
	}
}

// TestFastForwardExactProgram runs the whole stack (assembler, emulator
// as the trace source) under one generated MiniC program per machine.
func TestFastForwardExactProgram(t *testing.T) {
	src := RandomMiniC(rand.New(rand.NewSource(42)))
	p := buildMiniC(t, src, minic.BaseOptions(), prog.DefaultConfig())
	for _, m := range Machines() {
		runBoth(t, m.Name, m.Cfg, func() pipeline.BatchSource {
			e := emu.New(p)
			e.MaxInsts = 500_000
			return e
		})
	}
}

// fetchAccesses recomputes, from a machine's fetch events, the I-cache
// accesses its fetch stage must make: one for each fetch group's first
// block and one for each instruction of the group outside that block.
type fetchAccesses struct {
	blockMask uint32
	n         uint64
}

func (f *fetchAccesses) Event(e obs.Event) {
	if e.Kind != obs.KindFetch {
		return
	}
	f.n++
	for k := range uint32(e.Val) {
		if (e.PC+k*isa.InstBytes)&f.blockMask != e.PC&f.blockMask {
			f.n++
		}
	}
}

// btbReplay counts the control transfers of a stream and the BTB's
// mispredictions of them, replaying a fresh BTB of the given size over
// the stream in order, as fetch meets them.
func btbReplay(trs []emu.Trace, entries int) (lookups, mispredicts uint64) {
	btb := bpred.New(entries)
	for _, tr := range trs {
		if tr.Inst.Op.IsControl() {
			lookups++
			if btb.Update(tr.PC, tr.NextPC != tr.PC+isa.InstBytes, tr.NextPC) {
				mispredicts++
			}
		}
	}
	return lookups, mispredicts
}

// runFanout times each stream on every oracle machine, alone through
// pipeline.RunCtx and all at once through pipeline.RunMany, with and
// without a batch reader in the group, and fails the test unless every
// RunRecord is byte-identical to that machine's solo run of the first
// stream and the reader saw the whole stream. Each solo run's front end
// is also checked against oracles of its own: its I-cache accesses
// against its fetch events, and its branch counts against a BTB replayed
// over the stream. The streams must serve the same traces.
func runFanout(t *testing.T, name string, ms []Machine, streams ...func() pipeline.BatchSource) {
	t.Helper()
	cfgs := make([]pipeline.Config, len(ms))
	for i, m := range ms {
		cfgs[i] = m.Cfg
	}
	record := func(st pipeline.Stats, m Machine) string {
		b, err := json.Marshal(st.Record("fanout", "", "test", m.Name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := make([]string, len(ms))
	for j, stream := range streams {
		all := drain(t, stream())
		for i, m := range ms {
			fa := &fetchAccesses{blockMask: ^uint32(m.Cfg.ICache.BlockSize - 1)}
			solo, err := pipeline.RunCtx(nil, m.Cfg, stream(), fa)
			if err != nil {
				t.Fatalf("%s/%d/%s: %v", name, j, m.Name, err)
			}
			if !m.Cfg.PerfectICache && solo.ICache.Accesses != fa.n {
				t.Errorf("%s/%d/%s: %d I-cache accesses, the fetch events call for %d", name, j, m.Name, solo.ICache.Accesses, fa.n)
			}
			if l, mis := btbReplay(all, m.Cfg.BTBEntries); solo.BranchLookups != l || solo.BranchMispredicts != mis {
				t.Errorf("%s/%d/%s: %d branches, %d mispredicted; a BTB replay gives %d, %d",
					name, j, m.Name, solo.BranchLookups, solo.BranchMispredicts, l, mis)
			}
			if j == 0 {
				want[i] = record(solo, m)
			} else if got := record(solo, m); got != want[i] {
				t.Errorf("%s/%d/%s: solo RunRecord differs\n  want: %s\n  got:  %s", name, j, m.Name, want[i], got)
			}
		}
		many, err := pipeline.RunMany(nil, cfgs, stream())
		if err != nil {
			t.Fatalf("%s/%d: RunMany: %v", name, j, err)
		}
		for i, m := range ms {
			if got := record(many[i], m); got != want[i] {
				t.Errorf("%s/%d/%s: fanned-out RunRecord differs\n  solo: %s\n  many: %s", name, j, m.Name, want[i], got)
			}
		}

		// The same group with a batch reader attached: the reader sees
		// the whole stream in order, and no machine's timing moves.
		var seen []emu.Trace
		many, err = pipeline.RunMany(nil, cfgs, stream(), func(b []emu.Trace) { seen = append(seen, b...) })
		if err != nil {
			t.Fatalf("%s/%d: RunMany with a reader: %v", name, j, err)
		}
		for i, m := range ms {
			if got := record(many[i], m); got != want[i] {
				t.Errorf("%s/%d/%s: RunRecord with a reader differs\n  solo: %s\n  many: %s", name, j, m.Name, want[i], got)
			}
		}
		if !slices.Equal(seen, all) {
			t.Errorf("%s/%d: the reader saw %d traces, not the stream's %d", name, j, len(seen), len(all))
		}
	}
}

// drain reads a whole stream.
func drain(t *testing.T, src pipeline.BatchSource) []emu.Trace {
	t.Helper()
	var all []emu.Trace
	buf := make([]emu.Trace, 100)
	for {
		n, err := src.NextBatch(buf)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return all
		}
		all = append(all, buf[:n]...)
	}
}

// shortBatches serves a trace slice in uneven short batches, 1, 7 and
// 1023 traces per call in turn, so no call fills a ring slot until the
// stream runs out.
type shortBatches struct {
	trs   []emu.Trace
	calls int
}

func (s *shortBatches) NextBatch(buf []emu.Trace) (int, error) {
	sizes := [...]int{1, 7, 1023}
	n := copy(buf[:min(len(buf), sizes[s.calls%len(sizes)])], s.trs)
	s.trs = s.trs[n:]
	s.calls++
	return n, nil
}

// aliasedBranches generates n traces of short straight-line runs, each
// ending in a conditional branch, with the branches at 64 sites that all
// map to entries 0 and 1 of a 16-entry BTB, so they keep evicting each
// other. Each site has its own taken bias; a taken branch goes to a
// random site's run, and a not-taken one falls through to a jump there.
func aliasedBranches(r *rand.Rand, n int) []emu.Trace {
	const sites = 64
	branchPC := func(k int) uint32 { return 0x00400000 + uint32(k)<<10 + uint32(k%2)*isa.InstBytes }
	runLen := make([]int, sites)
	bias := make([]float64, sites)
	for k := range runLen {
		runLen[k] = 1 + r.Intn(6)
		bias[k] = r.Float64()
	}
	start := func(k int) uint32 { return branchPC(k) - uint32(runLen[k])*isa.InstBytes }
	var trs []emu.Trace
	for k := r.Intn(sites); len(trs) < n; {
		pc := start(k)
		for range runLen[k] {
			rd := isa.Reg(8 + r.Intn(16))
			trs = append(trs, emu.Trace{PC: pc, Inst: isa.Inst{Op: isa.ADD, Rd: rd, Rs: rd, Rt: isa.Reg(8 + r.Intn(16))}, NextPC: pc + isa.InstBytes})
			pc += isa.InstBytes
		}
		next := r.Intn(sites)
		br := emu.Trace{PC: pc, Inst: isa.Inst{Op: isa.BNE, Rs: isa.T0, Rt: isa.T1}, NextPC: pc + isa.InstBytes}
		if r.Float64() < bias[k] {
			br.Taken, br.NextPC = true, start(next)
			trs = append(trs, br)
		} else {
			trs = append(trs, br, emu.Trace{PC: pc + isa.InstBytes, Inst: isa.Inst{Op: isa.J, Imm: int32(start(next))}, NextPC: start(next)})
		}
		k = next
	}
	return trs[:n]
}

// failingSource serves trs in batches of at most 100 traces and fails
// once it has served failAt of them.
type failingSource struct {
	trs    []emu.Trace
	failAt int
	served int
}

var errSourceFailed = errors.New("source failed")

func (s *failingSource) NextBatch(buf []emu.Trace) (int, error) {
	if s.served == s.failAt {
		return 0, errSourceFailed
	}
	n := copy(buf[:min(len(buf), 100, s.failAt-s.served)], s.trs[s.served:])
	s.served += n
	return n, nil
}

// TestFanoutExact is the gate for sharing one trace stream between
// timing models: every oracle machine, selective included, timed in one
// RunMany group must produce the RunRecord it produces alone, on the
// generated traces and on a MiniC program run through the emulator. The
// generated traces are also served in short batches, which must time
// exactly like full ones, alone and in a group. A batch reader in the
// group sees every trace and changes no machine's timing. A branch-heavy
// stream whose branches alias in the BTB is timed with a second BTB size
// in the group too, so the ring keeps two BTBs. A source that fails in
// the middle of a batch gives every machine, alone and in a group, the
// traces before the failure and then the error.
func TestFanoutExact(t *testing.T) {
	ms := Machines()
	seeds := []int64{1, 5, 11}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		// Long enough to wrap the ring several times.
		trs := RandomTrace(rand.New(rand.NewSource(seed)), 20000)
		runFanout(t, fmt.Sprintf("seed%d", seed), ms, func() pipeline.BatchSource {
			return NewSliceSource(trs)
		}, func() pipeline.BatchSource {
			return &shortBatches{trs: trs}
		})
	}

	aliased := aliasedBranches(rand.New(rand.NewSource(7)), 20000)
	btbBig := ms[0]
	btbBig.Name, btbBig.Cfg.BTBEntries = "base-btb4k", 4096
	runFanout(t, "aliased", append(slices.Clip(ms), btbBig), func() pipeline.BatchSource {
		return NewSliceSource(aliased)
	}, func() pipeline.BatchSource {
		return &shortBatches{trs: aliased}
	})

	// Fail in the middle of the second slot, on a call that is not the
	// slot's first.
	const failAt = 1500
	failing := RandomTrace(rand.New(rand.NewSource(3)), failAt)
	wantErr := fmt.Sprintf("stream failed after %d traces", failAt)
	for _, m := range ms {
		_, err := pipeline.RunCtx(nil, m.Cfg, &failingSource{trs: failing, failAt: failAt}, nil)
		if !errors.Is(err, errSourceFailed) || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("failing/%s: solo error %v, want %q wrapping %v", m.Name, err, wantErr, errSourceFailed)
		}
	}
	cfgs := make([]pipeline.Config, len(ms))
	for i, m := range ms {
		cfgs[i] = m.Cfg
	}
	var seen []emu.Trace
	_, err := pipeline.RunMany(nil, cfgs, &failingSource{trs: failing, failAt: failAt}, func(b []emu.Trace) { seen = append(seen, b...) })
	var errs pipeline.RunErrors
	if !errors.As(err, &errs) || len(errs) != len(ms) {
		t.Fatalf("failing: RunMany error %v, want a RunErrors for %d machines", err, len(ms))
	}
	for i, m := range ms {
		if !errors.Is(errs[i], errSourceFailed) || !strings.Contains(errs[i].Error(), wantErr) {
			t.Errorf("failing/%s: grouped error %v, want %q wrapping %v", m.Name, errs[i], wantErr, errSourceFailed)
		}
	}
	if !slices.Equal(seen, failing) {
		t.Errorf("failing: the reader saw %d traces, not the %d before the failure", len(seen), failAt)
	}

	src := RandomMiniC(rand.New(rand.NewSource(42)))
	p := buildMiniC(t, src, minic.BaseOptions(), prog.DefaultConfig())
	for i := range ms {
		if ms[i].Cfg.Predictor == "selective" {
			ms[i].Cfg.StaticTable = predict.BuildStaticTable(p, ms[i].Cfg.FACGeometry())
		}
	}
	runFanout(t, "minic", ms, func() pipeline.BatchSource {
		e := emu.New(p)
		e.MaxInsts = 500_000
		return e
	})
}
