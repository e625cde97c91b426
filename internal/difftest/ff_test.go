package difftest

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/emu"
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
func runBoth(t *testing.T, name string, cfg pipeline.Config, stream func() pipeline.Source) {
	t.Helper()

	slow := cfg
	slow.NoFastForward = true
	var slowSink, fastSink recordingSink
	slowStats, err := pipeline.RunObserved(slow, stream(), &slowSink)
	if err != nil {
		t.Fatalf("%s (no fast-forward): %v", name, err)
	}
	fastStats, err := pipeline.RunObserved(cfg, stream(), &fastSink)
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
			runBoth(t, m.Name, m.Cfg, func() pipeline.Source {
				return &sliceSource{trs: trs}
			})
		}
	}
}

// TestFastForwardExactProgram runs the whole stack (assembler, emulator,
// batched trace source) under one generated MiniC program per machine.
func TestFastForwardExactProgram(t *testing.T) {
	src := RandomMiniC(rand.New(rand.NewSource(42)))
	p := buildMiniC(t, src, minic.BaseOptions(), prog.DefaultConfig())
	for _, m := range Machines() {
		runBoth(t, m.Name, m.Cfg, func() pipeline.Source {
			e := emu.New(p)
			e.MaxInsts = 500_000
			return emuBatchSource{e}
		})
	}
}

// sliceSource replays a recorded trace slice.
type sliceSource struct {
	trs []emu.Trace
	i   int
}

func (s *sliceSource) Next() (emu.Trace, bool, error) {
	if s.i >= len(s.trs) {
		return emu.Trace{}, false, nil
	}
	tr := s.trs[s.i]
	s.i++
	return tr, true, nil
}

// sliceBatches replays a recorded trace slice through the batched path.
type sliceBatches struct{ sliceSource }

func (s *sliceBatches) NextBatch(buf []emu.Trace) (int, error) {
	n := copy(buf, s.trs[s.i:])
	s.i += n
	return n, nil
}

// emuBatchSource mirrors core's emulator adapter, including the batched
// path, without importing core (which would cycle).
type emuBatchSource struct {
	e *emu.Emulator
}

func (s emuBatchSource) Next() (emu.Trace, bool, error) {
	if s.e.Halted {
		return emu.Trace{}, false, nil
	}
	tr, err := s.e.Step()
	if err != nil {
		return emu.Trace{}, false, err
	}
	return tr, true, nil
}

func (s emuBatchSource) NextBatch(buf []emu.Trace) (int, error) {
	n := 0
	for n < len(buf) && !s.e.Halted {
		if err := s.e.StepInto(&buf[n]); err != nil {
			return 0, err
		}
		n++
	}
	return n, nil
}

// runFanout times one stream on every oracle machine at once through
// pipeline.RunMany and fails the test unless each machine's RunRecord is
// byte-identical to a solo RunCtx run of the same stream.
func runFanout(t *testing.T, name string, ms []Machine, stream func() pipeline.BatchSource) {
	t.Helper()
	cfgs := make([]pipeline.Config, len(ms))
	for i, m := range ms {
		cfgs[i] = m.Cfg
	}
	many, err := pipeline.RunMany(nil, cfgs, stream())
	if err != nil {
		t.Fatalf("%s: RunMany: %v", name, err)
	}
	for i, m := range ms {
		solo, err := pipeline.RunCtx(nil, m.Cfg, stream().(pipeline.Source), nil)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, m.Name, err)
		}
		want, err := json.Marshal(solo.Record("fanout", "", "test", m.Name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(many[i].Record("fanout", "", "test", m.Name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s/%s: fanned-out RunRecord differs\n  solo: %s\n  many: %s", name, m.Name, want, got)
		}
	}
}

// TestFanoutExact is the gate for sharing one trace stream between
// timing models: every oracle machine, selective included, timed in one
// RunMany group must produce the RunRecord it produces alone, on the
// generated traces and on a MiniC program run through the emulator.
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
			return &sliceBatches{sliceSource{trs: trs}}
		})
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
		return emuBatchSource{e}
	})
}
