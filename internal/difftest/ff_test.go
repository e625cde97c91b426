package difftest

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
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

// runFanout times each stream on every oracle machine, alone through
// pipeline.RunCtx and all at once through pipeline.RunMany, with and
// without a batch reader in the group, and fails the test unless every
// RunRecord is byte-identical to that machine's solo run of the first
// stream and the reader saw the whole stream. The streams must serve the
// same traces.
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
		for i, m := range ms {
			solo, err := pipeline.RunCtx(nil, m.Cfg, stream(), nil)
			if err != nil {
				t.Fatalf("%s/%d/%s: %v", name, j, m.Name, err)
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
		if all := drain(t, stream()); !slices.Equal(seen, all) {
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

// TestFanoutExact is the gate for sharing one trace stream between
// timing models: every oracle machine, selective included, timed in one
// RunMany group must produce the RunRecord it produces alone, on the
// generated traces and on a MiniC program run through the emulator. The
// generated traces are also served in short batches, which must time
// exactly like full ones, alone and in a group. A batch reader in the
// group sees every trace and changes no machine's timing.
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
