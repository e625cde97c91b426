package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/simsvc"
	"repro/internal/workload"
)

// The traced simulation must produce exactly the record core.Run does.
func TestTracedSimMatchesCoreRun(t *testing.T) {
	w, err := workload.ByName("hashp")
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.Build(w, workload.BaseToolchain())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"base32", "fac32", "selective"} {
		cfg, err := machineConfig(m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(p, cfg, simsvc.DefaultMaxInsts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(res.Stats.Record(w.Name, w.Class.String(), "base", m))
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer("test")
		_, got, err := tracedSim(tr, p, w, "base", m, cfg, simsvc.DefaultMaxInsts)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: traced record differs from core.Run\n got %s\nwant %s", m, got, want)
		}
		ls := tr.layers()
		if ls["pipeline"] == nil || ls["emu"] == nil || ls["emu"].Work != res.Stats.Insts {
			t.Errorf("%s: layers %v lack the pipeline and emulator spans", m, ls)
		}
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		p     float64
		value float64
		ok    bool
	}{
		{1000, 99, 990, true}, // p99.9 has only 1 sample beyond
		{10000, 99.9, 9990, true},
		{100, 90, 90, true},
		{40, 75, 30, true},
		{20, 50, 10, true},
		{19, 0, 0, false},
		{0, 0, 0, false},
	} {
		got, ok := tail(seq(c.n))
		if ok != c.ok || (ok && (got.P != c.p || got.Value != c.value || got.N != c.n)) {
			t.Errorf("tail of %d samples = %+v, %v; want p%g = %g, %v", c.n, got, ok, c.p, c.value, c.ok)
		}
	}
}

func TestErrorRatioCounting(t *testing.T) {
	var tl tally
	tl.add(classify(nil, true))
	tl.add(classify(nil, true))
	tl.add(classify(nil, false))                                         // mismatched output
	tl.add(classify(errors.New("connection reset"), true))               // failed
	tl.add(classify(fmt.Errorf("run: %w", &simsvc.RetryError{}), false)) // refused (429)
	tl.add(classify(&simsvc.StatusError{Status: 503}, false))            // refused (draining)
	tl.add(classify(&simsvc.StatusError{Status: 500}, true))             // failed
	want := tally{Attempted: 7, Failed: 2, Refused: 2, Mismatched: 1}
	if tl != want {
		t.Fatalf("tally %+v, want %+v", tl, want)
	}
	if got := tl.errorRatio(); got != 5.0/7 {
		t.Errorf("error ratio %v, want 5/7", got)
	}
	if (tally{}).errorRatio() != 0 {
		t.Error("error ratio of nothing attempted is not 0")
	}
}

func TestNormalizeStdout(t *testing.T) {
	in := "Table 1\nrow\n[Table 1 regenerated in 1.8s]\n\n[380 run records written to /x/r.json]\n"
	if got, want := string(normalizeStdout([]byte(in))), "Table 1\nrow\n\n"; got != want {
		t.Errorf("normalizeStdout = %q, want %q", got, want)
	}
}

// A session sends Table 6's 76 runs once each, in an order that is a
// function of the seed alone.
func TestSessionOrder(t *testing.T) {
	specs := facdSpecs()
	if len(specs) != 76 {
		t.Fatalf("%d specs in a session, want 76", len(specs))
	}
	gen := func(seed int64) [][]simsvc.JobSpec {
		rng := rand.New(rand.NewSource(seed))
		return [][]simsvc.JobSpec{shuffled(rng, specs), shuffled(rng, specs)}
	}
	a := gen(7)
	if !reflect.DeepEqual(a, gen(7)) {
		t.Fatal("same seed, different orders")
	}
	if reflect.DeepEqual(a, gen(8)) || reflect.DeepEqual(a[0], a[1]) {
		t.Fatal("orders do not change with the seed and the session")
	}
	key := func(s simsvc.JobSpec) string { return fmt.Sprintf("%s|%d", s, s.MaxInsts) }
	for _, order := range a {
		seen := map[string]int{}
		for _, s := range order {
			seen[key(s)]++
		}
		for _, s := range specs {
			if seen[key(s)] != 1 {
				t.Errorf("%s sent %d times in a session", key(s), seen[key(s)])
			}
		}
	}
}

// The metric names of the final JSON line are the ones BENCHMARK.json
// declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(b.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, perfbench prints %v", got, endToEnd)
	}
	if got := names(b.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, perfbench prints %v", got, perLayer)
	}
	var ws []string
	for _, w := range b.Workloads {
		ws = append(ws, w.Name)
	}
	sort.Strings(ws)
	var ours []string
	for name := range workloads {
		ours = append(ours, name)
	}
	sort.Strings(ours)
	if !reflect.DeepEqual(ws, ours) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench runs %v", ws, ours)
	}
}
