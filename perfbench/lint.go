package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"strconv"
	"time"

	"repro/internal/fac"
	"repro/internal/staticfac"
	"repro/internal/workload"
)

// lintPair is one `faclint -suite` plus `faclint -falign -suite`.
type lintPair struct {
	wall, cpu time.Duration
	peak      float64 // larger peak resident set of the two runs, MB
	ok        bool
	base      []byte // stdout of the base run
}

// runLintPair runs the two suite passes in a seeded order and checks
// their verdict output against the pins.
func runLintPair(e *env, bin string, rng *rand.Rand) (lintPair, error) {
	var p lintPair
	p.ok = true
	runs := [][]string{{"-suite"}, {"-falign", "-suite"}}
	if rng.Intn(2) == 1 {
		runs[0], runs[1] = runs[1], runs[0]
	}
	for _, args := range runs {
		res, err := runTool(bin, args...)
		if err != nil {
			return p, err
		}
		p.wall += res.Wall
		p.cpu += res.CPU
		p.peak = max(p.peak, res.MaxRSS)
		want := e.pins.LintBase
		if len(args) == 2 {
			want = e.pins.LintFalign
		} else {
			p.base = res.Stdout
		}
		p.ok = p.ok && sha(res.Stdout) == want
	}
	return p, nil
}

// pairSeconds sizes the fixed number of pairs a run measures: one pair
// per pairSeconds of measuring time. A pair takes 0.6 to 0.9 s on a
// 2-core Xeon, so a run takes longer than --seconds; the extra pairs
// steady the medians.
const pairSeconds = 0.5

// lintWindow runs one pair per pairSeconds of measuring time, at least
// one.
func lintWindow(e *env, bin string, r *report) ([]lintPair, error) {
	rng := rand.New(rand.NewSource(e.seed))
	var pairs []lintPair
	for n := max(1, int(e.seconds.Seconds()/pairSeconds)); len(pairs) < n; {
		p, err := runLintPair(e, bin, rng)
		if err != nil {
			return nil, err
		}
		r.tally.add(classify(nil, p.ok))
		pairs = append(pairs, p)
	}
	return pairs, nil
}

func runLintSuite(e *env) (*report, error) {
	bins, err := e.buildTools("faclint")
	if err != nil {
		return nil, err
	}
	setup, err := timeSetup(suiteBuildRounds, buildSuite)
	if err != nil {
		return nil, err
	}
	r := newReport()
	pairs, err := lintWindow(e, bins[0], r)
	if err != nil {
		return nil, err
	}
	var walls, cpus, peaks []float64
	for _, p := range pairs {
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		peaks = append(peaks, p.peak)
	}
	r.printf("lint-suite: seed %d, %d pairs of faclint -suite and faclint -falign -suite", e.seed, len(pairs))
	r.set("setup_s", setup, "s", fmt.Sprintf("build the suite's 38 programs in-process (median of %d)", suiteBuildRounds))
	r.set("wall_s", median(walls), "s", "one pair")
	r.set("cpu_s", median(cpus), "s", "user+sys CPU of one pair")
	r.set("peak_rss_mb", median(peaks), "MB", "faclint peak resident set: larger of a pair, median over pairs")
	return r, nil
}

// totalLine matches faclint's suite summary.
var totalLine = regexp.MustCompile(`(?m)^TOTAL\s+\S+\s+sites\s+(\d+) classified (\d+)`)

func traceLintSuite(e *env) (*report, error) {
	bins, err := e.buildTools("faclint")
	if err != nil {
		return nil, err
	}
	r := newReport()
	pairs, err := lintWindow(e, bins[0], r)
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	var cpus []float64
	var cpu, wall time.Duration
	for _, p := range pairs {
		cpus = append(cpus, p.cpu.Seconds())
		cpu += p.cpu
		wall += p.wall
	}
	ref := layerRef{
		cpu:       time.Duration(median(cpus) * float64(time.Second)),
		coreUtil:  cpu.Seconds() / (wall.Seconds() * float64(nproc)),
		uncovered: []string{"faclint process start-up and verdict formatting"},
	}

	// The replica: one pair's builds and analyses, on nproc workers.
	tr := newTracer("replica")
	geom := fac.Config{BlockBits: 5, SetBits: 14}
	var jobs []func() error
	var sites, classified [2]uint64
	counts := make([][2]uint64, 2*len(workload.All()))
	for ti, tc := range []workload.Toolchain{workload.BaseToolchain(), workload.FACToolchain()} {
		for wi, w := range workload.All() {
			tc, w, slot := tc, w, ti*len(workload.All())+wi
			jobs = append(jobs, func() error {
				p, err := tracedBuild(tr, w, tc)
				if err != nil {
					return err
				}
				s := tracedAnalyze(tr, w.Name+"|"+tc.Name, p, geom).Summary()
				counts[slot] = [2]uint64{uint64(s.Sites), uint64(s.Sites - s.ByVerdict[staticfac.VerdictUnknown])}
				return nil
			})
		}
	}
	if err := parallel(nproc, jobs); err != nil {
		return nil, err
	}
	tr.finish(nproc)
	for i, c := range counts {
		ti := i / len(workload.All())
		sites[ti] += c[0]
		classified[ti] += c[1]
	}
	// The replica must classify exactly what faclint printed.
	m := totalLine.FindSubmatch(pairs[0].base)
	same := m != nil && string(m[1]) == strconv.FormatUint(sites[0], 10) && string(m[2]) == strconv.FormatUint(classified[0], 10)
	r.tally.add(classify(nil, same))
	r.printf("lint-suite traced: %d untraced pairs; replica classifies %d of %d base sites, as faclint printed: %v",
		len(pairs), classified[0], sites[0], same)

	pt, svc, err := probe(e)
	if err != nil {
		return nil, err
	}
	layerReport(r, []*tracer{tr, pt}, ref, svc)
	writeTrace(e, "lint-suite", tr)
	return r, nil
}
