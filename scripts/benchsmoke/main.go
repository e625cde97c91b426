// Command benchsmoke is CI's throughput gate: a same-host A/B of
// BenchmarkPipeline and BenchmarkPipelineGroup between the working tree
// and a base revision.
//
//	go run ./scripts/benchsmoke -ref BENCH_pipeline.json
//
// It exports the base revision with git archive (no network), builds the
// root package's test binary there and in the working tree, and runs
// five alternating base/head pairs of -benchtime 1x samples of each
// benchmark. BenchmarkPipeline writes its report to a temporary file
// through BENCH_OUT; BenchmarkPipelineGroup's throughput is read from its
// Mcycles/s metric. It fails when
//
//   - a head report is malformed (wrong schema, no records, missing
//     throughput metric);
//   - a head report's simulated timing differs from the committed
//     artifact in any field: throughput work must never change results;
//   - the median head/base throughput ratio of either benchmark over the
//     pairs is more than -max-regression (default 20%) below 1.
//
// A base revision that predates BenchmarkPipelineGroup has no group
// pairs; the gate then says so and compares BenchmarkPipeline alone.
//
// The base is HEAD when the working tree has uncommitted changes;
// otherwise HEAD~1 on main, or the merge-base with main on any other
// branch. Both sides run on the same host in the same minute, so the gate
// compares code, not machines; the committed artifact is only the
// reference for simulated timing.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// pairs is the number of alternating base/head sample pairs.
const pairs = 5

func main() {
	ref := flag.String("ref", "BENCH_pipeline.json", "committed perf-trajectory artifact: the simulated timing every head sample must match")
	maxReg := flag.Float64("max-regression", 0.20, "maximum tolerated drop of the median head/base throughput ratio")
	flag.Parse()
	if err := smoke(*ref, *maxReg); err != nil {
		fmt.Fprintln(os.Stderr, "benchsmoke:", err)
		os.Exit(1)
	}
}

func smoke(ref string, maxReg float64) error {
	refRep, err := load(ref)
	if err != nil {
		return fmt.Errorf("ref %s: %w", ref, err)
	}
	base, err := baseRevision("")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "benchsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	baseBin, headBin := filepath.Join(tmp, "base.test"), filepath.Join(tmp, "head.test")
	baseTree := filepath.Join(tmp, "base")
	if err := os.Mkdir(baseTree, 0o755); err != nil {
		return err
	}
	if err := run("", nil, "sh", "-c", `git archive "$1" | tar -x -C "$2"`, "sh", base, baseTree); err != nil {
		return fmt.Errorf("export %s: %w", base, err)
	}
	if err := run(baseTree, nil, "go", "test", "-c", "-o", baseBin, "."); err != nil {
		return fmt.Errorf("build base %s: %w", base, err)
	}
	if err := run("", nil, "go", "test", "-c", "-o", headBin, "."); err != nil {
		return fmt.Errorf("build head: %w", err)
	}

	// sample runs one BenchmarkPipeline iteration and returns its report
	// and throughput.
	sample := func(bin, name string) (*obs.Report, float64, error) {
		out := filepath.Join(tmp, name+".json")
		err := run(tmp, []string{"BENCH_OUT=" + out}, bin,
			"-test.run", "^$", "-test.bench", "^BenchmarkPipeline$", "-test.benchtime", "1x", "-test.timeout", "10m")
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", name, err)
		}
		rep, err := load(out)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", name, err)
		}
		tp, err := throughput(rep)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", name, err)
		}
		return rep, tp, nil
	}
	// groupSample runs one BenchmarkPipelineGroup iteration and returns
	// its throughput.
	groupSample := func(bin, name string) (float64, error) {
		out, err := output(tmp, bin, "-test.run", "^$", "-test.bench", "^BenchmarkPipelineGroup$", "-test.benchtime", "1x", "-test.timeout", "10m")
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		tp, err := benchMetric(out, "BenchmarkPipelineGroup", "Mcycles/s")
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		return tp, nil
	}
	list, err := output(tmp, baseBin, "-test.list", "^BenchmarkPipelineGroup$")
	if err != nil {
		return fmt.Errorf("list base benchmarks: %w", err)
	}
	group := strings.TrimSpace(list) == "BenchmarkPipelineGroup"
	if !group {
		fmt.Printf("benchsmoke: base %s has no BenchmarkPipelineGroup; comparing BenchmarkPipeline alone\n", base)
	}

	ratios := make([]float64, pairs)
	var groupRatios []float64
	for i := range ratios {
		var baseTp, headTp float64
		var headRep *obs.Report
		// Alternate which side goes first, so a drift in host speed
		// during the run favours neither.
		for j := range 2 {
			if (i+j)%2 == 0 {
				_, baseTp, err = sample(baseBin, fmt.Sprintf("base%d", i))
			} else {
				headRep, headTp, err = sample(headBin, fmt.Sprintf("head%d", i))
			}
			if err != nil {
				return err
			}
		}
		// The simulated timing must match the committed records exactly.
		// (obs.Diff treats delta >= tolerance as a finding, so an
		// exact-match gate needs an epsilon above zero.)
		if diffs := obs.Diff(refRep, headRep, 1e-12); len(diffs) > 0 {
			for _, d := range diffs {
				fmt.Fprintln(os.Stderr, "benchsmoke:", d)
			}
			return fmt.Errorf("%d simulated-timing difference(s) vs %s", len(diffs), ref)
		}
		ratios[i] = headTp / baseTp
		fmt.Printf("benchsmoke: pair %d: base %.2f, head %.2f Mcycles/s (head/base %.3f)\n", i+1, baseTp, headTp, ratios[i])
		if !group {
			continue
		}
		for j := range 2 {
			if (i+j)%2 == 0 {
				baseTp, err = groupSample(baseBin, fmt.Sprintf("base group %d", i))
			} else {
				headTp, err = groupSample(headBin, fmt.Sprintf("head group %d", i))
			}
			if err != nil {
				return err
			}
		}
		groupRatios = append(groupRatios, headTp/baseTp)
		fmt.Printf("benchsmoke: group pair %d: base %.2f, head %.2f Mcycles/s (head/base %.3f)\n", i+1, baseTp, headTp, headTp/baseTp)
	}

	for _, g := range []struct {
		name   string
		ratios []float64
	}{{"BenchmarkPipeline", ratios}, {"BenchmarkPipelineGroup", groupRatios}} {
		if len(g.ratios) == 0 {
			continue
		}
		med := median(g.ratios)
		fmt.Printf("benchsmoke: %s: median head/base throughput %.3f over %d pairs vs %s (bound %.2f)\n",
			g.name, med, len(g.ratios), base, 1-maxReg)
		if med < 1-maxReg {
			return fmt.Errorf("%s throughput regressed %.1f%% vs %s (max %.0f%%)", g.name, 100*(1-med), base, 100*maxReg)
		}
	}
	return nil
}

// benchMetric returns the value a `go test -bench` output line of the
// named benchmark reports in unit.
func benchMetric(out, bench, unit string) (float64, error) {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || (f[0] != bench && !strings.HasPrefix(f[0], bench+"-")) {
			continue
		}
		for k := 1; k+1 < len(f); k++ {
			if f[k+1] == unit {
				v, err := strconv.ParseFloat(f[k], 64)
				if err != nil || v <= 0 {
					return 0, fmt.Errorf("%s: bad %s value %q", bench, unit, f[k])
				}
				return v, nil
			}
		}
	}
	return 0, fmt.Errorf("no %s metric for %s in the benchmark output", unit, bench)
}

// baseRevision is the revision the working tree in dir ("" for the
// current directory) is compared against: HEAD when the tree has
// uncommitted changes, else HEAD~1 when main is checked out, else the
// merge-base of HEAD with main. It fails when a clean tree's base is
// HEAD itself (a detached HEAD on main's history, say), since the gate
// would then compare the code with itself.
func baseRevision(dir string) (string, error) {
	head, err := git(dir, "rev-parse", "HEAD")
	if err != nil {
		return "", err
	}
	_, err = git(dir, "diff", "--quiet", "HEAD")
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit) && exit.ExitCode() == 1:
		return head, nil // the tree has uncommitted changes
	case err != nil:
		return "", err
	}
	branch, err := git(dir, "rev-parse", "--abbrev-ref", "HEAD")
	if err != nil {
		return "", err
	}
	var base string
	if branch == "main" {
		base, err = git(dir, "rev-parse", "HEAD~1")
	} else {
		base, err = git(dir, "merge-base", "HEAD", "main")
	}
	if err != nil {
		return "", err
	}
	if base == head {
		return "", fmt.Errorf("the working tree is HEAD %s, and so is the base: nothing to compare", head)
	}
	return base, nil
}

func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// output runs a command in dir and returns its standard output; its
// standard error is shown only when it fails.
func output(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("%w\n%s%s", err, out, stderr.String())
	}
	return string(out), nil
}

// run runs a command in dir ("" for the current one) with extra
// environment. Its output is shown only when it fails.
func run(dir string, env []string, name string, args ...string) error {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), env...)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("%w\n%s", err, out)
	}
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func load(path string) (*obs.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep, err := obs.DecodeReport(data)
	if err != nil {
		return nil, err
	}
	if len(rep.Records) == 0 {
		return nil, fmt.Errorf("report has no records")
	}
	return rep, nil
}

func throughput(r *obs.Report) (float64, error) {
	tp, ok := r.Metrics["mcycles_per_sec"]
	if !ok || tp <= 0 {
		return 0, fmt.Errorf("missing or non-positive mcycles_per_sec metric")
	}
	return tp, nil
}
