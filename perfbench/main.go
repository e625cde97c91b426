// Command perfbench is the repository benchmark: it measures the tools a
// user of this reproduction waits on, end to end, and the layers beneath
// them one by one. perfbench/README.md describes the workloads, the
// metrics and the output pins; run it through perfbench/run.sh from the
// repository root:
//
//	bash perfbench/run.sh --workload paper-eval --seed 1 --seconds 5 --trace 0
//	bash perfbench/run.sh --workload facd-mixed --seed 7 --seconds 5 --trace 1
//	bash perfbench/run.sh --write-pins
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics of the traced run with --trace 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/workload"
)

// endToEnd and perLayer name the metrics of the final JSON line, in the
// order BENCHMARK.json lists them.
var (
	endToEnd = []string{"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}
	perLayer = []string{
		"pipeline.mcycles_per_s", "pipeline.busy_share",
		"emu.minsts_per_s", "emu.busy_share", "profile.minsts_per_s",
		"minic.ms_per_program", "asm.ms_per_program", "prog.ms_per_program",
		"staticfac.ms_per_program", "staticfac.classified_ratio",
		"experiments.core_utilization", "obs.record_encode_us",
		"diskcache.get_ms", "diskcache.put_ms", "diskcache.hit_ratio",
		"simsvc.hit_overhead_ms", "simsvc.queue_wait_ms", "simsvc.refused", "simsvc.failed",
		"simsvc.metrics_bytes", "simsvc.rss_growth_mb",
		"sim.mcycles", "sim.minsts",
		"trace.coverage", "trace.overhead_ratio",
	}
)

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run   func(*env) (*report, error)
	trace func(*env) (*report, error)
}{
	"paper-eval": {runPaperEval, tracePaperEval},
	"facd-mixed": {runFacdMixed, traceFacdMixed},
	"lint-suite": {runLintSuite, traceLintSuite},
}

// env is what one benchmark run works with.
type env struct {
	build   string        // build directory (binaries, Go cache, scratch)
	work    string        // this run's scratch directory, removed at exit
	seed    int64         // workload seed
	seconds time.Duration // measuring time
	pins    *pins
}

// buildTools brings the named cmd/ tools up to date in the build
// directory and returns their paths.
func (e *env) buildTools(names ...string) ([]string, error) {
	binDir := filepath.Join(e.build, "bin")
	args := []string{"build", "-o", binDir + string(filepath.Separator)}
	var paths []string
	for _, n := range names {
		args = append(args, "./cmd/"+n)
		paths = append(paths, filepath.Join(binDir, n))
	}
	cmd := exec.Command("go", args...)
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build %s: %w\n%s", strings.Join(names, " "), err, out)
	}
	return paths, nil
}

// Set-up rounds: setup_s is the median of this many set-ups. A facd
// set-up simulates a whole session, so it runs fewer rounds than a suite
// build.
const (
	setupRounds      = 3
	suiteBuildRounds = 31
)

// buildSuite is the set-up cmd/experiments and cmd/faclint both start
// with: every workload compiled, assembled and linked under both
// toolchains, on nproc workers.
func buildSuite() error {
	var jobs []func() error
	for _, w := range workload.All() {
		for _, tc := range []workload.Toolchain{workload.BaseToolchain(), workload.FACToolchain()} {
			w, tc := w, tc
			jobs = append(jobs, func() error {
				_, err := workload.Build(w, tc)
				return err
			})
		}
	}
	return parallel(runtime.NumCPU(), jobs)
}

// timeSetup runs set-up the given number of times and returns the median
// seconds.
func timeSetup(rounds int, round func() error) (float64, error) {
	var ts []float64
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if err := round(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// report is the outcome of one run: the metrics of the final JSON line,
// the human-readable lines printed before it, and the operation tally.
type report struct {
	tally   tally
	metrics map[string]metric
	lines   []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

// set records a metric of the final JSON line and prints it.
func (r *report) set(name string, v float64, unit, about string) {
	r.metrics[name] = metric{v, unit}
	r.show(name, v, unit, about)
}

// show prints a metric that is not part of the final JSON line.
func (r *report) show(name string, v float64, unit, about string) {
	r.printf("  %-30s %14.6g %-8s %s", name, v, unit, about)
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func main() {
	workload := flag.String("workload", "", "workload: paper-eval, facd-mixed or lint-suite")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 5, "measuring time in seconds")
	traced := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	pinsFlag := flag.Bool("write-pins", false, "regenerate "+pinsPath+" from fresh tool runs")
	flag.Parse()
	os.Exit(run(*workload, *seed, *seconds, *traced, *pinsFlag))
}

func run(workload string, seed int64, seconds, traced int, pinsFlag bool) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
		return 1
	}
	for _, f := range []string{"go.mod", "cmd/experiments", "cmd/facd", "cmd/faclint", "perfbench"} {
		if _, err := os.Stat(f); err != nil {
			return fail("run from the repository root: %v", err)
		}
	}
	w, known := workloads[workload]
	if !pinsFlag && (!known || seconds < 1 || (traced != 0 && traced != 1)) {
		return fail("usage: --workload paper-eval|facd-mixed|lint-suite --seed N --seconds N --trace 0|1")
	}

	build := os.Getenv("BENCH_BUILD")
	if build == "" {
		build = ".bench_build"
	}
	build, err := filepath.Abs(build)
	if err != nil {
		return fail("%v", err)
	}
	work := filepath.Join(build, "work", fmt.Sprintf("%s-%d", workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return fail("%v", err)
	}
	defer os.RemoveAll(work)
	e := &env{build: build, work: work, seed: seed, seconds: time.Duration(seconds) * time.Second}

	if pinsFlag {
		if err := writePins(e); err != nil {
			return fail("write pins: %v", err)
		}
		fmt.Println("wrote", pinsPath)
		return 0
	}
	if e.pins, err = loadPins(); err != nil {
		return fail("load pins: %v", err)
	}

	printHost(workload, seed, seconds, traced)
	runFn, want := w.run, endToEnd
	if traced == 1 {
		runFn, want = w.trace, perLayer
	}
	rep, err := runFn(e)
	if err != nil {
		return fail("%s: %v", workload, err)
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	var got []string
	for k := range rep.metrics {
		got = append(got, k)
	}
	sort.Strings(got)
	wantSorted := append([]string(nil), want...)
	sort.Strings(wantSorted)
	if strings.Join(got, ",") != strings.Join(wantSorted, ",") {
		return fail("metrics %v, want %v", got, wantSorted)
	}
	t := rep.tally
	fmt.Printf("  %-30s %14.6g %-8s %d of %d operations failed, refused or mismatched\n",
		"error_ratio", t.errorRatio(), "ratio", t.errors(), t.Attempted)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{t.errors() == 0 && t.Attempted > 0, t.Attempted, t.errors(), rep.metrics})
	if err != nil {
		return fail("%v", err)
	}
	fmt.Println(string(line))
	return 0
}

// printHost prints the host fingerprint and what the numbers mean.
func printHost(workload string, seed int64, seconds, traced int) {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	fmt.Printf("perfbench workload %s seed %d seconds %d trace %d\n", workload, seed, seconds, traced)
	fmt.Printf("host: cpu %q, nproc %d, GOMAXPROCS %d, %s\n", cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Println("note: the simulated machine is not validated against real hardware, so no simulation-error figure is given")
	fmt.Println("note: paper-eval runs with every cache cold (fresh process, no -cache), because users pay that cost on every run")
}
