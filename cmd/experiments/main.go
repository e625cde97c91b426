// Command experiments regenerates the paper's evaluation: every table and
// figure of Austin, Pnevmatikatos & Sohi, "Streamlining Data Cache Access
// with Fast Address Calculation" (ISCA 1995), measured on this repository's
// substitute benchmark suite.
//
// Usage:
//
//	experiments                      # run everything
//	experiments -fig2                # one experiment (also -table1 -fig3
//	                                 #   -table3 -table4 -fig6 -table6 -ablate
//	                                 #   -ltb -agi -predictors -sweep)
//	experiments -fig6 -json out.json # also export every timing run as a
//	                                 #   machine-readable obs.RunRecord report
//	experiments -diff old.json new.json  # compare two exported reports and
//	                                 #   print cycle/IPC regressions
//	experiments -cache ~/.fac-cache  # reuse (and extend) a persistent result
//	                                 #   cache shared with the facd daemon
//	experiments -cache d             # a second time simulates nothing
//	experiments -remote http://host:8080     # run the grid on a daemon or
//	                                 #   fleet coordinator instead of locally
//	experiments -cpuprofile cpu.out -memprofile mem.out  # profile the run
//	                                 #   (go tool pprof -top cpu.out)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/simsvc"
)

func main() {
	var (
		fig2     = flag.Bool("fig2", false, "Figure 2: impact of load latency on IPC")
		table1   = flag.Bool("table1", false, "Table 1: program reference behavior")
		fig3     = flag.Bool("fig3", false, "Figure 3: load offset distributions")
		table3   = flag.Bool("table3", false, "Table 3: stats without software support")
		table4   = flag.Bool("table4", false, "Table 4: stats with software support")
		fig6     = flag.Bool("fig6", false, "Figure 6: speedups")
		table6   = flag.Bool("table6", false, "Table 6: bandwidth overhead")
		ablate   = flag.Bool("ablate", false, "ablations (tag adder, store buffer, MSHRs, block size)")
		ltbCmp   = flag.Bool("ltb", false, "FAC vs load target buffer comparison (related work)")
		agiCmp   = flag.Bool("agi", false, "FAC vs AGI pipeline organization (related work)")
		predGrid = flag.Bool("predictors", false, "cross-predictor grid: FAC vs the predictor zoo (internal/predict)")
		sweep    = flag.Bool("sweep", false, "cache-size sensitivity sweep")
		jsonOut  = flag.String("json", "", "write every timing run as a RunRecord report to this file")
		diffMode = flag.Bool("diff", false, "compare two RunRecord reports: -diff old.json new.json")
		tol      = flag.Float64("tolerance", 0.005, "relative change reported by -diff")
		cacheDir = flag.String("cache", "", "persistent result cache directory (shared with the facd daemon)")
		cacheMax = flag.Int64("cache-max-bytes", 0, "evict least-recently-used cache entries beyond this size (0 = unbounded)")
		remote   = flag.String("remote", "", "run named-machine simulations on this facd daemon or fleet coordinator URL instead of locally")
		token    = flag.String("token", "", "bearer token for -remote")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file when the run ends")
	)
	flag.Parse()

	if *diffMode {
		if err := runDiff(flag.Args(), *tol); err != nil {
			fmt.Fprintln(os.Stderr, "diff failed:", err)
			os.Exit(1)
		}
		return
	}
	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "profile failed:", err)
		os.Exit(1)
	}
	// fail reports a failed stage and exits with the profiles written.
	fail := func(stage string, err error) {
		fmt.Fprintf(os.Stderr, "%s failed: %v\n", stage, err)
		stopProfiles()
		os.Exit(1)
	}
	all := !(*fig2 || *table1 || *fig3 || *table3 || *table4 || *fig6 || *table6 || *ablate || *ltbCmp || *agiCmp || *predGrid || *sweep)

	s := experiments.NewSuite()
	if *cacheDir != "" {
		dc, err := simsvc.OpenDiskCache(*cacheDir, *cacheMax)
		if err != nil {
			fail("cache open", err)
		}
		s.SetCache(dc)
	}
	if *remote != "" {
		s.SetRemote(&simsvc.Client{Base: *remote, Token: *token})
	}
	// runs lists the timing and functional runs a step reads, so that
	// every selected step's runs execute in one Prefetch. Figure 3 reads
	// four base binaries one by one instead.
	steps := []struct {
		on   bool
		name string
		runs func() []experiments.Run
		run  func() (string, error)
	}{
		{*table1 || all, "Table 1", experiments.Table1Runs, func() (string, error) {
			r, err := s.Table1()
			if err != nil {
				return "", err
			}
			return r.Table().String(), nil
		}},
		{*fig2 || all, "Figure 2", experiments.Figure2Runs, func() (string, error) {
			r, err := s.Figure2()
			if err != nil {
				return "", err
			}
			return r.Table().String(), nil
		}},
		{*fig3 || all, "Figure 3", nil, func() (string, error) {
			r, err := s.Figure3()
			if err != nil {
				return "", err
			}
			return r.Table().String(), nil
		}},
		{*table3 || all, "Table 3", experiments.Table3Runs, func() (string, error) {
			r, err := s.Table3()
			if err != nil {
				return "", err
			}
			return r.Table().String(), nil
		}},
		{*table4 || all, "Table 4", experiments.Table4Runs, func() (string, error) {
			r, err := s.Table4()
			if err != nil {
				return "", err
			}
			return r.Table().String(), nil
		}},
		{*fig6 || all, "Figure 6", experiments.Figure6Runs, func() (string, error) {
			r, err := s.Figure6()
			if err != nil {
				return "", err
			}
			return r.Table().String(), nil
		}},
		{*table6 || all, "Table 6", experiments.Table6Runs, func() (string, error) {
			r, err := s.Table6()
			if err != nil {
				return "", err
			}
			return r.Table().String(), nil
		}},
		{*ablate || all, "Ablations", experiments.AblationRuns, func() (string, error) {
			r, err := s.Ablations()
			if err != nil {
				return "", err
			}
			return r.Table().String(), nil
		}},
		{*ltbCmp || all, "LTB comparison", experiments.LTBRuns, func() (string, error) {
			r, err := s.CompareLTB()
			if err != nil {
				return "", err
			}
			return r.Table().String(), nil
		}},
		{*agiCmp || all, "AGI comparison", experiments.AGIRuns, func() (string, error) {
			r, err := s.CompareAGI()
			if err != nil {
				return "", err
			}
			return r.Table().String(), nil
		}},
		{*predGrid || all, "Predictor grid", experiments.PredictorRuns, func() (string, error) {
			r, err := s.ComparePredictors()
			if err != nil {
				return "", err
			}
			return r.Table().String(), nil
		}},
		{*sweep || all, "Cache sweep", experiments.SweepRuns, func() (string, error) {
			r, err := s.CacheSweep()
			if err != nil {
				return "", err
			}
			return r.Table().String(), nil
		}},
	}
	// Execute every selected step's runs up front, so that each binary is
	// emulated once for all of its machines and its functional run; the
	// steps' own Prefetch calls then find them memoized.
	var plan []experiments.Run
	for _, st := range steps {
		if st.on && st.runs != nil {
			plan = append(plan, st.runs()...)
		}
	}
	if err := s.Prefetch(plan); err != nil {
		fail("timing runs", err)
	}
	for _, st := range steps {
		if !st.on {
			continue
		}
		t0 := time.Now()
		out, err := st.run()
		if err != nil {
			fail(st.name, err)
		}
		fmt.Println(out)
		fmt.Printf("[%s regenerated in %.1fs]\n\n", st.name, time.Since(t0).Seconds())
	}

	if *jsonOut != "" {
		rep := s.Report("cmd/experiments")
		data, err := rep.Encode()
		if err != nil {
			fail("json export", err)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fail("json export", err)
		}
		fmt.Printf("[%d run records written to %s]\n", len(rep.Records), *jsonOut)
	}

	if st, ok := s.CacheStats(); ok {
		fmt.Printf("[result cache %s: %d entries, %d hits / %d misses (%.0f%% hit rate)]\n",
			st.Dir, st.Entries, st.Hits, st.Misses, 100*st.HitRate())
	}
	// The incremental-rerun proof line: an unchanged re-run with -cache
	// prints simulated=0 with every run a cache hit.
	if c := s.Counts(); *cacheDir != "" || *remote != "" {
		fmt.Printf("[runs: simulated=%d remote=%d cache-hits=%d]\n",
			c.Simulated, c.Remote, c.CacheHits)
	}
	stopProfiles()
}

// startProfiles starts a CPU profile into cpuPath, when set, and returns
// the function that stops it and, when memPath is set, writes a heap
// profile there.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			}
		}
		if memPath != "" {
			if err := writeHeapProfile(memPath); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}, nil
}

// writeHeapProfile writes the live heap, as of a fresh collection, to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runDiff loads two exported reports and prints the records whose
// cycles/IPC/stall totals moved by more than tol (docs/OBSERVABILITY.md
// describes the workflow). It exits non-zero via the caller on I/O or
// schema errors; differences alone are not an error.
func runDiff(args []string, tol float64) error {
	if len(args) != 2 {
		return fmt.Errorf("need exactly two report files, got %d", len(args))
	}
	load := func(path string) (*obs.Report, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return obs.DecodeReport(data)
	}
	oldRep, err := load(args[0])
	if err != nil {
		return err
	}
	newRep, err := load(args[1])
	if err != nil {
		return err
	}
	lines := obs.Diff(oldRep, newRep, tol)
	if len(lines) == 0 {
		fmt.Printf("no differences above %.2f%% (%d records compared)\n", 100*tol, len(newRep.Records))
		return nil
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	return nil
}
