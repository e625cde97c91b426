// Command launch runs one command for perfbench and reports what it cost:
// it runs the command with inherited standard streams, writes the
// command's wall time, CPU time and peak resident set as one JSON object
// to file descriptor 3, and exits with the command's status.
//
// It exists because the rusage peak resident set of a child that a Go
// program starts includes the parent's own resident set: the child
// shares the parent's memory map until it execs. This launcher imports
// almost nothing, so its own resident set stays below the tools'.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: launch command [args...]  (result JSON on fd 3)")
		os.Exit(2)
	}
	out := os.NewFile(3, "result")
	cmd := exec.Command(os.Args[1], os.Args[2:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // die with perfbench
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if cmd.ProcessState == nil {
		fmt.Fprintln(os.Stderr, "launch:", err)
		os.Exit(1)
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	res := struct {
		WallNS  int64 `json:"wall_ns"`
		CPUNS   int64 `json:"cpu_ns"`
		MaxRSSK int64 `json:"maxrss_kb"`
	}{wall.Nanoseconds(), ru.Utime.Nano() + ru.Stime.Nano(), ru.Maxrss}
	if err := json.NewEncoder(out).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "launch:", err)
		os.Exit(1)
	}
	os.Exit(cmd.ProcessState.ExitCode())
}
