package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runResult is one finished child process.
type runResult struct {
	Wall   time.Duration
	CPU    time.Duration // user+sys
	MaxRSS float64       // MB
	Stdout []byte
}

// runTool runs bin to completion from the repository root and measures
// it. A non-zero exit is an error carrying the tail of its stderr. The
// tool is started through perfbench/launch, which reports the tool's own
// peak resident set (see that command's comment).
func runTool(bin string, args ...string) (runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	rd, wr, err := os.Pipe()
	if err != nil {
		return runResult{}, err
	}
	defer rd.Close()
	cmd := exec.Command(filepath.Join(filepath.Dir(self), "perfbench-launch"), append([]string{bin}, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	cmd.ExtraFiles = []*os.File{wr}
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = cmd.Start()
	wr.Close()
	if err != nil {
		return runResult{}, err
	}
	var res struct {
		WallNS  int64 `json:"wall_ns"`
		CPUNS   int64 `json:"cpu_ns"`
		MaxRSSK int64 `json:"maxrss_kb"`
	}
	decErr := json.NewDecoder(rd).Decode(&res)
	if err := cmd.Wait(); err != nil {
		msg := stderr.String()
		if len(msg) > 2000 {
			msg = msg[len(msg)-2000:]
		}
		return runResult{}, fmt.Errorf("%s %s: %w: %s", bin, strings.Join(args, " "), err, msg)
	}
	if decErr != nil {
		return runResult{}, fmt.Errorf("launcher result: %w", decErr)
	}
	return runResult{
		Wall:   time.Duration(res.WallNS),
		CPU:    time.Duration(res.CPUNS),
		MaxRSS: float64(res.MaxRSSK) / 1024,
		Stdout: stdout.Bytes(),
	}, nil
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTicks = 100

// procCPU returns the user+sys CPU time a live process has used.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procMem returns a live process's resident set and its peak, in MB.
func procMem(pid int) (rss, peak float64, err error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		for _, k := range []struct {
			prefix string
			dst    *float64
		}{{"VmRSS:", &rss}, {"VmHWM:", &peak}} {
			if rest, ok := strings.CutPrefix(line, k.prefix); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err != nil {
					return 0, 0, fmt.Errorf("parse %s: %w", line, err)
				}
				*k.dst = kb / 1024
			}
		}
	}
	return rss, peak, sc.Err()
}
