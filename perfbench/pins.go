package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"

	"repro/internal/obs"
)

// pinsPath is the pinned-output file, relative to the repository root.
const pinsPath = "perfbench/pins.txt"

// pins holds the expected outputs every workload is checked against.
type pins struct {
	Go         string            // toolchain version the pins were made with
	Report     string            // SHA-256 of `experiments -json` output
	Stdout     string            // SHA-256 of normalized `experiments` stdout
	LintBase   string            // SHA-256 of `faclint -suite` stdout
	LintFalign string            // SHA-256 of `faclint -falign -suite` stdout
	Records    map[string]string // record key -> SHA-256 of its JSON encoding
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// recordDigest hashes a record's canonical JSON encoding.
func recordDigest(rec obs.RunRecord) (string, error) {
	b, err := json.Marshal(rec)
	if err != nil {
		return "", err
	}
	return sha(b), nil
}

// matches reports whether rec equals the pinned record of its key.
func (p *pins) matches(rec obs.RunRecord) bool {
	want, ok := p.Records[rec.Key()]
	if !ok {
		return false
	}
	d, err := recordDigest(rec)
	return err == nil && d == want
}

// volatileLine matches the stdout lines of cmd/experiments that carry
// timings or the report path, which the stdout pin leaves out.
var volatileLine = regexp.MustCompile(`^\[(.* regenerated in .*|\d+ run records written to .*)\]$`)

// normalizeStdout drops the volatile lines of cmd/experiments stdout.
func normalizeStdout(out []byte) []byte {
	var b bytes.Buffer
	for _, line := range strings.SplitAfter(string(out), "\n") {
		if volatileLine.MatchString(strings.TrimSuffix(line, "\n")) {
			continue
		}
		b.WriteString(line)
	}
	return b.Bytes()
}

func loadPins() (*pins, error) {
	f, err := os.Open(pinsPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p := &pins{Records: make(map[string]string)}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		bad := fmt.Errorf("%s:%d: malformed pin %q", pinsPath, n, line)
		switch {
		case len(f) == 2 && f[0] == "go":
			p.Go = f[1]
		case len(f) == 2 && f[0] == "report":
			p.Report = f[1]
		case len(f) == 2 && f[0] == "stdout":
			p.Stdout = f[1]
		case len(f) == 2 && f[0] == "lint-base":
			p.LintBase = f[1]
		case len(f) == 2 && f[0] == "lint-falign":
			p.LintFalign = f[1]
		case len(f) == 3 && f[0] == "record":
			p.Records[f[1]] = f[2]
		default:
			return nil, bad
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if p.Report == "" || p.Stdout == "" || p.LintBase == "" || p.LintFalign == "" || len(p.Records) == 0 {
		return nil, fmt.Errorf("%s: incomplete pins", pinsPath)
	}
	if p.Go != runtime.Version() {
		fmt.Fprintf(os.Stderr, "perfbench: pins were made with %s, this toolchain is %s; the report pins include the Go version and will not match\n", p.Go, runtime.Version())
	}
	return p, nil
}

// writePins regenerates the pins from fresh runs of the tools.
func writePins(env *env) error {
	bins, err := env.buildTools("experiments", "faclint")
	if err != nil {
		return err
	}
	reportPath := filepath.Join(env.work, "report.json")
	ev, err := runTool(bins[0], "-json", reportPath)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		return err
	}
	rep, err := obs.DecodeReport(data)
	if err != nil {
		return err
	}
	base, err := runTool(bins[1], "-suite")
	if err != nil {
		return err
	}
	falign, err := runTool(bins[1], "-falign", "-suite")
	if err != nil {
		return err
	}

	var b strings.Builder
	b.WriteString("# Output pins of the repository benchmark (perfbench/README.md).\n")
	b.WriteString("# Regenerate with: bash perfbench/run.sh --write-pins\n")
	fmt.Fprintf(&b, "go %s\n", runtime.Version())
	fmt.Fprintf(&b, "report %s\n", sha(data))
	fmt.Fprintf(&b, "stdout %s\n", sha(normalizeStdout(ev.Stdout)))
	fmt.Fprintf(&b, "lint-base %s\n", sha(base.Stdout))
	fmt.Fprintf(&b, "lint-falign %s\n", sha(falign.Stdout))
	var lines []string
	for _, rec := range rep.Records {
		d, err := recordDigest(rec)
		if err != nil {
			return err
		}
		lines = append(lines, fmt.Sprintf("record %s %s\n", rec.Key(), d))
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l)
	}
	return os.WriteFile(pinsPath, []byte(b.String()), 0o644)
}
