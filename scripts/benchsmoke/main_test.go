package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBaseRevision checks the base the gate compares against in each
// state of a throwaway repository.
func TestBaseRevision(t *testing.T) {
	t.Setenv("GIT_CONFIG_GLOBAL", os.DevNull)
	t.Setenv("GIT_CONFIG_NOSYSTEM", "1")
	t.Setenv("GIT_AUTHOR_NAME", "t")
	t.Setenv("GIT_AUTHOR_EMAIL", "t@example.com")
	t.Setenv("GIT_COMMITTER_NAME", "t")
	t.Setenv("GIT_COMMITTER_EMAIL", "t@example.com")
	dir := t.TempDir()
	must := func(args ...string) string {
		t.Helper()
		out, err := git(dir, args...)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	file := filepath.Join(dir, "f")
	commit := func(content string) string {
		t.Helper()
		if err := os.WriteFile(file, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		must("add", "f")
		must("commit", "-q", "-m", content)
		return must("rev-parse", "HEAD")
	}
	want := func(state, rev string) {
		t.Helper()
		got, err := baseRevision(dir)
		if err != nil || got != rev {
			t.Errorf("%s: base %q, %v; want %q", state, got, err, rev)
		}
	}

	must("init", "-q", "-b", "main")
	first := commit("1")
	second := commit("2")
	want("clean main", first)

	if err := os.WriteFile(file, []byte("changed"), 0o644); err != nil {
		t.Fatal(err)
	}
	want("main with uncommitted changes", second)
	must("checkout", "-q", "--", "f")

	must("checkout", "-q", "-b", "topic")
	commit("3")
	commit("4")
	want("clean branch", second)

	must("checkout", "-q", "--detach", "main")
	if got, err := baseRevision(dir); err == nil || !strings.Contains(err.Error(), "nothing to compare") {
		t.Errorf("detached HEAD at main: base %q, %v; want an error", got, err)
	}
}

// TestBenchMetric reads a custom metric off `go test -bench` output.
func TestBenchMetric(t *testing.T) {
	out := "goos: linux\nBenchmarkPipelineGroup-2   \t       1\t 428117253 ns/op\t        51.57 Mcycles/s\nPASS\n"
	if v, err := benchMetric(out, "BenchmarkPipelineGroup", "Mcycles/s"); err != nil || v != 51.57 {
		t.Errorf("benchMetric = %v, %v; want 51.57", v, err)
	}
	if _, err := benchMetric(out, "BenchmarkPipeline", "Mcycles/s"); err == nil {
		t.Error("a longer benchmark name matched BenchmarkPipeline")
	}
	if _, err := benchMetric(out, "BenchmarkPipelineGroup", "Minsts/s"); err == nil {
		t.Error("a missing unit was found")
	}
}
