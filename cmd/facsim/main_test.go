package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pipeline"
)

// TestPrintTraceGolden pins the annotated issue trace of
// `facsim -fac -trace 40 -benchmark qsortst` byte for byte: the capped
// trace source must hand the pipeline, and the sink, exactly the first
// 40 dynamic instructions.
func TestPrintTraceGolden(t *testing.T) {
	p, err := buildInput("qsortst", nil, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig()
	cfg.Predictor = "fac"
	var got bytes.Buffer
	if err := printTrace(&got, p, cfg, 40); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "trace_qsortst_fac40.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("trace differs from the golden\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}
