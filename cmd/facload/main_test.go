package main

import (
	"strings"
	"testing"
)

func TestCheckDrain(t *testing.T) {
	const accepted = 18
	for _, tc := range []struct {
		name, out, wantErr string
	}{
		{"valid", "facd listening on x\nfacd drained cleanly (submitted=18 completed=18 failed=0 cancelled=0)\n", ""},
		{"line missing", "facd listening on x\n", "missing clean-drain line"},
		{"identity broken", "facd drained cleanly (submitted=18 completed=16 failed=0 cancelled=0)", "drain dropped jobs"},
		{"phantom admission", "facd drained cleanly (submitted=19 completed=19 failed=0 cancelled=0)", "harness saw 18 accepted"},
		{"lost admission", "facd drained cleanly (submitted=17 completed=17 failed=0 cancelled=0)", "harness saw 18 accepted"},
		{"failed", "facd drained cleanly (submitted=18 completed=17 failed=1 cancelled=0)", "failed=1"},
		{"cancelled", "facd drained cleanly (submitted=18 completed=17 failed=0 cancelled=1)", "cancelled=1"},
	} {
		err := checkDrain(tc.out, accepted)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestP99(t *testing.T) {
	runs := make([]float64, 200)
	for i := range runs {
		runs[i] = float64(200 - i) // 200, 199, ..., 1
	}
	if got := p99(runs); got != 198 {
		t.Fatalf("p99 of 1..200 = %v, want 198 (nearest rank)", got)
	}
	if got := p99([]float64{7}); got != 7 {
		t.Fatalf("p99 of one sample = %v, want 7", got)
	}
}

func TestWaitBound(t *testing.T) {
	// The tenant soak's shape: a 24-job queue over 2 workers, 55ms p99 run.
	if got := waitBound(24, 2, 55); got != 1430 {
		t.Fatalf("waitBound(24, 2, 55ms) = %vms, want 1430ms", got)
	}
	// The bound scales with the measured run time, not with a fixed knob.
	if got := waitBound(24, 2, 550); got != 14300 {
		t.Fatalf("waitBound(24, 2, 550ms) = %vms, want 14300ms", got)
	}
}
