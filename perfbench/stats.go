package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"

	"repro/internal/simsvc"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tailStat is a latency tail: the value at percentile P of N samples.
type tailStat struct {
	P     float64
	Value float64
	N     int
}

func (t tailStat) String() string {
	return fmt.Sprintf("p%g of %d", t.P, t.N)
}

// tail returns the highest percentile of tailLadder with at least ten
// samples beyond it, using the nearest-rank definition (the value at rank
// ceil(p/100*n) of the sorted samples). ok is false when there are too
// few samples for even the median to have ten beyond it.
func tail(xs []float64) (t tailStat, ok bool) {
	s := sortedCopy(xs)
	n := len(s)
	for _, p := range tailLadder {
		// The epsilon keeps float error from pushing an exact rank
		// (99.9% of 10000) up by one.
		rank := int(math.Ceil(p/100*float64(n) - 1e-9))
		if rank < 1 {
			rank = 1
		}
		if n-rank >= 10 {
			return tailStat{P: p, Value: s[rank-1], N: n}, true
		}
	}
	return tailStat{N: n}, false
}

// outcome classifies one attempted operation.
type outcome int

const (
	opOK outcome = iota
	opFailed
	opRefused
	opMismatched
)

// classify maps an operation's error and its output check to an outcome.
// A 429 or 503 from the service is a refusal; any other error a failure;
// a successful operation whose output differs from its pin a mismatch.
func classify(err error, matches bool) outcome {
	if err != nil {
		var re *simsvc.RetryError
		var se *simsvc.StatusError
		if errors.As(err, &re) || (errors.As(err, &se) && se.Status == http.StatusServiceUnavailable) {
			return opRefused
		}
		return opFailed
	}
	if !matches {
		return opMismatched
	}
	return opOK
}

// tally counts attempted operations by outcome.
type tally struct {
	Attempted, Failed, Refused, Mismatched int
}

func (t *tally) add(o outcome) {
	t.Attempted++
	switch o {
	case opFailed:
		t.Failed++
	case opRefused:
		t.Refused++
	case opMismatched:
		t.Mismatched++
	}
}

func (t *tally) merge(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Refused += o.Refused
	t.Mismatched += o.Mismatched
}

// errors counts the operations that did not succeed with correct output.
func (t tally) errors() int { return t.Failed + t.Refused + t.Mismatched }

// errorRatio is failed, refused or mismatched operations over attempted.
func (t tally) errorRatio() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.errors()) / float64(t.Attempted)
}
