// Package bpred implements the branch prediction hardware of the baseline
// machine: a direct-mapped branch target buffer with 2-bit saturating
// counters (paper Table 5). All control transfers are predicted through the
// BTB; a misprediction costs a fixed redirect penalty charged by the
// pipeline model.
package bpred

import "fmt"

// entry is 12 bytes: the two words first, so the bytes pack behind them.
type entry struct {
	tag     uint32
	target  uint32
	valid   bool
	counter uint8 // 2-bit saturating; >= 2 predicts taken
}

// BTB is a direct-mapped branch target buffer.
type BTB struct {
	entries []entry
	idxBits uint

	lookups     uint64
	mispredicts uint64
}

// New creates a BTB with the given number of entries (a power of two).
func New(entries int) *BTB {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic(fmt.Sprintf("bpred: entry count %d not a power of two", entries))
	}
	b := &BTB{entries: make([]entry, entries)}
	for 1<<b.idxBits < entries {
		b.idxBits++
	}
	return b
}

func (b *BTB) index(pc uint32) (uint32, uint32) {
	word := pc >> 2
	return word & uint32(len(b.entries)-1), word >> b.idxBits
}

// Predict returns the predicted direction and target for the control
// instruction at pc. A BTB miss predicts not-taken (fall through).
func (b *BTB) Predict(pc uint32) (taken bool, target uint32) {
	idx, tag := b.index(pc)
	e := &b.entries[idx]
	if e.valid && e.tag == tag && e.counter >= 2 {
		return true, e.target
	}
	return false, pc + 4
}

// Update trains the BTB with the architectural outcome of the control
// instruction at pc and reports whether the earlier prediction was wrong.
func (b *BTB) Update(pc uint32, taken bool, target uint32) (mispredicted bool) {
	b.lookups++
	predTaken, predTarget := b.Predict(pc)
	mispredicted = predTaken != taken || (taken && predTarget != target)
	if mispredicted {
		b.mispredicts++
	}

	idx, tag := b.index(pc)
	e := &b.entries[idx]
	if taken {
		if !e.valid || e.tag != tag {
			*e = entry{valid: true, tag: tag, target: target, counter: 2}
		} else {
			e.target = target
			if e.counter < 3 {
				e.counter++
			}
		}
	} else if e.valid && e.tag == tag {
		if e.counter > 0 {
			e.counter--
		}
	}
	return mispredicted
}

// Accuracy returns the fraction of correctly predicted control transfers.
func (b *BTB) Accuracy() float64 {
	if b.lookups == 0 {
		return 1
	}
	return 1 - float64(b.mispredicts)/float64(b.lookups)
}

// Counts returns (lookups, mispredicts).
func (b *BTB) Counts() (uint64, uint64) { return b.lookups, b.mispredicts }
