//lint:hotpath
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/bpred"
	"repro/internal/emu"
	"repro/internal/isa"
)

// A group's ring holds fanSlots batches of fanSlotLen traces (196 KB
// with 48-byte traces), and beside each batch its side arrays (about 10
// bytes per trace, plus one per trace for each distinct BTB size). Every
// batch but the stream's last is full, so trace i of the stream lives in
// batch i>>fanSlotBits. A machine reads its issue queue in place, so it
// holds the batch of its queue head as well as the one it fetches from.
// The fastest consumer can run at most fanSlots-1 batches ahead of the
// oldest batch the slowest still holds before it waits for it. A ring
// with one consumer has nobody to run ahead of, so it keeps the two slots
// a machine needs (96 KB).
const (
	fanSlots    = 4
	fanSlotBits = 10
	fanSlotLen  = 1 << fanSlotBits
)

// Branch-outcome bits, one byte per control trace for each distinct BTB
// size in a group (fanSlot.br).
const (
	brMispredict uint8 = 1 << iota // the BTB mispredicted the transfer
	brRedirect                     // taken or predicted taken: fetch resumes next cycle
)

// RunErrors is the error RunMany returns when any machine fails. It is
// index-aligned with the configs: nil where that machine finished.
type RunErrors []error

func (e RunErrors) Error() string {
	var b strings.Builder
	for i, err := range e {
		if err == nil {
			continue
		}
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "machine %d: %v", i, err)
	}
	return b.String()
}

// Unwrap exposes the machines' errors to errors.Is and errors.As.
func (e RunErrors) Unwrap() []error {
	var errs []error
	for _, err := range e {
		if err != nil {
			// Error path only.
			//lint:alloc-ok
			errs = append(errs, err)
		}
	}
	return errs
}

// RunMany simulates one trace stream on every machine in cfgs (which may
// be empty), hands its batches in order to every reader, and pulls the
// stream from src only once. Each machine's Stats are exactly what RunCtx
// returns for that machine alone on the same stream.
//
// Every machine's unchanged cycle loop, and every reader, runs on its own
// goroutine, reading the stream in place from a fixed ring of fanSlots
// batches. Whichever first needs a batch nobody has produced pulls it
// from src, together with the batch's side arrays: the front-end work
// that does not depend on timing (pre-decodes, straight-line spans, BTB
// outcomes), done once for the group. A reader releases its batch when it
// asks for the next one, so it must not keep a batch past its call; a
// machine releases a batch once its issue queue's head has left it.
// Nothing writes into a trace, so the slots are shared without copies. A
// source error reaches every consumer after the traces before it; one
// that fails or is cancelled detaches, so the others never wait for it.
// When any machine fails, the error is a RunErrors and the finished
// machines' Stats stay valid; otherwise it is the readers' errors (the
// source's, or ctx's), joined.
func RunMany(ctx context.Context, cfgs []Config, src BatchSource, readers ...func([]emu.Trace)) ([]Stats, error) {
	stats := make([]Stats, len(cfgs))
	errs := make([]error, len(cfgs)+len(readers)) // the machines', then the readers'
	sims := make([]*sim, len(cfgs))
	btbs := make([]int, len(cfgs)) // 0 where the config is invalid
	for i, cfg := range cfgs {
		if sims[i], errs[i] = newSim(ctx, cfg, nil); errs[i] == nil {
			btbs[i] = cfg.BTBEntries
		}
	}
	r := newFanRing(src, len(errs), btbs)
	var wg sync.WaitGroup
	for i, s := range sims {
		if s == nil {
			r.detach(i)
			continue
		}
		s.attach(r, i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer r.detach(i)
			stats[i], errs[i] = s.simulate()
		}()
	}
	for j, read := range readers {
		id := len(cfgs) + j
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer r.detach(id)
			for seq := 0; ctx == nil || ctx.Err() == nil; seq++ {
				n, err := r.take(id, seq, seq)
				if err != nil || n == 0 {
					errs[id] = err
					return
				}
				read(r.slots[seq%r.size].trs[:n])
			}
			errs[id] = fmt.Errorf("pipeline: reader canceled: %w", ctx.Err())
		}()
	}
	wg.Wait()
	for _, err := range errs[:len(cfgs)] {
		if err != nil {
			return stats, RunErrors(errs[:len(cfgs)])
		}
	}
	return stats, errors.Join(errs[len(cfgs):]...)
}

// fanSlot is one batch of the ring and the side arrays computed beside
// it. Only the consumer that pulls the batch writes them, before anyone
// reads it; the traces themselves are never written by the ring.
type fanSlot struct {
	trs []emu.Trace // fanSlotLen long; the first lens[j] are the batch
	// The side arrays, which only machines read (a ring of readers alone
	// has none):
	//   - pre[p] is trs[p].Pre, or the ring's own pre-decode of trs[p].Inst
	//     when the source left Pre nil;
	//   - span[p] counts the traces from p on that are not control
	//     transfers and each follow the one before in memory (0 at a
	//     control transfer);
	//   - br[b*fanSlotLen+p] holds the brMispredict and brRedirect bits of
	//     control transfer p under the group's b-th BTB.
	pre  []*isa.Pre
	span []uint16
	br   []uint8
}

// fanRing is the trace stream as its consumers read it: batch seq of the
// stream lives in slots[seq%size] until every consumer has moved past it.
// RunCtx reads through a ring with one machine.
type fanRing struct {
	src BatchSource

	mu sync.Mutex
	// moved is broadcast when a batch lands, the stream ends, a consumer
	// detaches, or a release frees the slot a would-be producer waits on.
	moved sync.Cond

	size  int // slots in use: fanSlots, or 2 for a single consumer
	slots [fanSlots]fanSlot
	lens  [fanSlots]int
	next  int   // sequence number of the next batch to pull from src
	busy  bool  // a consumer is pulling batch next from src, outside mu
	end   bool  // src is exhausted
	err   error // src failed; consumers reading past the last batch get it

	// need[i] is the oldest batch consumer i may still read, as of its
	// last take: for a reader the one it asks for, for a machine the one
	// its issue queue's head is in. math.MaxInt once it has detached.
	// Slot seq%size can take batch seq only when every need is above
	// seq-size.
	need        []int
	freeWaiters int // consumers waiting for a slot to be released

	// The group's front end, run by the producer in stream order: one
	// BTB per distinct BTBEntries among the machines (btbEntries[b] sizes
	// btbs[b]), and the pre-decodes of traces that came without one, made
	// on first need.
	btbEntries []int
	btbs       []*bpred.BTB
	own        []isa.Pre
}

// newFanRing builds the ring k consumers read src through: fanSlots
// slots for a group, two for a single consumer. btbEntries lists the
// machines' BTB sizes, repeats allowed and 0 ignored; with none, the ring
// computes no side arrays.
func newFanRing(src BatchSource, k int, btbEntries []int) *fanRing {
	r := &fanRing{src: src, size: fanSlots, need: make([]int, k)}
	if k == 1 {
		r.size = 2
	}
	r.moved.L = &r.mu
	for _, n := range btbEntries {
		if n > 0 && !slices.Contains(r.btbEntries, n) {
			//lint:alloc-ok
			r.btbEntries, r.btbs = append(r.btbEntries, n), append(r.btbs, bpred.New(n))
		}
	}
	buf := make([]emu.Trace, r.size*fanSlotLen)
	for j := range r.slots[:r.size] {
		r.slots[j].trs = buf[j*fanSlotLen : (j+1)*fanSlotLen : (j+1)*fanSlotLen]
	}
	if len(r.btbs) > 0 {
		pre := make([]*isa.Pre, r.size*fanSlotLen)
		span := make([]uint16, r.size*fanSlotLen)
		br := make([]uint8, r.size*len(r.btbs)*fanSlotLen)
		for j := range r.slots[:r.size] {
			sl := &r.slots[j]
			sl.pre = pre[j*fanSlotLen : (j+1)*fanSlotLen]
			sl.span = span[j*fanSlotLen : (j+1)*fanSlotLen]
			sl.br = br[j*len(r.btbs)*fanSlotLen : (j+1)*len(r.btbs)*fanSlotLen]
		}
	}
	return r
}

// take waits until batch seq is in the ring for consumer id and returns
// its length, pulling it from the source if this consumer is the first to
// need it; 0 means the stream has ended. need is the oldest batch the
// consumer will still read: the slots of older batches may be refilled.
func (r *fanRing) take(id, seq, need int) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old := r.need[id]; need > old && r.freeWaiters > 0 && old <= r.next-r.size {
		r.moved.Broadcast() // this consumer may have held the slot a producer waits on
	}
	r.need[id] = need
	for {
		if seq < r.next {
			return r.lens[seq%r.size], nil
		}
		switch {
		case r.err != nil:
			return 0, r.err
		case r.end:
			return 0, nil
		case r.busy:
			r.moved.Wait()
		case r.minNeed() <= seq-r.size:
			r.freeWaiters++
			r.moved.Wait()
			r.freeWaiters--
		default:
			// Pull outside the lock: no consumer reads this slot until
			// next advances, and busy keeps the other consumers out of src.
			r.busy = true
			r.mu.Unlock()
			j := seq % r.size
			n, err := r.fill(j)
			r.mu.Lock()
			r.busy = false
			if n > 0 {
				r.lens[j] = n
				r.next++
			}
			switch {
			case err != nil:
				r.err = err
			case n < fanSlotLen:
				r.end = true
			}
			r.moved.Broadcast()
		}
	}
}

// fill pulls a whole batch into slot j, calling the source until the slot
// is full or the stream ends, and computes its side arrays. When the
// source fails, the batch is the traces of the calls before the failing
// one.
func (r *fanRing) fill(j int) (int, error) {
	trs := r.slots[j].trs
	n := 0
	for n < len(trs) {
		m, err := r.src.NextBatch(trs[n:])
		if err != nil {
			r.annotate(j, n)
			return n, err
		}
		if m == 0 {
			break
		}
		n += m
	}
	r.annotate(j, n)
	return n, nil
}

// annotate computes the side arrays of the n traces in slot j: what every
// machine's fetch stage would otherwise work out for itself. The BTB is
// read and trained only at fetch, in stream order, so its outcomes do not
// depend on timing, and one BTB serves every machine of that size.
func (r *fanRing) annotate(j, n int) {
	if len(r.btbs) == 0 {
		return
	}
	sl := &r.slots[j]
	trs := sl.trs[:n]
	for p := range trs {
		tr := &trs[p]
		pre := tr.Pre
		if pre == nil {
			// A hand-built trace: decode it into the ring's own table.
			if r.own == nil {
				r.own = make([]isa.Pre, r.size*fanSlotLen)
			}
			pre = &r.own[j*fanSlotLen+p]
			*pre = isa.Predecode(tr.Inst)
		}
		sl.pre[p] = pre
		if !pre.IsControl() {
			continue
		}
		taken := tr.NextPC != tr.PC+isa.InstBytes
		for b, btb := range r.btbs {
			predTaken, _ := btb.Predict(tr.PC)
			var o uint8
			if btb.Update(tr.PC, taken, tr.NextPC) {
				o |= brMispredict
			}
			if taken || predTaken {
				o |= brRedirect
			}
			sl.br[b*fanSlotLen+p] = o
		}
	}
	run := 0
	for p := n - 1; p >= 0; p-- {
		switch {
		case sl.pre[p].IsControl():
			run = 0
		case run > 0 && trs[p+1].PC == trs[p].PC+isa.InstBytes:
			run++
		default:
			run = 1
		}
		sl.span[p] = uint16(run)
	}
}

func (r *fanRing) minNeed() int {
	m := math.MaxInt
	for _, n := range r.need {
		if n < m {
			m = n
		}
	}
	return m
}

// detach removes consumer i from the ring once it has returned, finished
// or not, so no other consumer waits for it.
func (r *fanRing) detach(i int) {
	r.mu.Lock()
	r.need[i] = math.MaxInt
	r.moved.Broadcast()
	r.mu.Unlock()
}
