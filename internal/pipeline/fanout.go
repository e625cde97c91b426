//lint:hotpath
package pipeline

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/emu"
)

// A group's ring holds fanSlots batches of fanSlotLen traces (196 KB
// with 48-byte traces). The fastest machine can run at most fanSlots-1
// batches ahead of the slowest before it waits for it; larger batches
// mean fewer hand-offs between machines. A ring with one reader has
// nobody to run ahead of, so it keeps a single slot (48 KB).
const (
	fanSlots   = 4
	fanSlotLen = 1024
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

// RunMany simulates one trace stream on every machine in cfgs and pulls
// the stream from src only once. Each machine's Stats are exactly what
// RunCtx returns for that machine alone on the same stream.
//
// Every machine runs its own unchanged cycle loop on its own goroutine,
// reading the stream in place from a fixed ring of fanSlots batches.
// Whichever machine first needs a batch that nobody has produced pulls
// it from src, so there is no producer goroutine. A machine releases its
// slot when it refills (peekTrace's pointer-lifetime rule), and the
// pipeline never writes into a trace, so the slots are shared without
// copies. A source error reaches every machine. A machine that fails or
// is cancelled detaches from the ring, so the others never wait for it.
//
// When any machine fails, the error is a RunErrors, and the Stats of the
// machines that finished are still valid.
func RunMany(ctx context.Context, cfgs []Config, src BatchSource) ([]Stats, error) {
	stats := make([]Stats, len(cfgs))
	errs := make(RunErrors, len(cfgs))
	r := newFanRing(src, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer r.detach(i)
			s, err := newSim(ctx, cfg, nil)
			if err == nil {
				s.fan = fanConsumer{ring: r, id: i}
				stats[i], err = s.simulate()
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return stats, errs
		}
	}
	return stats, nil
}

// fanRing is the trace stream as the machines read it: batch seq of the
// stream lives in slots[seq%size] until every machine has moved past it.
// RunCtx reads through a ring with one machine.
type fanRing struct {
	src BatchSource

	mu sync.Mutex
	// moved is broadcast when a batch lands, the stream ends, a machine
	// detaches, or a release frees the slot a would-be producer waits on.
	moved sync.Cond

	size  int // slots in use: fanSlots, or 1 for a single machine
	slots [fanSlots][]emu.Trace
	lens  [fanSlots]int
	next  int   // sequence number of the next batch to pull from src
	busy  bool  // a machine is pulling batch next from src, outside mu
	end   bool  // src is exhausted
	err   error // src failed; machines reading past the last batch get it

	// need[i] is the oldest batch machine i may still read: the one it
	// holds, or, inside acquire, the one it asks for. math.MaxInt once it
	// has detached. Slot seq%size can take batch seq only when every
	// need is above seq-size.
	need        []int
	freeWaiters int // machines waiting for a slot to be released
}

// newFanRing builds the ring k machines read src through: fanSlots
// slots for a group, one for a single machine.
func newFanRing(src BatchSource, k int) *fanRing {
	r := &fanRing{src: src, size: fanSlots, need: make([]int, k)}
	if k == 1 {
		r.size = 1
	}
	r.moved.L = &r.mu
	buf := make([]emu.Trace, r.size*fanSlotLen)
	for j := range r.slots[:r.size] {
		r.slots[j] = buf[j*fanSlotLen : (j+1)*fanSlotLen : (j+1)*fanSlotLen]
	}
	return r
}

// fanConsumer is one machine's cursor into the ring.
type fanConsumer struct {
	ring *fanRing
	id   int
	want int // the next batch this machine reads
}

// next releases the batch the machine holds and returns the following
// one, pulling it from the source if this machine is the first to need
// it. An empty batch means the stream has ended.
func (c *fanConsumer) next() ([]emu.Trace, error) {
	r := c.ring
	seq := c.want
	r.mu.Lock()
	defer r.mu.Unlock()
	if old := r.need[c.id]; r.freeWaiters > 0 && old <= r.next-r.size {
		r.moved.Broadcast() // this machine may have held the slot a producer waits on
	}
	r.need[c.id] = seq
	for {
		if seq < r.next {
			c.want = seq + 1
			j := seq % r.size
			return r.slots[j][:r.lens[j]], nil
		}
		switch {
		case r.err != nil:
			return nil, r.err
		case r.end:
			return nil, nil
		case r.busy:
			r.moved.Wait()
		case r.minNeed() <= seq-r.size:
			r.freeWaiters++
			r.moved.Wait()
			r.freeWaiters--
		default:
			// Pull outside the lock: no machine reads this slot until
			// next advances, and busy keeps the other machines out of src.
			r.busy = true
			r.mu.Unlock()
			n, err := r.src.NextBatch(r.slots[seq%r.size])
			r.mu.Lock()
			r.busy = false
			switch {
			case err != nil:
				r.err = err
			case n == 0:
				r.end = true
			default:
				r.lens[seq%r.size] = n
				r.next++
			}
			r.moved.Broadcast()
		}
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

// detach removes machine i from the ring once its cycle loop has
// returned, finished or not, so no other machine waits for it.
func (r *fanRing) detach(i int) {
	r.mu.Lock()
	r.need[i] = math.MaxInt
	r.moved.Broadcast()
	r.mu.Unlock()
}
