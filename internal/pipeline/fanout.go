//lint:hotpath
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/emu"
)

// A group's ring holds fanSlots batches of fanSlotLen traces (196 KB
// with 48-byte traces). The fastest consumer can run at most fanSlots-1
// batches ahead of the slowest before it waits for it; larger batches
// mean fewer hand-offs between consumers. A ring with one consumer has
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

// RunMany simulates one trace stream on every machine in cfgs (which may
// be empty), hands its batches in order to every reader, and pulls the
// stream from src only once. Each machine's Stats are exactly what RunCtx
// returns for that machine alone on the same stream.
//
// Every machine's unchanged cycle loop, and every reader, runs on its own
// goroutine, reading the stream in place from a fixed ring of fanSlots
// batches. Whichever first needs a batch nobody has produced pulls it
// from src. A consumer releases its slot when it asks for the next one,
// so a reader must not keep a batch past its call, and nothing writes
// into a trace, so the slots are shared without copies. A source error
// reaches every consumer; one that fails or is cancelled detaches, so the
// others never wait for it. When any machine fails, the error is a
// RunErrors and the finished machines' Stats stay valid; otherwise it is
// the readers' errors (the source's, or ctx's), joined.
func RunMany(ctx context.Context, cfgs []Config, src BatchSource, readers ...func([]emu.Trace)) ([]Stats, error) {
	stats := make([]Stats, len(cfgs))
	errs := make([]error, len(cfgs)+len(readers)) // the machines', then the readers'
	r := newFanRing(src, len(errs))
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
	for j, read := range readers {
		id := len(cfgs) + j
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer r.detach(id)
			c := fanConsumer{ring: r, id: id}
			for ctx == nil || ctx.Err() == nil {
				b, err := c.next()
				if err != nil || len(b) == 0 {
					errs[id] = err
					return
				}
				read(b)
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

// fanRing is the trace stream as its consumers read it: batch seq of the
// stream lives in slots[seq%size] until every consumer has moved past it.
// RunCtx reads through a ring with one machine.
type fanRing struct {
	src BatchSource

	mu sync.Mutex
	// moved is broadcast when a batch lands, the stream ends, a consumer
	// detaches, or a release frees the slot a would-be producer waits on.
	moved sync.Cond

	size  int // slots in use: fanSlots, or 1 for a single consumer
	slots [fanSlots][]emu.Trace
	lens  [fanSlots]int
	next  int   // sequence number of the next batch to pull from src
	busy  bool  // a consumer is pulling batch next from src, outside mu
	end   bool  // src is exhausted
	err   error // src failed; consumers reading past the last batch get it

	// need[i] is the oldest batch consumer i may still read: the one it
	// holds, or, inside next, the one it asks for. math.MaxInt once it
	// has detached. Slot seq%size can take batch seq only when every
	// need is above seq-size.
	need        []int
	freeWaiters int // consumers waiting for a slot to be released
}

// newFanRing builds the ring k consumers read src through: fanSlots
// slots for a group, one for a single consumer.
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

// fanConsumer is one machine's or reader's cursor into the ring.
type fanConsumer struct {
	ring *fanRing
	id   int
	want int // the next batch this consumer reads
}

// next releases the batch the consumer holds and returns the following
// one, pulling it from the source if this consumer is the first to need
// it. An empty batch means the stream has ended.
func (c *fanConsumer) next() ([]emu.Trace, error) {
	r := c.ring
	seq := c.want
	r.mu.Lock()
	defer r.mu.Unlock()
	if old := r.need[c.id]; r.freeWaiters > 0 && old <= r.next-r.size {
		r.moved.Broadcast() // this consumer may have held the slot a producer waits on
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
			// Pull outside the lock: no consumer reads this slot until
			// next advances, and busy keeps the other consumers out of src.
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

// detach removes consumer i from the ring once it has returned, finished
// or not, so no other consumer waits for it.
func (r *fanRing) detach(i int) {
	r.mu.Lock()
	r.need[i] = math.MaxInt
	r.moved.Broadcast()
	r.mu.Unlock()
}
