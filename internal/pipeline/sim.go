//lint:hotpath
package pipeline

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/fac"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/predict"
)

// BatchSource supplies the dynamic instruction stream in program order:
// NextBatch fills buf with as many traces as remain (up to len(buf)) and
// returns the count, 0 at end of stream. The emulator itself is one
// (emu.Emulator.NextBatch). The timing model reads the stream through a
// ring of batches (fanout.go), so the producer may run ahead of it,
// which is safe because the stream is trace-driven and replayed as-is.
type BatchSource interface {
	NextBatch(buf []emu.Trace) (int, error)
}

// ringBits sizes the per-cycle cache-port reservation ring. Reservations
// only ever target the current or next cycle, so a small ring suffices.
const ringBits = 6

type sim struct {
	cfg     Config
	pred    predict.Predictor // nil = no address prediction
	opBased bool              // pred.OperandBased() (hoisted off the hot path)
	ctx     context.Context   // nil = cancellation disabled

	icache *cache.Cache
	dcache *cache.Cache

	stats Stats
	sink  obs.Sink // nil = observability disabled (no event allocations)

	// The stream, read in place from the ring's slots: batch b is in
	// view[b&(fanSlots-1)] (a two-slot ring appears twice). The ring has
	// delivered traces [0, avail) in batches [0, taken); srcDone is set
	// once fetch has found the stream's end.
	ring    *fanRing
	ringID  int
	view    [fanSlots]slotView
	avail   int
	taken   int
	srcDone bool

	// The issue queue is the window [issueIdx, fetchIdx) of the stream:
	// fetched, not yet issued, in program order. Its capacity is the fetch
	// guard's bound (2*FetchWidth+IssueWidth). earliest[i&qMask] is the
	// cycle trace i can first issue (its fetch group's ready cycle + 2:
	// IF, ID, then EX), a power-of-two ring at least that large.
	issueIdx, fetchIdx int
	earliest           []uint64
	qMask              int
	nextFetchCycle     uint64

	// Scoreboard: cycle at which each unified register can be sourced.
	regReady [isa.NumURegs]uint64

	// Non-pipelined unit reservation.
	intMDFree uint64
	fpMDFree  uint64

	// Per-cycle cache port reservations.
	readsAt [1 << ringBits]uint8
	storeAt [1 << ringBits]bool

	// Store buffer (FIFO of entry-ready cycles), a fixed ring of
	// StoreBufferEntries.
	storeBuf []storeEnt
	sbHead   int
	sbLen    int

	// FAC replay rule: accesses in the cycle after a mispredict may not
	// speculate, except a load directly after a misspeculated load.
	lastMispredCycle   uint64
	lastMispredWasLoad bool
	haveMispred        bool

	nextCtxCheck uint64 // next cycle at which to poll ctx for cancellation
	lastEvent    uint64 // completion time of the latest activity seen
}

// slotView is one ring slot as a machine reads it: the traces, their
// pre-decodes and straight-line spans, and its own BTB size's branch
// outcomes (see fanSlot).
type slotView struct {
	trs  *[fanSlotLen]emu.Trace
	pre  *[fanSlotLen]*isa.Pre
	span *[fanSlotLen]uint16
	br   *[fanSlotLen]uint8
}

type storeEnt struct {
	addr    uint32
	entered uint64
}

// at returns trace i of the stream and its pre-decode; i must lie in a
// batch the machine holds.
func (s *sim) at(i int) (*emu.Trace, *isa.Pre) {
	v := &s.view[(i>>fanSlotBits)&(fanSlots-1)]
	p := i & (fanSlotLen - 1)
	return &v.trs[p], v.pre[p]
}

// Store-buffer ring operations.

func (s *sim) sbPush(e storeEnt) {
	i := s.sbHead + s.sbLen
	if i >= len(s.storeBuf) {
		i -= len(s.storeBuf)
	}
	s.storeBuf[i] = e
	s.sbLen++
}

func (s *sim) sbPop() storeEnt {
	e := s.storeBuf[s.sbHead]
	s.sbHead++
	if s.sbHead == len(s.storeBuf) {
		s.sbHead = 0
	}
	s.sbLen--
	return e
}

// ctxCheckInterval spaces out cancellation checks: the context is polled
// every 4096 simulated cycles (fast-forwarded cycles count), so an abort
// costs at most a few microseconds of extra simulation while the
// steady-state loop pays one nil comparison per cycle.
const ctxCheckInterval = 1 << 12

// RunCtx simulates the instruction stream and returns timing statistics.
// A non-nil sink receives every pipeline and cache event in simulation
// order (nil disables the event stream at zero cost). When ctx is
// non-nil, its cancellation or deadline aborts the cycle loop promptly
// (checked every few thousand cycles) and the run returns an error
// wrapping ctx.Err(). A nil ctx disables the checks entirely; timing is
// identical either way. The stream is read through a one-slot ring, the
// same consumer RunMany gives each of its machines.
func RunCtx(ctx context.Context, cfg Config, src BatchSource, sink obs.Sink) (Stats, error) {
	s, err := newSim(ctx, cfg, sink)
	if err != nil {
		return Stats{}, err
	}
	s.attach(newFanRing(src, 1, []int{cfg.BTBEntries}), 0)
	return s.simulate()
}

// attach makes the simulator consumer id of ring r, which must carry a
// BTB of the machine's size.
func (s *sim) attach(r *fanRing, id int) {
	s.ring, s.ringID = r, id
	b := slices.Index(r.btbEntries, s.cfg.BTBEntries)
	for k := range s.view {
		sl := &r.slots[k%r.size]
		s.view[k] = slotView{
			trs:  (*[fanSlotLen]emu.Trace)(sl.trs),
			pre:  (*[fanSlotLen]*isa.Pre)(sl.pre),
			span: (*[fanSlotLen]uint16)(sl.span),
			br:   (*[fanSlotLen]uint8)(sl.br[b*fanSlotLen:]),
		}
	}
}

// newSim validates cfg and builds a simulator with no trace source
// attached: the caller attaches it to a ring.
func newSim(ctx context.Context, cfg Config, sink obs.Sink) (*sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &sim{cfg: cfg, ctx: ctx, sink: sink}
	q := 1
	for q < 2*cfg.FetchWidth+cfg.IssueWidth {
		q <<= 1
	}
	s.earliest, s.qMask = make([]uint64, q), q-1
	s.storeBuf = make([]storeEnt, cfg.StoreBufferEntries)
	if name := cfg.Predictor; name != "" {
		static := cfg.StaticTable
		if name == "selective" && static == nil {
			// No verdicts supplied (a raw-trace replay with no program
			// behind it): every site is unknown, so selective degrades to
			// plain FAC. core.RunCtx bakes the real table from the program.
			static = &predict.StaticTable{}
		}
		p, err := predict.New(name, predict.Options{
			Geom:    cfg.FACGeometry(),
			Entries: cfg.PredictorEntries,
			TagBits: cfg.PredictorTagBits,
			Static:  static,
		})
		if err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		s.pred = p
		s.opBased = p.OperandBased()
		s.stats.Predictor = name
	}
	if !cfg.PerfectICache {
		s.icache = cache.New(cfg.ICache)
		s.icache.SetSink(sink)
	}
	if !cfg.PerfectDCache {
		s.dcache = cache.New(cfg.DCache)
		s.dcache.SetSink(sink)
	}
	return s, nil
}

// simulate runs the cycle loop to completion and collects the statistics.
func (s *sim) simulate() (Stats, error) {
	if err := s.run(); err != nil {
		return Stats{}, err
	}
	if s.icache != nil {
		s.stats.ICache = s.icache.Stats()
	}
	if s.dcache != nil {
		s.stats.DCache = s.dcache.Stats()
	}
	return s.stats, nil
}

func (s *sim) run() error {
	var now uint64
	lastProgress := uint64(0)
	prevInsts, prevBuf := uint64(0), 0
	for {
		if s.srcDone && s.issueIdx == s.fetchIdx && s.sbLen == 0 {
			break
		}
		if s.ctx != nil && now >= s.nextCtxCheck {
			s.nextCtxCheck = now + ctxCheckInterval
			if err := s.ctx.Err(); err != nil {
				return fmt.Errorf("pipeline: run canceled at cycle %d: %w", now, err)
			}
		}
		// Clear the reservation slot two cycles ahead (reservations only
		// target now or now+1).
		s.readsAt[(now+2)&(1<<ringBits-1)] = 0
		s.storeAt[(now+2)&(1<<ringBits-1)] = false

		if err := s.fetch(now); err != nil {
			return err
		}
		issued, cause := s.issue(now)
		if issued > 0 {
			s.stats.IssueActiveCycles++
		} else {
			s.stats.StallCycles[cause]++
			if s.sink != nil {
				s.sink.Event(obs.Event{Kind: obs.KindStall, Cause: cause, Cycle: now})
			}
		}
		s.retireStores(now)

		if s.stats.Insts != prevInsts || s.sbLen != prevBuf {
			prevInsts, prevBuf = s.stats.Insts, s.sbLen
			lastProgress = now
		}
		if now-lastProgress > 1_000_000 {
			return fmt.Errorf("pipeline: no progress for 1M cycles at cycle %d (%d pending, %d store buffer)",
				now, s.fetchIdx-s.issueIdx, s.sbLen)
		}

		// Stall fast-forwarding: when this cycle issued nothing and the
		// pipeline is provably quiescent until a known future cycle (a
		// miss fill, a long-latency result, a fetch redirect landing),
		// jump straight there. Timing, statistics, and the event stream
		// are bit-identical to walking the cycles one by one; see
		// docs/PERFORMANCE.md for the invariant argument.
		if issued == 0 && s.sbLen == 0 && !s.cfg.NoFastForward {
			if wake := s.ffWake(now); wake > now+1 {
				skipped := wake - now - 1
				s.stats.StallCycles[cause] += skipped
				if s.sink != nil {
					for c := now + 1; c < wake; c++ {
						s.sink.Event(obs.Event{Kind: obs.KindStall, Cause: cause, Cycle: c})
					}
				}
				// Every live port reservation targets a cycle <= now+1 <
				// wake, so the whole ring is stale at the resume cycle.
				s.readsAt = [1 << ringBits]uint8{}
				s.storeAt = [1 << ringBits]bool{}
				now = wake - 1
			}
		}
		now++
	}
	s.stats.Cycles = s.lastEvent
	return nil
}

// ffWake returns the cycle to which the simulation can provably
// fast-forward from the zero-issue cycle now: every skipped cycle would
// issue nothing for the same recorded cause, mutate no simulator state,
// and (stall events aside) emit nothing. It returns 0 when no such
// window exists. The caller guarantees the store buffer is empty, so
// retireStores is a no-op throughout the window.
func (s *sim) ffWake(now uint64) uint64 {
	const inf = ^uint64(0)
	wake := inf
	// Fetch next acts at nextFetchCycle — unless it is blocked on a full
	// issue queue, in which case it cannot act before issue drains the
	// queue (covered by the head examination below).
	if !s.srcDone {
		if s.fetchIdx-s.issueIdx+s.cfg.FetchWidth <= 2*s.cfg.FetchWidth+s.cfg.IssueWidth {
			if s.nextFetchCycle <= now {
				return 0 // fetch is active; no quiescent window
			}
			wake = s.nextFetchCycle
		}
	}
	if s.issueIdx < s.fetchIdx {
		_, pre := s.at(s.issueIdx)
		if earliest := s.earliest[s.issueIdx&s.qMask]; earliest > now {
			if earliest < wake {
				wake = earliest
			}
		} else {
			// Mirror the issue stage's head examination exactly.
			off := uint64(0)
			if s.cfg.AGI {
				switch pre.Class {
				case isa.ClassIntALU, isa.ClassBranch, isa.ClassJump, isa.ClassSyscall:
					off = 1
				}
			}
			opWake := uint64(0)
			for _, u := range pre.Uses { // unused slots hold $zero, ready at 0
				if r := s.regReady[u]; r > now+off && r-off > opWake {
					opWake = r - off
				}
			}
			if opWake != 0 {
				if opWake < wake {
					wake = opWake
				}
			} else {
				// Operands are ready, so the head is blocked on a
				// non-pipelined unit's issue interval; any other hazard
				// (cache port, store buffer slot) can clear within a
				// cycle and is not fast-forwarded.
				var free uint64
				switch pre.Class {
				case isa.ClassIntMul, isa.ClassIntDiv:
					free = s.intMDFree
				case isa.ClassFPMul, isa.ClassFPDiv:
					free = s.fpMDFree
				default:
					return 0
				}
				if free <= now {
					return 0
				}
				if free < wake {
					wake = free
				}
			}
		}
	}
	if wake == inf || wake <= now+1 {
		return 0
	}
	return wake
}

func (s *sim) note(cycle uint64) {
	if cycle > s.lastEvent {
		s.lastEvent = cycle
	}
}

// more makes trace fetchIdx readable and reports false at the end of the
// stream. Once the machine has fetched all it holds, it takes the next
// batch from the ring, which releases the batches wholly before the issue
// queue's head.
func (s *sim) more() (bool, error) {
	if s.fetchIdx < s.avail {
		return true, nil
	}
	return s.takeBatch()
}

func (s *sim) takeBatch() (bool, error) {
	if s.srcDone {
		return false, nil
	}
	n, err := s.ring.take(s.ringID, s.taken, s.issueIdx>>fanSlotBits)
	if err != nil {
		return false, fmt.Errorf("pipeline: stream failed after %d traces: %w", s.avail, err)
	}
	if n == 0 {
		s.srcDone = true
		return false, nil
	}
	s.avail += n
	s.taken++
	return true, nil
}

// fetch models the IF stage: up to FetchWidth contiguous instructions per
// cycle through the I-cache, ending early at predicted- or actually-taken
// control transfers, charging the BTB misprediction penalty. It takes a
// run of straight-line code (the ring's span) at a time, and a control
// transfer alone, with the BTB outcome the ring computed for it.
func (s *sim) fetch(now uint64) error {
	if now < s.nextFetchCycle {
		return nil
	}
	if s.fetchIdx-s.issueIdx+s.cfg.FetchWidth > 2*s.cfg.FetchWidth+s.cfg.IssueWidth {
		return nil // issue queue full; fetch stalls
	}
	if ok, err := s.more(); !ok {
		return err
	}
	first, _ := s.at(s.fetchIdx)
	firstPC := first.PC

	// The I-cache is accessed for the group's first block, and then once
	// for every instruction of the group outside that block, all in the
	// same cycle. (A perfect I-cache leaves the block mask 0, so nothing
	// lies outside.)
	groupReady := now
	var blockMask uint32
	if s.icache != nil {
		if res := s.icache.Access(firstPC, false, now); res.Ready > groupReady {
			groupReady = res.Ready
		}
		blockMask = ^uint32(s.cfg.ICache.BlockSize - 1)
	}
	firstBlock := firstPC & blockMask

	fetched := 0
	pc := firstPC
	redirected := false
	for fetched < s.cfg.FetchWidth {
		ok, err := s.more()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		v := &s.view[(s.fetchIdx>>fanSlotBits)&(fanSlots-1)]
		p := s.fetchIdx & (fanSlotLen - 1)
		if v.trs[p].PC != pc {
			break // discontiguous (should not happen: redirects end groups)
		}
		span := int(v.span[p])
		n := min(max(span, 1), s.cfg.FetchWidth-fetched)
		for end := s.fetchIdx + n; s.fetchIdx < end; s.fetchIdx++ {
			if pc&blockMask != firstBlock {
				if res := s.icache.Access(pc, false, now); res.Ready > groupReady {
					groupReady = res.Ready
				}
			}
			s.earliest[s.fetchIdx&s.qMask] = groupReady + 2
			pc += isa.InstBytes
		}
		fetched += n
		if span > 0 {
			continue
		}
		s.stats.BranchLookups++
		if o := v.br[p]; o&brMispredict != 0 {
			s.stats.BranchMispredicts++
			s.nextFetchCycle = groupReady + 1 + uint64(s.cfg.MispredictPenalty)
			redirected = true
			break
		} else if o&brRedirect != 0 {
			// Correctly predicted taken: fetch resumes at the target next
			// cycle.
			s.nextFetchCycle = groupReady + 1
			redirected = true
			break
		}
		// Correctly predicted not-taken: the group continues.
	}
	if !redirected {
		s.nextFetchCycle = groupReady + 1
	}
	if s.sink != nil && fetched > 0 {
		s.sink.Event(obs.Event{Kind: obs.KindFetch, Cycle: now, PC: firstPC, Val: uint64(fetched)})
	}
	return nil
}

// Cache port helpers ("up to two loads or one store each cycle").

func (s *sim) slot(c uint64) int { return int(c & (1<<ringBits - 1)) }

func (s *sim) readFree(c uint64) bool {
	i := s.slot(c)
	return !s.storeAt[i] && int(s.readsAt[i]) < s.cfg.DCacheReadsPerCycle
}

func (s *sim) useRead(c uint64) { s.readsAt[s.slot(c)]++ }

func (s *sim) storeFree(c uint64) bool {
	i := s.slot(c)
	return !s.storeAt[i] && s.readsAt[i] == 0
}

func (s *sim) useStore(c uint64) { s.storeAt[s.slot(c)] = true }

// dcacheAccess performs a data-cache access at the given cycle, retrying
// past MSHR-full conditions, and returns the cycle the data is available.
func (s *sim) dcacheAccess(addr uint32, write bool, c uint64) uint64 {
	if s.dcache == nil {
		return c // perfect cache
	}
	for {
		res := s.dcache.Access(addr, write, c)
		if !res.MSHRFull {
			return res.Ready
		}
		c = res.Ready
	}
}

// issue models the in-order issue stage: up to IssueWidth operations leave
// the queue per cycle, blocking on operand readiness, functional units, and
// memory structural hazards. It returns the number of instructions issued
// and, for zero-issue cycles, the stall cause blocking the queue head.
func (s *sim) issue(now uint64) (int, obs.StallCause) {
	issued := 0
	memIssued := 0
	aluUsed := 0
	fpAddUsed := 0
	cause := obs.StallFrontend

	if s.issueIdx == s.fetchIdx && s.srcDone {
		cause = obs.StallDrain // program done; store buffer still draining
	}
	for issued < s.cfg.IssueWidth && s.issueIdx < s.fetchIdx {
		tr, pre := s.at(s.issueIdx)
		if s.earliest[s.issueIdx&s.qMask] > now {
			cause = obs.StallFrontend // head not yet through IF/ID
			break
		}

		// In the AGI organization ALU-class operations execute one stage
		// later than address generation: their operands are needed one
		// cycle later (hiding load-use latency) and their results arrive
		// one cycle later (the address-use hazard).
		needAt := now
		aluShift := uint64(0)
		if s.cfg.AGI {
			switch pre.Class {
			case isa.ClassIntALU, isa.ClassBranch, isa.ClassJump, isa.ClassSyscall:
				needAt = now + 1
				aluShift = 1
			}
		}

		// In-order issue: all source operands must be ready. Unused Uses
		// slots hold $zero, which no instruction defines, so all three are
		// read unconditionally.
		if s.regReady[pre.Uses[0]] > needAt || s.regReady[pre.Uses[1]] > needAt || s.regReady[pre.Uses[2]] > needAt {
			cause = obs.StallOperand
			break
		}

		var resultReady uint64
		switch pre.Class {
		case isa.ClassIntALU, isa.ClassBranch, isa.ClassJump, isa.ClassSyscall:
			if aluUsed >= s.cfg.IntALUs {
				cause = obs.StallUnit
				goto stall
			}
			aluUsed++
			resultReady = now + uint64(s.cfg.IntALULat.Result) + aluShift
		case isa.ClassIntMul:
			if s.intMDFree > now {
				cause = obs.StallUnit
				goto stall
			}
			s.intMDFree = now + uint64(s.cfg.IntMulLat.Interval)
			resultReady = now + uint64(s.cfg.IntMulLat.Result)
		case isa.ClassIntDiv:
			if s.intMDFree > now {
				cause = obs.StallUnit
				goto stall
			}
			s.intMDFree = now + uint64(s.cfg.IntDivLat.Interval)
			resultReady = now + uint64(s.cfg.IntDivLat.Result)
		case isa.ClassFPAdd:
			if fpAddUsed >= s.cfg.FPAdders {
				cause = obs.StallUnit
				goto stall
			}
			fpAddUsed++
			resultReady = now + uint64(s.cfg.FPAddLat.Result)
		case isa.ClassFPMul:
			if s.fpMDFree > now {
				cause = obs.StallUnit
				goto stall
			}
			s.fpMDFree = now + uint64(s.cfg.FPMulLat.Interval)
			resultReady = now + uint64(s.cfg.FPMulLat.Result)
		case isa.ClassFPDiv:
			if s.fpMDFree > now {
				cause = obs.StallUnit
				goto stall
			}
			s.fpMDFree = now + uint64(s.cfg.FPDivLat.Interval)
			resultReady = now + uint64(s.cfg.FPDivLat.Result)
		case isa.ClassLoad:
			if memIssued >= s.cfg.LoadStore {
				cause = obs.StallMemPort
				goto stall
			}
			ok, rdy := s.scheduleLoad(tr, pre, now)
			if !ok {
				cause = obs.StallMemPort
				goto stall
			}
			memIssued++
			resultReady = rdy
			s.stats.Loads++
			s.stats.LoadLatency.Add(rdy - now)
			if s.pred != nil {
				s.pred.Train(tr.PC, tr.EffAddr)
			}
		case isa.ClassStore:
			if memIssued >= s.cfg.LoadStore {
				cause = obs.StallMemPort
				goto stall
			}
			if !s.scheduleStore(tr, pre, now) {
				// Distinguish a full store buffer from a busy cache port.
				if s.sbLen >= s.cfg.StoreBufferEntries {
					cause = obs.StallStoreBuffer
				} else {
					cause = obs.StallMemPort
				}
				goto stall
			}
			memIssued++
			resultReady = now + 1 // post-increment base writeback
			s.stats.Stores++
			if s.pred != nil {
				s.pred.Train(tr.PC, tr.EffAddr)
			}
		}

		// Update the scoreboard. Post-increment memory ops write their base
		// register from the AGU one cycle after issue regardless of the
		// access latency.
		for _, d := range pre.Defs[:pre.NDefs] {
			rdy := resultReady
			if pre.Flags&isa.PrePostInc != 0 && d == pre.BaseU {
				rdy = now + 1
			}
			s.regReady[d] = rdy
		}
		s.note(resultReady)
		s.stats.Insts++
		if s.sink != nil {
			var addr uint32
			if pre.IsMem() {
				addr = tr.EffAddr
			}
			s.sink.Event(obs.Event{Kind: obs.KindIssue, Cycle: now, PC: tr.PC, Addr: addr, Val: resultReady})
		}
		s.issueIdx++
		issued++
		continue

	stall:
		break
	}
	return issued, cause
}

// facEligible reports whether the access may consult the prediction
// machine at this cycle. The register-offset gate models operand
// availability in the prediction circuit, so it applies only to
// operand-based machines; a PC-indexed table predicts from the PC alone.
func (s *sim) facEligible(pre *isa.Pre, now uint64, isLoad bool) bool {
	if s.pred == nil {
		return false
	}
	if s.opBased && pre.Flags&isa.PreRegOffset != 0 && !s.cfg.SpeculateRegReg {
		return false
	}
	if !isLoad && !s.cfg.SpeculateStores {
		return false
	}
	// Accesses in the cycle after a mispredict stall to MEM — except a
	// load immediately after a misspeculated load (Section 5.5).
	if s.haveMispred && now == s.lastMispredCycle+1 {
		if !(isLoad && s.lastMispredWasLoad) {
			return false
		}
	}
	return true
}

func (s *sim) noteMispredict(now uint64, wasLoad bool) {
	s.lastMispredCycle = now
	s.lastMispredWasLoad = wasLoad
	s.haveMispred = true
}

// scheduleLoad books cache bandwidth and computes the cycle the loaded
// value becomes available. It returns ok=false when the load must stall
// this cycle for a structural hazard.
func (s *sim) scheduleLoad(tr *emu.Trace, pre *isa.Pre, now uint64) (bool, uint64) {
	noPred := false
	if s.facEligible(pre, now, true) {
		// Predict is pure, so calling it before the port check is safe: a
		// stalled load re-predicts identically next cycle (in-order issue
		// keeps the stalled head blocking, so no training intervenes).
		r := s.pred.Predict(tr.PC, tr.Base, tr.Offset, tr.IsRegOffset)
		if r.Spec {
			if !s.readFree(now) {
				return false, 0
			}
			ok, fail := resolve(r, tr.EffAddr)
			s.stats.LoadsSpeculated++
			s.useRead(now)
			if s.sink != nil {
				s.sink.Event(obs.Event{Kind: obs.KindFACPredict, Flags: valFlags(tr), Fail: fail, Cycle: now, PC: tr.PC, Addr: r.Addr, Val: uint64(tr.MemVal)})
			}
			if ok {
				ready := s.dcacheAccess(tr.EffAddr, false, now)
				return true, maxU64(ready+1, now+1)
			}
			// Misprediction: the EX-cycle access is wasted; the load replays in
			// MEM with the architectural address (replays bypass the port
			// limit but are counted).
			s.stats.LoadSpecFailed++
			s.stats.ExtraAccesses++
			fail.CountInto(&s.stats.LoadFailKinds)
			s.noteMispredict(now, true)
			s.useRead(now + 1)
			if s.sink != nil {
				s.sink.Event(obs.Event{Kind: obs.KindReplay, Cycle: now + 1, PC: tr.PC, Addr: tr.EffAddr})
			}
			ready := s.dcacheAccess(tr.EffAddr, false, now+1)
			return true, maxU64(ready+1, now+2)
		}
		// The machine declined to predict: the load proceeds down the
		// ordinary non-speculative path, counted once it schedules.
		noPred = true
	}

	accessCycle := now + uint64(s.cfg.LoadLatency-1)
	if !s.readFree(accessCycle) {
		return false, 0
	}
	if noPred {
		s.stats.LoadsNoPredict++
		if s.sink != nil {
			s.sink.Event(obs.Event{Kind: obs.KindFACPredict, Flags: obs.FlagNoPredict | valFlags(tr), Cycle: now, PC: tr.PC, Val: uint64(tr.MemVal)})
		}
	}
	s.useRead(accessCycle)
	ready := s.dcacheAccess(tr.EffAddr, false, accessCycle)
	return true, maxU64(ready+1, accessCycle+1)
}

// valFlags marks KindFACPredict events whose Val field carries the
// architectural transferred value (integer accesses; see emu.Trace).
func valFlags(tr *emu.Trace) obs.Flags {
	if tr.HasMemVal {
		return obs.FlagHasVal
	}
	return 0
}

// resolve turns a prediction into its verification outcome: algebraic
// machines carry exact failure signals (correct iff none), table machines
// are checked against the architectural effective address and charge
// their predict-time signal set only when wrong.
func resolve(r predict.Result, effAddr uint32) (bool, fac.Failure) {
	ok := r.Fail == 0
	if !r.Algebraic {
		ok = r.Addr == effAddr
	}
	if ok {
		return true, 0
	}
	return false, r.Fail
}

// scheduleStore books the store's tag probe and a store-buffer entry.
func (s *sim) scheduleStore(tr *emu.Trace, pre *isa.Pre, now uint64) bool {
	if s.sbLen >= s.cfg.StoreBufferEntries {
		// Full buffer stalls the pipeline while the oldest entry retires
		// (handled in retireStores via the forced path).
		s.stats.StoreBufferFullStalls++
		return false
	}
	noPred := false
	if s.facEligible(pre, now, false) {
		r := s.pred.Predict(tr.PC, tr.Base, tr.Offset, tr.IsRegOffset)
		if r.Spec {
			if !s.storeFree(now) {
				return false
			}
			ok, fail := resolve(r, tr.EffAddr)
			s.stats.StoresSpeculated++
			s.useStore(now)
			if s.sink != nil {
				s.sink.Event(obs.Event{Kind: obs.KindFACPredict, Flags: obs.FlagStore | valFlags(tr), Fail: fail, Cycle: now, PC: tr.PC, Addr: r.Addr, Val: uint64(tr.MemVal)})
			}
			if ok {
				s.sbPush(storeEnt{addr: tr.EffAddr, entered: now})
				return true
			}
			// Mispredicted store: re-probe next cycle with the architectural
			// address and fix up the buffered entry.
			s.stats.StoreSpecFailed++
			s.stats.ExtraAccesses++
			fail.CountInto(&s.stats.StoreFailKinds)
			s.noteMispredict(now, false)
			s.useStore(now + 1)
			if s.sink != nil {
				s.sink.Event(obs.Event{Kind: obs.KindReplay, Flags: obs.FlagStore, Cycle: now + 1, PC: tr.PC, Addr: tr.EffAddr})
			}
			s.sbPush(storeEnt{addr: tr.EffAddr, entered: now + 1})
			return true
		}
		noPred = true
	}

	probeCycle := now + 1 // MEM stage
	if !s.storeFree(probeCycle) {
		return false
	}
	if noPred {
		s.stats.StoresNoPredict++
		if s.sink != nil {
			s.sink.Event(obs.Event{Kind: obs.KindFACPredict, Flags: obs.FlagStore | obs.FlagNoPredict | valFlags(tr), Cycle: now, PC: tr.PC, Val: uint64(tr.MemVal)})
		}
	}
	s.useStore(probeCycle)
	s.sbPush(storeEnt{addr: tr.EffAddr, entered: probeCycle})
	return true
}

// retireStores drains the store buffer during cycles in which the data
// cache is otherwise unused, or forcibly when the buffer is full.
func (s *sim) retireStores(now uint64) {
	if s.sbLen == 0 {
		return
	}
	i := s.slot(now)
	idle := s.readsAt[i] == 0 && !s.storeAt[i]
	full := s.sbLen >= s.cfg.StoreBufferEntries
	if !idle && !full {
		return
	}
	if s.storeBuf[s.sbHead].entered >= now {
		return // entries need a cycle in the buffer before retiring
	}
	e := s.sbPop()
	if s.sink != nil {
		s.sink.Event(obs.Event{Kind: obs.KindStoreRetire, Flags: obs.FlagStore, Cycle: now, Addr: e.addr, Val: uint64(s.sbLen)})
	}
	ready := s.dcacheAccess(e.addr, true, now)
	s.note(ready)
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
