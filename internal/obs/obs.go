// Package obs is the observability layer of the timing simulator: a
// pluggable event stream emitted by the pipeline and the caches, the
// histogram and stall-cause accounting types aggregated into pipeline
// statistics, and the canonical machine-readable RunRecord export every
// experiment and benchmark artifact is built from.
//
// The event stream costs nothing when disabled: all emission sites are
// guarded by a nil check on the sink, and an Event is a small value type
// that never escapes when no sink is attached. Consumers implement Sink
// and attach it via pipeline.RunCtx / core.RunCtx; the
// simulator calls Event synchronously, in simulation order, so a sink
// observes a deterministic sequence for a deterministic run.
package obs

import "repro/internal/fac"

// Kind discriminates pipeline and cache events.
type Kind uint8

const (
	// KindFetch: a fetch group left the I-fetch stage. PC is the group's
	// first instruction, Val the number of instructions fetched, Cycle the
	// fetch cycle.
	KindFetch Kind = iota
	// KindIssue: one instruction issued. PC identifies the instruction,
	// Addr is the effective address for memory operations (0 otherwise),
	// Val the cycle its result becomes available.
	KindIssue
	// KindFACPredict: a load or store accessed the cache speculatively
	// under address prediction (fast address calculation or any
	// internal/predict machine). Addr is the predicted address, Fail the
	// resolved failure signals (0 = prediction held), FlagStore
	// distinguishes stores. With FlagNoPredict the machine declined to
	// predict and no speculative access was made (Addr 0, Fail 0).
	KindFACPredict
	// KindReplay: a mispredicted speculative access replayed in MEM with
	// the architectural address (Addr). Cycle is the replay cycle.
	KindReplay
	// KindCacheAccess: a cache serviced an access. Addr is the target,
	// Val the cycle the data is ready; flags carry write/hit/delayed-hit/
	// MSHR-full. A delayed hit is an MSHR merge: the access hit a block
	// still being filled by an outstanding miss.
	KindCacheAccess
	// KindStoreRetire: the store buffer retired its oldest entry to the
	// cache. Addr is the store address, Val the retire cycle.
	KindStoreRetire
	// KindStall: a cycle in which no instruction issued. Cause carries
	// the attributed stall category.
	KindStall

	NumKinds
)

var kindNames = [NumKinds]string{
	"fetch", "issue", "fac_predict", "replay", "cache_access", "store_retire", "stall",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Flags qualify an event.
type Flags uint8

const (
	FlagStore      Flags = 1 << iota // the access is a store / write
	FlagHit                          // cache access hit a resident block
	FlagDelayedHit                   // cache access merged into an in-flight fill
	FlagMSHRFull                     // cache access bounced off a full MSHR file
	// FlagNoPredict marks a KindFACPredict event for an eligible access
	// the active prediction machine declined to predict (cold table entry,
	// tag conflict, statically proven-failing site): the access proceeded
	// non-speculatively. Addr is 0 and Fail empty — no cache access was
	// made with a guessed address.
	FlagNoPredict
	// FlagHasVal marks a KindFACPredict event whose Val field carries the
	// architectural register-visible value the access transferred (loads:
	// the value written to the destination; stores: the stored register).
	// Set for integer accesses only; the difftest value-soundness oracle
	// aggregates these against the static analysis' per-site cell claims.
	FlagHasVal
)

// StallCause attributes a no-issue cycle to the hazard blocking the head
// of the issue queue. Exactly one cause is charged per stalled cycle, so
// the per-cause counters sum to the total number of stall cycles.
type StallCause uint8

const (
	// StallFrontend: the issue queue is empty or its head has not cleared
	// decode — the frontend (I-cache miss, BTB redirect, fetch latency)
	// is not delivering.
	StallFrontend StallCause = iota
	// StallOperand: the head instruction waits on a source register
	// (load-use or long-latency dependence).
	StallOperand
	// StallUnit: a non-memory functional unit is busy (ALU bank full,
	// multiplier/divider issue interval).
	StallUnit
	// StallMemPort: the data-cache port or AGU limit blocks a memory
	// operation this cycle.
	StallMemPort
	// StallStoreBuffer: the store buffer is full; the store at the head
	// waits for the oldest entry to retire.
	StallStoreBuffer
	// StallDrain: the program has finished issuing; remaining cycles
	// drain the store buffer.
	StallDrain

	NumStallCauses
)

var stallNames = [NumStallCauses]string{
	"frontend", "operand", "unit", "mem_port", "store_buffer", "drain",
}

func (c StallCause) String() string {
	if int(c) < len(stallNames) {
		return stallNames[c]
	}
	return "unknown"
}

// Event is one observation. Fields beyond Kind and Cycle are
// kind-specific; see the Kind constants.
type Event struct {
	Kind  Kind
	Flags Flags
	Cause StallCause  // KindStall only
	Fail  fac.Failure // KindFACPredict only
	Cycle uint64
	PC    uint32
	Addr  uint32
	Val   uint64
}

// Sink receives the event stream. Implementations must not retain the
// Event past the call. Calls arrive synchronously from the simulation
// loop; an expensive sink slows the simulation but cannot perturb it.
type Sink interface {
	Event(e Event)
}

// HistBuckets is the number of linear histogram buckets; the last bucket
// absorbs all larger samples.
const HistBuckets = 32

// Hist is a fixed-size linear histogram of small non-negative integer
// samples (latencies in cycles, MSHR occupancies). Bucket i counts
// samples of value i; the final bucket counts samples >= HistBuckets-1.
type Hist struct {
	Buckets [HistBuckets]uint64 `json:"buckets"`
	Count   uint64              `json:"count"`
	Sum     uint64              `json:"sum"`
	Max     uint64              `json:"max"`
}

// Add records one sample.
func (h *Hist) Add(v uint64) {
	i := v
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	h.Buckets[i]++
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
}

// Mean returns the average sample value.
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}
