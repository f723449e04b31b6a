// Package metrics is the kernel's counter registry: a fixed set of
// named uint64 counters covering every hot path the paper's evaluation
// reasons about (dispatches, preemptions, semaphore blocks and grants,
// priority-inheritance events, IPC traffic, deadline misses). A Set is
// a plain array indexed by a compile-time ID, so incrementing a counter
// from a hot path costs one add and zero allocations — the same
// small-memory discipline package stats applies to its histogram.
//
// The package also defines the Diagnostics block embedded in
// emeralds.artifact/v1 JSON artifacts: the counter snapshot plus
// per-task latency summaries (p50/p95/p99 from stats.Histogram), so
// every results/ artifact carries the evidence behind its numbers.
package metrics

import (
	"fmt"

	"emeralds/internal/stats"
)

// ID names one kernel counter. The set is closed at compile time; adding
// an ID without a matching entry in names fails TestNamesExhaustive.
type ID uint8

// Kernel counters. Scheduling first, then semaphores and priority
// inheritance, then IPC, then interrupts/faults.
const (
	Dispatches      ID = iota // scheduler picked a task to run
	ContextSwitches           // dispatches that switched away from another task
	Preemptions               // running task preempted mid-segment
	SchedSelects              // Select calls answered by the policy
	Releases                  // periodic/aperiodic job releases
	Completions               // jobs retired
	DeadlineMisses            // jobs that completed late or lost their release
	Overruns                  // releases lost because the previous job was still active
	SemAcquires               // acquire_sem calls
	SemBlocks                 // acquires that found the semaphore taken
	SemGrants                 // blocked waiters handed the semaphore at release
	SavedSwitches             // context switches eliminated by the §6.2 hint scheme
	HintPIs                   // early priority inheritances at event E (§6.2)
	PIInherits                // priority-inheritance boosts applied
	PIRestores                // boosts undone at release
	PIMigrations              // §5 cross-queue holder migrations during inheritance
	MailboxSends              // messages enqueued into a mailbox
	MailboxRecvs              // messages dequeued from a mailbox
	MailboxBlocks             // sends/receives that blocked on a full/empty mailbox
	MailboxDrops              // ISR injections dropped on a full mailbox
	StateWrites               // §7 state-message writes
	StateReads                // §7 state-message reads
	Interrupts                // ISR mailbox injections (InjectMessage)
	Faults                    // application misuse surfaced by the kernel (e.g. releasing an unheld mutex)

	// Multicore counters. IDs at or above Migrations are omitted from
	// Snapshot while zero, so single-CPU artifacts stay byte-identical
	// to their pre-multicore layout.
	Migrations      // tasks moved between per-CPU schedulers
	IPIs            // inter-processor interrupts (cross-CPU reschedules)
	LockContentions // locked kernel ops that found their lock domain busy
	LockWaitNs      // total simulated ns spent spinning on busy lock domains

	// Virtual-link (MPMC queue) counters. Appended after the multicore
	// block so they share its omit-while-zero Snapshot rule: scenarios
	// without vlinks keep byte-identical artifacts.
	VLinkSends  // messages enqueued into a virtual link
	VLinkRecvs  // messages dequeued from a virtual link
	VLinkBlocks // sends/receives that blocked on a full/empty link
	VLinkDrops  // drop-mode sends refused by a full link

	// NumIDs is the number of defined counters (sentinel, not a counter).
	NumIDs
)

// names must stay in lockstep with the ID block above;
// TestNamesExhaustive locks the two together.
var names = [NumIDs]string{
	Dispatches:      "dispatches",
	ContextSwitches: "context_switches",
	Preemptions:     "preemptions",
	SchedSelects:    "sched_selects",
	Releases:        "releases",
	Completions:     "completions",
	DeadlineMisses:  "deadline_misses",
	Overruns:        "overruns",
	SemAcquires:     "sem_acquires",
	SemBlocks:       "sem_blocks",
	SemGrants:       "sem_grants",
	SavedSwitches:   "saved_switches",
	HintPIs:         "hint_pis",
	PIInherits:      "pi_inherits",
	PIRestores:      "pi_restores",
	PIMigrations:    "pi_migrations",
	MailboxSends:    "mailbox_sends",
	MailboxRecvs:    "mailbox_recvs",
	MailboxBlocks:   "mailbox_blocks",
	MailboxDrops:    "mailbox_drops",
	StateWrites:     "state_writes",
	StateReads:      "state_reads",
	Interrupts:      "interrupts",
	Faults:          "faults",
	Migrations:      "migrations",
	IPIs:            "ipis",
	LockContentions: "lock_contentions",
	LockWaitNs:      "lock_wait_ns",
	VLinkSends:      "vlink_sends",
	VLinkRecvs:      "vlink_recvs",
	VLinkBlocks:     "vlink_blocks",
	VLinkDrops:      "vlink_drops",
}

func (id ID) String() string {
	if id < NumIDs {
		return names[id]
	}
	return fmt.Sprintf("counter(%d)", uint8(id))
}

// Set is a registry instance: one value per counter. The zero value is
// ready to use, and a nil *Set discards all increments, so subsystems
// never guard their instrumentation.
type Set struct {
	c [NumIDs]uint64
}

// Inc adds one to the counter.
func (s *Set) Inc(id ID) {
	if s != nil {
		s.c[id]++
	}
}

// Add adds n to the counter.
func (s *Set) Add(id ID, n uint64) {
	if s != nil {
		s.c[id] += n
	}
}

// Get reads the counter.
func (s *Set) Get(id ID) uint64 {
	if s == nil {
		return 0
	}
	return s.c[id]
}

// Merge folds other into s (used to sum counters across harness jobs).
func (s *Set) Merge(other *Set) {
	if other == nil {
		return
	}
	for i := range s.c {
		s.c[i] += other.c[i]
	}
}

// Snapshot returns the counters by name. The map always holds the full
// pre-multicore key set so artifact consumers can rely on the block
// being present; the multicore counters (Migrations and above) appear
// only when non-zero, so single-CPU artifacts keep their original byte
// layout. encoding/json orders the keys lexically, keeping artifacts
// byte-stable.
func (s *Set) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, NumIDs)
	for id := ID(0); id < NumIDs; id++ {
		if id >= Migrations && s.Get(id) == 0 {
			continue
		}
		out[names[id]] = s.Get(id)
	}
	return out
}

// MergeShards folds per-CPU counter shards into one Set, in shard-index
// order. Counter sums are commutative, so the result is independent of
// worker count and GOMAXPROCS by construction; fixing the order anyway
// makes the determinism testable and keeps any future non-commutative
// aggregate honest. Nil shards are skipped.
func MergeShards(shards []*Set) *Set {
	out := &Set{}
	for _, sh := range shards {
		out.Merge(sh)
	}
	return out
}

// TaskSummary is the per-task latency digest embedded in artifacts:
// tail quantiles of one stats.Histogram, in the paper's reporting unit
// (microseconds).
type TaskSummary struct {
	Task   string  `json:"task"`
	Metric string  `json:"metric"` // "response" or "blocking"
	N      uint64  `json:"n"`
	MinUs  float64 `json:"min_us"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P95Us  float64 `json:"p95_us"`
	P99Us  float64 `json:"p99_us"`
	MaxUs  float64 `json:"max_us"`
}

// Summarize digests a histogram into a TaskSummary.
func Summarize(task, metric string, h *stats.Histogram) TaskSummary {
	return TaskSummary{
		Task:   task,
		Metric: metric,
		N:      h.Count(),
		MinUs:  h.Min().Micros(),
		MeanUs: h.Mean().Micros(),
		P50Us:  h.Quantile(0.5).Micros(),
		P95Us:  h.Quantile(0.95).Micros(),
		P99Us:  h.Quantile(0.99).Micros(),
		MaxUs:  h.Max().Micros(),
	}
}

// Diagnostics is the observability block of an artifact: the kernel
// counter snapshot plus per-task latency summaries. Both parts are
// deterministic functions of the experiment configuration.
type Diagnostics struct {
	Counters map[string]uint64 `json:"counters"`
	Tasks    []TaskSummary     `json:"tasks,omitempty"`
	// TraceDropped counts trace events overwritten by the bounded ring
	// during the run. Non-zero means any trace-derived view (Perfetto,
	// gantt, attribution) is truncated; consumers must say so loudly.
	TraceDropped uint64 `json:"trace_dropped,omitempty"`
}

// Merge folds other into d: counters are summed, task summaries
// appended. Task names are expected to be disjoint between the two
// (callers qualify them per scenario); summaries are digests, so equal
// names cannot be re-merged and are kept as separate entries.
func (d *Diagnostics) Merge(other *Diagnostics) {
	if other == nil {
		return
	}
	if d.Counters == nil {
		d.Counters = map[string]uint64{}
	}
	for name, v := range other.Counters {
		d.Counters[name] += v
	}
	d.Tasks = append(d.Tasks, other.Tasks...)
	d.TraceDropped += other.TraceDropped
}
