package sim

import "emeralds/internal/costmodel"

// Canonical scheduler policy names, shared by Config.Policy, the cmd
// flag surfaces, and scenario repro files.
const (
	PolicyCSD    = "csd" // combined static/dynamic (§5, the default)
	PolicyEDF    = "edf"
	PolicyRM     = "rm"
	PolicyRMHeap = "rm-heap"
	PolicyFP     = "fp" // fixed-priority on the O(1) bitmap run queue
)

// Config is the one description of a bootable EMERALDS node: policy,
// cost model, semaphore scheme, CPU topology, and the observability
// attachments (trace ring, response histograms). It is pure data — no
// scheduler instances, no kernel handles — so every tool, scenario
// file, and experiment can build systems through the same path:
// kernel.NewNode(cfg) / kernel.Boot(cfg, setup).
//
// The zero value is the paper's recommended build: CSD-3 with the
// optimized §6.2 semaphore scheme on the 68040 cost profile,
// single-CPU, no tracing.
type Config struct {
	// Policy selects the scheduler by name (PolicyCSD, PolicyEDF,
	// PolicyRM, PolicyRMHeap, PolicyFP); "" means PolicyCSD.
	Policy string
	// Queues is the CSD queue count x (default 3, the paper's sweet
	// spot: "CSD-3 delivers consistently good performance over a wide
	// range of task workload characteristics").
	Queues int
	// DPSizes fixes the CSD partition's dynamic-priority queue sizes;
	// nil runs the §5.5.3 off-line search at Boot.
	DPSizes []int
	// Profile is the cost model; nil = costmodel.M68040().
	Profile *costmodel.Profile

	// StandardSem selects the §6.1 standard semaphore implementation
	// instead of the §6.2 optimized scheme (for comparisons).
	StandardSem bool
	// DisableHints ablates the §6.2 hint mechanism while keeping the
	// place-holder PI; only meaningful with the optimized scheme.
	DisableHints bool
	// DisablePlaceholder ablates the O(1) place-holder priority
	// inheritance while keeping the hint mechanism.
	DisablePlaceholder bool
	// NoParser skips the §6.2.1 hint-insertion pass over task programs
	// (experiments that place hints by hand set this).
	NoParser bool
	// DeadlineMonotonic assigns fixed priorities by relative deadline
	// instead of period.
	DeadlineMonotonic bool

	// CPUs is the number of processors; 0 and 1 both build the classic
	// single-CPU system. On a multicore build tasks are partitioned
	// across CPUs at Boot (honoring task.Spec.Affinity) and each CPU
	// runs its own instance of the selected policy.
	CPUs int
	// Lock names the simulated kernel-lock granularity charged on a
	// multicore build: "percpu" (default), "perqueue", or "biglock";
	// ignored when CPUs ≤ 1.
	Lock string

	// RAMBudget bounds the kernel's accounted dynamic memory in bytes
	// (§2's 32–128 KB on-chip constraint); 0 = unlimited.
	RAMBudget int
	// RecordResponses keeps per-task latency histograms; Report then
	// shows p50/p95/p99 alongside avg/max.
	RecordResponses bool
	// TraceCapacity > 0 enables execution tracing, retaining at most
	// that many of the most recent events. It is a bound, not an
	// up-front allocation: the ring grows with the events recorded.
	TraceCapacity int

	// Engine shares a discrete-event engine across nodes; nil creates
	// a private one.
	Engine *Engine
	// Name labels the node.
	Name string
}
