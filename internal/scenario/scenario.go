// Package scenario is the deterministic scenario generator and
// property-based campaign runner behind cmd/emfuzz. A Scenario is a
// fully serializable description of one system build — policy,
// semaphore scheme, CPU count, kernel objects, task set, aperiodic
// arrivals — generated reproducibly from (base seed, index) via
// workload.SeedFor. Run builds the system, simulates the horizon, and
// checks five oracles against the trace:
//
//	(a) analysis-feasible ⇒ zero deadline misses (differential oracle,
//	    applied only to analysis-clean scenarios: zero cost profile,
//	    pure-compute periodic tasks, no declared-WCET overruns);
//	(b) latency attribution partitions every activation with zero
//	    residual;
//	(c) no priority-inversion window outside the blocking chain
//	    (applied to single-CPU, mutex-only scenarios whose critical
//	    sections are pure compute — the shape §6's place-holder
//	    inheritance bounds);
//	(d) kernel quiescent-state invariants (no lost wakeups, no leaked
//	    locks, no counter skew, no negative charges), surfaced as
//	    findings rather than panics;
//	(e) observed mailbox/vlink communication is synchronizable
//	    (crown-free, internal/ipc/syncheck) with every receive
//	    FIFO-matched to an earlier send — sound because every generated
//	    topology is a DAG.
//
// Violations are auto-minimized (minimize.go) into self-contained
// repros; the committed corpus under testdata/ replays as regression
// tests.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"

	"emeralds/internal/costmodel"
	"emeralds/internal/kernel"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

// Task is one task of a scenario: the kernel spec plus, for aperiodic
// tasks (Period 0), the explicit arrival instants of its jobs.
type Task struct {
	Spec     task.Spec    `json:"spec"`
	Arrivals []vtime.Time `json:"arrivals,omitempty"`
}

// VLinkSpec declares one MPMC virtual link: its capacity and full-queue
// policy (drop-with-counter instead of blocking the producer).
type VLinkSpec struct {
	Cap  int  `json:"cap"`
	Drop bool `json:"drop,omitempty"`
}

// Scenario is a self-contained, JSON-serializable system description.
// Semaphore ids are assigned in declaration order — mutexes 0..Mutexes-1,
// then one counting semaphore per Counting entry — and mailbox ids
// 0..len(Mailboxes)-1 and vlink ids 0..len(VLinks)-1, matching the
// kernel's creation-order ids, so task programs can reference objects
// by the same small integers.
type Scenario struct {
	Name      string         `json:"name"` // generator archetype
	Seed      int64          `json:"seed"`
	Index     int            `json:"index"`
	Policy    string         `json:"policy"`    // a sim.Policy* name
	StdSem    bool           `json:"std_sem"`   // §6.1 standard scheme instead of §6.2 optimized
	CPUs      int            `json:"cpus"`      // 0 or 1 = single-CPU
	Lock      string         `json:"lock"`      // lock regime on multicore builds
	ZeroCost  bool           `json:"zero_cost"` // costmodel.Zero() instead of M68040
	Horizon   vtime.Duration `json:"horizon"`
	Mutexes   int            `json:"mutexes"`
	Counting  []int          `json:"counting,omitempty"`  // initial counts
	Mailboxes []int          `json:"mailboxes,omitempty"` // capacities
	VLinks    []VLinkSpec    `json:"vlinks,omitempty"`    // MPMC virtual links
	Tasks     []Task         `json:"tasks"`
}

// NumSems is the total semaphore count (mutexes then counting).
func (s *Scenario) NumSems() int { return s.Mutexes + len(s.Counting) }

// AnalysisClean reports whether the differential oracle (a) is sound
// for this scenario: the schedulability analyses are exact only under
// the zero cost profile, for purely periodic pure-compute task sets
// whose declared WCETs are honest (see the cross-validation notes in
// internal/experiments). Everything else still gets oracles (b)–(d).
func (s *Scenario) AnalysisClean() bool {
	if !s.ZeroCost {
		return false
	}
	for _, t := range s.Tasks {
		if t.Spec.Period == 0 || t.Spec.Prog != nil {
			return false
		}
	}
	return true
}

// InversionClean reports whether oracle (c) applies: single CPU, no
// counting semaphores, and every critical section is pure compute. A
// holder that blocks mid-section (mailbox, delay, event) legitimately
// lets lower-priority tasks run while a victim waits, and a counting
// semaphore has no owner for the blocking chain — both would
// false-positive the inversion detector.
func (s *Scenario) InversionClean() bool {
	if s.CPUs > 1 || len(s.Counting) > 0 {
		return false
	}
	for _, t := range s.Tasks {
		depth := 0
		for _, op := range t.Spec.Prog {
			switch op.Kind {
			case task.OpAcquire:
				depth++
			case task.OpRelease:
				if depth > 0 {
					depth--
				}
			case task.OpCompute:
			default:
				if depth > 0 {
					return false
				}
			}
		}
	}
	return true
}

// TraceCapacity bounds the trace ring for the scenario's horizon with
// ample margin, so attribution — which refuses truncated traces — never
// sees a dropped event on a campaign run. The margin costs no memory:
// the ring grows only as far as the run records.
func (s *Scenario) TraceCapacity() int {
	events := 64 // boot task-info lines and slack
	for _, t := range s.Tasks {
		perJob := 2*len(t.Spec.Prog) + 8 + batchExtra(t.Spec.Prog)
		if t.Spec.Period > 0 {
			jobs := int(s.Horizon/t.Spec.Period) + 2
			events += jobs * perJob
		} else {
			events += (len(t.Arrivals) + 1) * perJob
		}
	}
	return 2 * events
}

// batchExtra counts the trace events a program emits beyond the usual
// ~2 per op: a batched vlink send traces one event per message.
func batchExtra(p task.Program) int {
	extra := 0
	for _, op := range p {
		if op.Kind == task.OpVSend {
			extra += op.Batch() - 1
		}
	}
	return extra
}

// Profile returns the scenario's cost model.
func (s *Scenario) Profile() *costmodel.Profile {
	if s.ZeroCost {
		return costmodel.Zero()
	}
	return costmodel.M68040()
}

// Build assembles the system (not yet booted): kernel objects in id
// order, then tasks. It returns the node plus the aperiodic threads
// aligned with the scenario's task indices (nil entries for periodic
// tasks), so Run can schedule their arrivals.
func Build(s *Scenario) (*kernel.Node, []*kernel.Thread, error) {
	cfg := sim.Config{
		Policy:        s.Policy,
		StandardSem:   s.StdSem,
		Profile:       s.Profile(),
		TraceCapacity: s.TraceCapacity(),
		Name:          fmt.Sprintf("fuzz-%d", s.Index),
	}
	if s.CPUs > 1 {
		cfg.CPUs = s.CPUs
		if _, err := kernel.ParseLockRegime(s.Lock); err != nil {
			return nil, nil, err
		}
		cfg.Lock = s.Lock
	}
	sys := kernel.NewNode(cfg)
	for i := 0; i < s.Mutexes; i++ {
		sys.NewSemaphore(fmt.Sprintf("m%d", i))
	}
	for i, n := range s.Counting {
		sys.NewCountingSemaphore(fmt.Sprintf("c%d", i), n)
	}
	for i, cap := range s.Mailboxes {
		sys.NewMailbox(fmt.Sprintf("mb%d", i), cap)
	}
	for i, v := range s.VLinks {
		sys.NewVLink(fmt.Sprintf("vl%d", i), v.Cap, v.Drop)
	}
	aper := make([]*kernel.Thread, len(s.Tasks))
	for i, t := range s.Tasks {
		th := sys.AddTask(t.Spec)
		if t.Spec.Period == 0 {
			aper[i] = th
		}
	}
	return sys, aper, nil
}

// WriteRepro serializes the scenario as an indented JSON repro file.
func WriteRepro(s *Scenario, path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadRepro loads a repro written by WriteRepro.
func ReadRepro(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := decodeRepro(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: parse %s: %w", path, err)
	}
	return s, nil
}

// decodeRepro parses a repro. An empty list in a member that is left
// out when empty (counting, mailboxes, vlinks, a task's arrivals)
// decodes to nil, as the member left out reads back, so every repro
// survives a write and a read unchanged. An op kind that names no op
// is refused here, before the kernel would panic on it.
func decodeRepro(data []byte) (*Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	s.Counting = nilIfEmpty(s.Counting)
	s.Mailboxes = nilIfEmpty(s.Mailboxes)
	s.VLinks = nilIfEmpty(s.VLinks)
	for i := range s.Tasks {
		s.Tasks[i].Arrivals = nilIfEmpty(s.Tasks[i].Arrivals)
		for j, op := range s.Tasks[i].Spec.Prog {
			if !op.Kind.Valid() {
				return nil, fmt.Errorf("task %d op %d: unknown op kind %d", i, j, op.Kind)
			}
		}
	}
	return &s, nil
}

func nilIfEmpty[T any](xs []T) []T {
	if len(xs) == 0 {
		return nil
	}
	return xs
}
