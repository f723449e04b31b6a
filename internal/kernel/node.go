package kernel

import (
	"fmt"
	"sort"
	"strings"

	"emeralds/internal/analysis"
	"emeralds/internal/mem"
	"emeralds/internal/parser"
	"emeralds/internal/sched"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/trace"
	"emeralds/internal/vtime"
)

// Node is a bootable EMERALDS system assembled from one sim.Config:
// the kernel, its trace ring, the scheduler instances (one per CPU),
// and the §5.5.3 CSD partition search. It is the only construction
// path: every cmd, scenario, experiment and test builds systems
// through NewNode or the one-shot Boot.
//
// Typical use:
//
//	n := kernel.NewNode(sim.Config{})         // CSD-3, optimized sems
//	sem := n.NewSemaphore("obj")
//	n.AddTask(task.Spec{Period: ..., Prog: ...})
//	if err := n.Boot(); err != nil { ... }
//	n.Run(2 * vtime.Second)
//	fmt.Println(n.Report())
type Node struct {
	cfg      sim.Config
	kern     *Kernel
	part     sched.Partition
	override []sched.Scheduler
}

// NewNode assembles a node from cfg. Configuration errors (an unknown
// lock regime, an invalid CPU count) panic: by the time a config
// reaches NewNode the flag layer has validated it, so a bad value is a
// programmer error. Tasks and kernel objects are added before Boot.
func NewNode(cfg sim.Config) *Node {
	if cfg.Policy == "" {
		cfg.Policy = sim.PolicyCSD
	}
	if cfg.Queues <= 1 {
		cfg.Queues = 3
	}
	return &Node{cfg: cfg, kern: newKernel(cfg)}
}

// Boot is the one-shot builder: assemble a node from cfg, run setup
// (object and task creation; may be nil), and boot it.
func Boot(cfg sim.Config, setup func(*Node) error) (*Node, error) {
	n := NewNode(cfg)
	if setup != nil {
		if err := setup(n); err != nil {
			return nil, err
		}
	}
	if err := n.Boot(); err != nil {
		return nil, err
	}
	return n, nil
}

// Kernel exposes the underlying kernel for advanced wiring (interrupt
// entry points, devices, bus ports) and direct object access.
func (n *Node) Kernel() *Kernel { return n.kern }

// Config returns the configuration the node was built from (with
// defaults resolved).
func (n *Node) Config() sim.Config { return n.cfg }

// OverrideScheduler installs caller-built policy instances in place of
// the Policy-name selection at Boot — the escape hatch for the one
// ablation whose tweak has no config field (CSD with ready counters
// disabled). Pass exactly one instance per CPU: one for a single-CPU
// node, CPUs instances for a multicore one.
func (n *Node) OverrideScheduler(ss ...sched.Scheduler) { n.override = ss }

// AddTask admits a periodic task (aperiodic when Period is 0), running
// the §6.2.1 parser over its program. Kernel.AddTask admits a program
// as written, for hints placed by hand.
func (n *Node) AddTask(spec task.Spec) *Thread {
	if spec.Prog != nil {
		spec.Prog = parser.InsertHints(spec.Prog)
	}
	return n.kern.AddTask(spec)
}

// Convenience delegates for kernel object creation.

// NewSemaphore creates a mutex with priority inheritance.
func (n *Node) NewSemaphore(name string) int { return n.kern.NewSemaphore(name) }

// NewCountingSemaphore creates a counting semaphore.
func (n *Node) NewCountingSemaphore(name string, count int) int {
	return n.kern.NewCountingSemaphore(name, count)
}

// NewEvent creates an event object.
func (n *Node) NewEvent(name string) int { return n.kern.NewEvent(name) }

// NewCondVar creates a condition variable.
func (n *Node) NewCondVar(name string) int { return n.kern.NewCondVar(name) }

// NewMailbox creates a mailbox.
func (n *Node) NewMailbox(name string, capacity int) int {
	return n.kern.NewMailbox(name, capacity)
}

// NewVLink creates an MPMC virtual link.
func (n *Node) NewVLink(name string, capacity int, drop bool) int {
	return n.kern.NewVLink(name, capacity, drop)
}

// NewStateMessage creates a §7 state message.
func (n *Node) NewStateMessage(name string, depth, size int) int {
	return n.kern.NewStateMessage(name, depth, size)
}

// Boot places the tasks on the CPUs once (sched.AssignCPUs, which
// honors Spec.Affinity), builds one scheduler instance per CPU from the
// policy name — for CSD over the §5.5.3 partition search on that CPU's
// periodic tasks — and boots the kernel at virtual time zero with that
// placement. A single-CPU node is the M = 1 case of the same path.
// Instances installed by OverrideScheduler replace the policy switch.
func (n *Node) Boot() error {
	k := n.kern
	// Refused before the placement, which would re-stamp every TCB.CPU
	// of a running system.
	if k.booted {
		return errBooted
	}
	m := k.NumCPUs()
	if len(n.override) > 0 && len(n.override) != m {
		return fmt.Errorf("kernel: %d scheduler overrides for %d CPUs", len(n.override), m)
	}
	tcbs := make([]*task.TCB, len(k.threads))
	for i, th := range k.threads {
		tcbs[i] = th.TCB
	}
	perCPU := sched.AssignCPUs(tcbs, m)
	ss := n.override
	if len(ss) == 0 {
		ss = make([]sched.Scheduler, m)
		for i := range ss {
			switch n.cfg.Policy {
			case sim.PolicyEDF:
				ss[i] = sched.NewEDF(k.prof)
			case sim.PolicyRM:
				ss[i] = sched.NewRM(k.prof)
			case sim.PolicyRMHeap:
				ss[i] = sched.NewRMHeap(k.prof)
			case sim.PolicyFP:
				ss[i] = sched.NewFP(k.prof)
			case sim.PolicyCSD:
				part := n.choosePartition(perCPU[i])
				if i == 0 {
					n.part = part
				}
				ss[i] = sched.NewCSD(k.prof, part)
			default:
				return fmt.Errorf("kernel: unknown policy %q", n.cfg.Policy)
			}
		}
	}
	return k.boot(ss, perCPU)
}

// choosePartition picks the CSD partition for one CPU's share of the
// task set: Config.DPSizes when fixed, else the §5.5.3 search over its
// periodic tasks.
func (n *Node) choosePartition(tasks []*task.TCB) sched.Partition {
	if n.cfg.DPSizes != nil {
		return sched.Partition{DPSizes: n.cfg.DPSizes}
	}
	var specs []task.Spec
	for _, t := range tasks {
		if t.Spec.Period > 0 {
			specs = append(specs, t.Spec)
		}
	}
	if len(specs) == 0 {
		return sched.Partition{DPSizes: make([]int, n.cfg.Queues-1)}
	}
	rmSorted := analysis.SortRM(specs)
	if part, _, ok := analysis.BestPartition(n.kern.prof, rmSorted, n.cfg.Queues); ok {
		return part
	}
	// No partition passes the schedulability test (overload): degrade
	// to the all-DP split, which behaves like EDF — the best a
	// dynamic-priority scheduler can do under overload.
	sizes := make([]int, n.cfg.Queues-1)
	sizes[0] = len(specs)
	return sched.Partition{DPSizes: sizes}
}

// Partition reports the CSD partition chosen at Boot.
func (n *Node) Partition() sched.Partition { return n.part }

// Run advances virtual time by d.
func (n *Node) Run(d vtime.Duration) { n.kern.Run(d) }

// Now reports the current virtual time.
func (n *Node) Now() vtime.Time { return n.kern.Now() }

// Stats returns kernel-wide accounting.
func (n *Node) Stats() Stats { return n.kern.Stats() }

// Trace returns the trace log (nil when disabled).
func (n *Node) Trace() *trace.Log { return n.kern.tr }

// Report renders a per-task and system summary.
func (n *Node) Report() string {
	var b strings.Builder
	ths := append([]*Thread(nil), n.kern.Threads()...)
	sort.Slice(ths, func(i, j int) bool { return ths[i].TCB.BasePrio < ths[j].TCB.BasePrio })
	fmt.Fprintf(&b, "%s @ %v  scheduler=%s", n.kern.Name(), n.kern.Now(), n.kern.Scheduler().Name())
	if n.cfg.Policy == sim.PolicyCSD {
		fmt.Fprintf(&b, " partition=%v", n.part.DPSizes)
	}
	if m := n.kern.NumCPUs(); m > 1 {
		fmt.Fprintf(&b, " cpus=%d lock=%s", m, n.kern.LockRegimeInEffect())
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "  %-12s %10s %8s %6s %6s %7s %12s %12s\n",
		"task", "period", "jobs", "done", "miss", "preempt", "avg-resp", "max-resp")
	for _, th := range ths {
		t := th.TCB
		fmt.Fprintf(&b, "  %-12s %10v %8d %6d %6d %7d %12v %12v\n",
			t.Name, t.Spec.Period, t.Releases, t.Completions, t.Misses, t.Preemptions,
			t.AvgResp(), t.MaxResp)
		if h := th.Responses(); h != nil && h.Count() > 0 {
			fmt.Fprintf(&b, "  %-12s   response %s  %s\n", "", h.Summary(), h.Sparkline(24))
		}
	}
	st := n.kern.Stats()
	fmt.Fprintf(&b, "  switches=%d saved=%d preempt=%d misses=%d overhead=%v useful=%v\n",
		st.ContextSwitches, st.SavedSwitches, st.Preemptions, st.Misses,
		st.TotalOverhead(), st.UsefulCompute)
	fmt.Fprintf(&b, "  kernel code %d bytes (budget %d); RAM %d bytes\n",
		mem.PaperKernelSize, mem.KernelBudget, n.kern.RAM().Used())
	return b.String()
}
