package experiments

import (
	"fmt"
	"strings"

	"emeralds/internal/harness"
	"emeralds/internal/kernel"
	"emeralds/internal/metrics"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

// This file regenerates the §7 comparison (reconstructed; see
// DESIGN.md): per-message kernel overhead of state-message IPC versus
// mailbox IPC — and, since PR 10, versus a batched MPMC virtual link —
// for periodic producer/consumer communication, across payload sizes
// and reader counts.
//
// The scenario is the paper's motivating pattern: one producer task
// publishes a periodic state update (a sensor reading) and R consumer
// tasks each want the freshest value. With state messages the producer
// performs one wait-free write and each consumer one wait-free read —
// no system call, no blocking, no scheduler interaction. With
// mailboxes the producer sends one copy per consumer and each consumer
// blocks on an empty mailbox, so every delivery drags in system calls,
// wait-queue manipulation and context switches. A virtual link sits in
// between: the producer batch-enqueues R messages in one wait-free ring
// operation (the fixed cost is paid once per batch, not per message)
// and each consumer dequeues one — the kernel is entered only to sleep
// on an empty link and to wake sleepers.
//
// The metric is (total kernel overhead − overhead of the identical
// task structure with the IPC ops stripped) / messages delivered,
// which isolates the IPC mechanism itself including the scheduling it
// induces.

// IPCPoint is one comparison measurement. Durations marshal as µs.
type IPCPoint struct {
	Size    int `json:"size"`
	Readers int `json:"readers"`

	StatePerMsg   vtime.Duration `json:"state_us_per_msg"`
	MailboxPerMsg vtime.Duration `json:"mailbox_us_per_msg"`
	VLinkPerMsg   vtime.Duration `json:"vlink_us_per_msg"`

	StateSwitchesPerMsg   float64 `json:"state_cs_per_msg"`
	MailboxSwitchesPerMsg float64 `json:"mailbox_cs_per_msg"`
	VLinkSwitchesPerMsg   float64 `json:"vlink_cs_per_msg"`
}

// SpeedupX reports how many times cheaper state messages are.
func (p IPCPoint) SpeedupX() float64 {
	if p.StatePerMsg == 0 {
		return 0
	}
	return float64(p.MailboxPerMsg) / float64(p.StatePerMsg)
}

// IPCComparisonDiag sweeps payload sizes and reader counts, one
// harness job per (readers, size) grid point; each job runs its four
// deterministic scenarios (state, mailbox, vlink, baseline) back to
// back. It also returns the merged diagnostics block: kernel counters
// summed over every scenario kernel of every job, and per-task response
// histograms folded across jobs in job order, so the block is identical
// for any worker count. Task names are qualified by scenario
// ("state/producer", "mailbox/consumer0") since the same task runs
// under each IPC mechanism; the baseline adds its counters only.
func IPCComparisonDiag(sizes, readers []int, par Par) ([]IPCPoint, *metrics.Diagnostics) {
	c := diagCollector{hist: (*kernel.Thread).Responses, metric: "response"}
	jobs := parRun(par, "ipc", len(readers)*len(sizes),
		func(j harness.Job) (diagJob[IPCPoint], error) {
			r := readers[j.Index/len(sizes)]
			sz := sizes[j.Index%len(sizes)]
			var out diagJob[IPCPoint]
			so, ss, sk := ipcScenario("state", sz, r)
			c.add(&out.diagShare, "state", sk)
			mo, ms, mk := ipcScenario("mailbox", sz, r)
			c.add(&out.diagShare, "mailbox", mk)
			vo, vs, vk := ipcScenario("vlink", sz, r)
			c.add(&out.diagShare, "vlink", vk)
			bo, bs, bk := ipcScenario("none", sz, r)
			out.met.Merge(bk.Metrics())
			msgs := ipcMessages(r)
			out.val = IPCPoint{
				Size:                  sz,
				Readers:               r,
				StatePerMsg:           (so - bo) / vtime.Duration(msgs),
				MailboxPerMsg:         (mo - bo) / vtime.Duration(msgs),
				VLinkPerMsg:           (vo - bo) / vtime.Duration(msgs),
				StateSwitchesPerMsg:   (ss - bs) / float64(msgs),
				MailboxSwitchesPerMsg: (ms - bs) / float64(msgs),
				VLinkSwitchesPerMsg:   (vs - bs) / float64(msgs),
			}
			return out, nil
		})
	return fold(c, jobs)
}

const (
	ipcHorizon        = 1 * vtime.Second
	ipcProducerPeriod = 5 * vtime.Millisecond
)

// ipcMessages is the number of deliveries in one run: one per consumer
// per producer period.
func ipcMessages(readers int) int64 {
	return int64(ipcHorizon/ipcProducerPeriod) * int64(readers)
}

// ipcScenario runs one configuration and returns total kernel
// overhead, context-switch count, and the kernel itself (for counter
// and histogram harvesting).
func ipcScenario(mode string, size, readers int) (vtime.Duration, float64, *kernel.Kernel) {
	n := kernel.NewNode(sim.Config{
		Profile:         m68040,
		Policy:          sim.PolicyRM,
		RecordResponses: true,
	})
	k := n.Kernel()

	var stateID, vlID int
	mboxes := make([]int, readers)
	switch mode {
	case "state":
		stateID = k.NewStateMessage("sample", 3, size)
	case "mailbox":
		for i := range mboxes {
			mboxes[i] = k.NewMailbox(fmt.Sprintf("mb%d", i), 2)
		}
	case "vlink":
		// One shared MPMC link, sized for a full batch plus slack so the
		// producer never blocks in the steady state.
		vlID = k.NewVLink("vl", 2*readers, false)
	}

	// Producer: offset half a period so consumers are already waiting —
	// under mailboxes each consumer blocks on its empty mailbox and the
	// producer's send wakes it, the pattern whose switches state
	// messages are designed to avoid.
	prodProg := task.Program{task.Compute(200 * vtime.Microsecond)}
	switch mode {
	case "state":
		prodProg = append(prodProg, task.StateWrite(stateID, 42, size))
	case "mailbox":
		for i := range mboxes {
			prodProg = append(prodProg, task.Send(mboxes[i], 42, size))
		}
	case "vlink":
		prodProg = append(prodProg, task.VSend(vlID, 42, size, readers))
	}
	k.AddTask(task.Spec{
		Name:   "producer",
		Period: ipcProducerPeriod,
		Phase:  ipcProducerPeriod / 2,
		Prog:   prodProg,
	})

	// Consumers: same rate, released first.
	for i := 0; i < readers; i++ {
		prog := task.Program{task.Compute(100 * vtime.Microsecond)}
		switch mode {
		case "state":
			prog = append(prog, task.StateRead(stateID))
		case "mailbox":
			prog = append(prog, task.Recv(mboxes[i]))
		case "vlink":
			prog = append(prog, task.VRecv(vlID))
		}
		k.AddTask(task.Spec{
			Name:   fmt.Sprintf("consumer%d", i),
			Period: ipcProducerPeriod,
			Phase:  vtime.Duration(i) * 10 * vtime.Microsecond,
			Prog:   prog,
		})
	}

	if err := n.Boot(); err != nil {
		panic(err)
	}
	n.Run(ipcHorizon)
	st := k.Stats()
	return st.TotalOverhead(), float64(st.ContextSwitches), k
}

// RenderIPC prints the comparison.
func RenderIPC(pts []IPCPoint) string {
	var b strings.Builder
	b.WriteString("State messages vs mailboxes vs virtual links: kernel overhead per delivered message\n")
	fmt.Fprintf(&b, "%8s %8s %14s %14s %14s %10s %12s %12s %12s\n",
		"readers", "size", "state/msg", "mailbox/msg", "vlink/msg", "speedup", "state cs/m", "mbox cs/m", "vlink cs/m")
	for _, p := range pts {
		fmt.Fprintf(&b, "%8d %8d %14v %14v %14v %9.1fx %12.2f %12.2f %12.2f\n",
			p.Readers, p.Size, p.StatePerMsg, p.MailboxPerMsg, p.VLinkPerMsg, p.SpeedupX(),
			p.StateSwitchesPerMsg, p.MailboxSwitchesPerMsg, p.VLinkSwitchesPerMsg)
	}
	return b.String()
}
