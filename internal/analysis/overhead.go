// Package analysis implements the schedulability machinery of §5 of
// the paper: per-scheduler run-time overhead models (Table 1 and the
// Table 3 case analysis), feasibility tests that account for that
// overhead, the breakdown-utilization search of §5.7, and the off-line
// CSD queue-partition search of §5.5.3.
//
// Following §5.1, each task blocks and unblocks at least once per
// period, and on average half the tasks use one extra blocking call per
// period, giving a per-period scheduler overhead of
//
//	t = 1.5 · (t_b + t_u + 2·t_s)
//
// which is added to each task's execution time before testing
// feasibility. The t components are evaluated at worst-case queue
// lengths from the calibrated cost model.
package analysis

import (
	"emeralds/internal/costmodel"
	"emeralds/internal/sched"
	"emeralds/internal/vtime"
)

// blockingFactor is the paper's 1.5× multiplier: one block/unblock per
// period plus half the tasks making one blocking system call.
const blockingFactor = 1.5

// Overheads bundles the four components charged per scheduler
// invocation pair for one task.
type Overheads struct {
	Block         vtime.Duration // t_b
	Unblock       vtime.Duration // t_u
	SelectBlock   vtime.Duration // t_s after the block
	SelectUnblock vtime.Duration // t_s after the unblock
}

// PerPeriod returns the per-period charge t = 1.5(t_b + t_u + 2 t_s),
// using the two selection costs in place of 2·t_s.
func (o Overheads) PerPeriod() vtime.Duration {
	sum := o.Block + o.Unblock + o.SelectBlock + o.SelectUnblock
	return vtime.Scale(sum, blockingFactor)
}

// EDFOverheads returns the worst-case overhead components for a task
// under EDF with n tasks (Table 1, column 1: every selection parses the
// full n-long queue).
func EDFOverheads(p *costmodel.Profile, n int) Overheads {
	return Overheads{
		Block:         p.EDFBlock(),
		Unblock:       p.EDFUnblock(),
		SelectBlock:   p.EDFSelect(n),
		SelectUnblock: p.EDFSelect(n),
	}
}

// RMOverheads returns the worst-case overhead components for a task
// under RM with n tasks (Table 1, column 2: blocking scans the n-long
// queue once; unblock and selection are O(1)).
func RMOverheads(p *costmodel.Profile, n int) Overheads {
	return Overheads{
		Block:         p.RMBlock(n),
		Unblock:       p.RMUnblock(),
		SelectBlock:   p.RMSelect(),
		SelectUnblock: p.RMSelect(),
	}
}

// RMHeapOverheads returns the worst-case components for the heap
// implementation (Table 1, column 3).
func RMHeapOverheads(p *costmodel.Profile, n int) Overheads {
	lv := costmodel.Levels(n)
	return Overheads{
		Block:         p.HeapBlock(lv),
		Unblock:       p.HeapUnblock(lv),
		SelectBlock:   p.HeapSelect(),
		SelectUnblock: p.HeapSelect(),
	}
}

// CSDOverheads returns the worst-case overhead components for a task
// assigned to CSD queue `queue` (0-based; len(sizes)-1 = the FP queue)
// under a partition whose queue lengths are `sizes` (DP queues first,
// FP last). It generalizes the Table 3 case analysis:
//
//   - DP_k task blocks: t_b is O(1); the following selection may have
//     to parse any queue from k down, so worst case is the longest of
//     queues k..x−1 (for CSD-3's DP1 this is O(r−q), matching Table 3's
//     "assume DP2 longer than DP1").
//   - DP_k task unblocks: t_u is O(1); the selection finds at least one
//     ready task in queue k (the task itself), so it parses the k-long
//     own queue: O(m_k).
//   - FP task blocks: t_b scans the FP queue (O(n−r)); all DP queues
//     must be empty of ready tasks (an FP task was running), so their
//     counters are skipped and selection is O(1).
//   - FP task unblocks: t_u is O(1); the selection worst case parses
//     the longest DP queue (Table 3: O(r−q)).
//
// Every selection additionally pays the §5.7 queue-list parse cost of
// 0.55 µs per queue (x queues worst case).
func CSDOverheads(p *costmodel.Profile, sizes []int, queue int) Overheads {
	x := len(sizes)
	numDP := x - 1
	parse := p.CSDParse(x)

	if queue < numDP { // DP task: unblock selection stops at its own queue
		return Overheads{
			Block:         p.EDFBlock(),
			Unblock:       p.EDFUnblock(),
			SelectBlock:   parse + maxDPSelectFrom(p, sizes, queue),
			SelectUnblock: p.CSDParse(queue+1) + p.EDFSelect(sizes[queue]),
		}
	}
	// FP task.
	return Overheads{
		Block:         p.RMBlock(sizes[numDP]),
		Unblock:       p.RMUnblock(),
		SelectBlock:   parse + p.RMSelect(),
		SelectUnblock: parse + maxDPSelectFrom(p, sizes, 0),
	}
}

// maxDPSelectFrom returns the worst single-queue selection cost over DP
// queues from..x−2, falling back to the FP read when none remain.
func maxDPSelectFrom(p *costmodel.Profile, sizes []int, from int) vtime.Duration {
	numDP := len(sizes) - 1

	var worst vtime.Duration
	for j := from; j < numDP; j++ {
		if c := p.EDFSelect(sizes[j]); c > worst {
			worst = c
		}
	}
	if worst == 0 {
		worst = p.RMSelect()
	}
	return worst
}

// queueSizes appends a partition's per-queue lengths over n tasks to
// dst (DP queues first, FP queue last).
func queueSizes(dst []int, part sched.Partition, n int) []int {
	dst = append(dst, part.DPSizes...)
	return append(dst, n-part.DPTotal())
}
