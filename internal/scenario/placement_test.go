package scenario

import (
	"testing"

	"emeralds/internal/trace"
)

// TestFeasibleAnalysesBootPlacement: on multicore scenarios from Gen,
// which pin a minority of tasks, the per-CPU sets Feasible analyses
// are the placement the booted node reports, both in each TCB.CPU and
// in the CPU of each boot-time task-info event, with each CPU's tasks
// in admission order.
func TestFeasibleAnalysesBootPlacement(t *testing.T) {
	pinned, unpinned := 0, 0
	for _, m := range []int{2, 4} {
		for index := 0; index < 150; index++ {
			s := Gen(1, index, m)
			analysed := placement(s)
			sys, _, err := Build(s)
			if err != nil {
				t.Fatalf("M=%d scenario %d: build: %v", m, index, err)
			}
			if err := sys.Boot(); err != nil {
				t.Fatalf("M=%d scenario %d: boot: %v", m, index, err)
			}
			ths := sys.Kernel().Threads()
			booted := make([][]int, m)
			for _, th := range ths {
				booted[th.TCB.CPU] = append(booted[th.TCB.CPU], th.TCB.ID)
				if th.TCB.Spec.Affinity > 0 {
					pinned++
				} else {
					unpinned++
				}
			}
			if len(analysed) != m {
				t.Fatalf("M=%d scenario %d: Feasible analyses %d CPUs", m, index, len(analysed))
			}
			for c := range analysed {
				if len(analysed[c]) != len(booted[c]) {
					t.Fatalf("M=%d scenario %d cpu%d: analysed %d tasks, booted %d",
						m, index, c, len(analysed[c]), len(booted[c]))
				}
				for i, tc := range analysed[c] {
					if tc.ID != booted[c][i] {
						t.Fatalf("M=%d scenario %d cpu%d[%d]: analysed task %d, booted %d",
							m, index, c, i, tc.ID, booted[c][i])
					}
				}
			}
			next := 0
			for _, ev := range sys.Trace().Events() {
				if ev.Kind != trace.TaskInfo {
					continue
				}
				th := ths[next]
				if ev.Task != th.Name() || ev.CPU != th.TCB.CPU {
					t.Fatalf("M=%d scenario %d: task-info %s on cpu%d, task %s placed on cpu%d",
						m, index, ev.Task, ev.CPU, th.Name(), th.TCB.CPU)
				}
				next++
			}
			if next != len(ths) {
				t.Fatalf("M=%d scenario %d: %d task-info events for %d tasks", m, index, next, len(ths))
			}
		}
	}
	if pinned == 0 || unpinned == 0 {
		t.Fatalf("%d pinned and %d unpinned tasks: the check needs both", pinned, unpinned)
	}
}
