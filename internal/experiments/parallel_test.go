package experiments

import (
	"reflect"
	"testing"
)

// TestBreakdownParallelDeterminism is the harness's core guarantee at
// the experiment layer: the Figure 3 sweep run with one worker and
// with eight produces bit-identical series. Workload seeds come from
// workload.SeedFor(seed, n, i) and the merge sums workloads in index
// order, so neither goroutine scheduling nor worker count can perturb
// a single bit of the output.
func TestBreakdownParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("breakdown sweep is slow")
	}
	mk := func(workers int) *BreakdownResult {
		return BreakdownFigure(BreakdownConfig{
			Ns: []int{5, 10}, PeriodDiv: 1, Workloads: 6, Seed: 11,
			Schedulers: []string{"CSD-2", "EDF", "RM"},
			Par:        Par{Workers: workers},
		})
	}
	serial := mk(1)
	parallel := mk(8)
	for name, s := range serial.Series {
		p := parallel.Series[name]
		for i := range s {
			if s[i] != p[i] {
				t.Errorf("%s[%d]: serial %v != parallel %v", name, i, s[i], p[i])
			}
		}
	}
}

// TestQueueSweepParallelDeterminism: same property for the (x,
// workload) grid sweep, which regenerates workloads per cell.
func TestQueueSweepParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("queue sweep is slow")
	}
	a := QueueCountSweep(12, []int{1, 3}, 4, 5, Par{Workers: 1})
	b := QueueCountSweep(12, []int{1, 3}, 4, 5, Par{Workers: 8})
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("point %d: serial %+v != parallel %+v", i, a[i], b[i])
		}
	}
}

// TestDiagnosticsWorkerIndependent extends the determinism guarantee
// to the observability block: counters and task summaries are merged
// in job-index order, so the diagnostics of a sweep are bit-identical
// for any worker count.
func TestDiagnosticsWorkerIndependent(t *testing.T) {
	semPts1, semD1 := SemOverheadCurveDiag(DPQueue, []int{3, 5}, Par{Workers: 1})
	semPts4, semD4 := SemOverheadCurveDiag(DPQueue, []int{3, 5}, Par{Workers: 4})
	if !reflect.DeepEqual(semPts1, semPts4) {
		t.Errorf("sem points differ across worker counts")
	}
	if !reflect.DeepEqual(semD1, semD4) {
		t.Errorf("sem diagnostics differ across worker counts:\n1: %+v\n4: %+v", semD1, semD4)
	}
	if len(semD1.Tasks) == 0 || semD1.Counters["sem_grants"] == 0 {
		t.Errorf("sem diagnostics empty: %+v", semD1)
	}

	ipcPts1, ipcD1 := IPCComparisonDiag([]int{8}, []int{1, 2}, Par{Workers: 1})
	ipcPts4, ipcD4 := IPCComparisonDiag([]int{8}, []int{1, 2}, Par{Workers: 4})
	if !reflect.DeepEqual(ipcPts1, ipcPts4) {
		t.Errorf("ipc points differ across worker counts")
	}
	if !reflect.DeepEqual(ipcD1, ipcD4) {
		t.Errorf("ipc diagnostics differ across worker counts:\n1: %+v\n4: %+v", ipcD1, ipcD4)
	}
	if ipcD1.Counters["state_writes"] == 0 || ipcD1.Counters["mailbox_sends"] == 0 {
		t.Errorf("ipc counters missing: %+v", ipcD1.Counters)
	}
}
