package sched

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

// assignCPUsReference is the placement as it stood before AssignCPUs
// kept it in TCB.CPU: a map from TCB to CPU, sort.SliceStable over the
// unpinned tasks. AssignCPUs must reproduce it exactly.
func assignCPUsReference(ts []*task.TCB, m int) [][]*task.TCB {
	if m < 1 {
		m = 1
	}
	load := make([]float64, m)
	cpuOf := make(map[*task.TCB]int, len(ts))
	var auto []*task.TCB
	for _, t := range ts {
		if a := t.Spec.Affinity; a > 0 {
			cpu := a - 1
			if cpu >= m {
				cpu = m - 1
			}
			cpuOf[t] = cpu
			load[cpu] += t.Spec.Utilization()
		} else {
			auto = append(auto, t)
		}
	}
	sort.SliceStable(auto, func(i, j int) bool {
		ui, uj := auto[i].Spec.Utilization(), auto[j].Spec.Utilization()
		if ui != uj {
			return ui > uj
		}
		return auto[i].ID < auto[j].ID
	})
	for _, t := range auto {
		best := 0
		for c := 1; c < m; c++ {
			if load[c] < load[best] {
				best = c
			}
		}
		cpuOf[t] = best
		load[best] += t.Spec.Utilization()
	}
	out := make([][]*task.TCB, m)
	for _, t := range ts {
		c := cpuOf[t]
		t.CPU = c
		out[c] = append(out[c], t)
	}
	return out
}

// randomPlacementSet draws n specs from small period and WCET pools, so
// equal utilizations (the tie-break path) are common, with some
// aperiodic tasks. affinity is the share of tasks pinned to a CPU drawn
// from 1..maxCPU, which may exceed the CPU count.
func randomPlacementSet(rng *rand.Rand, n int, affinity float64, maxCPU int) []task.Spec {
	periods := []vtime.Duration{0, 5, 10, 20, 40}
	wcets := []vtime.Duration{1, 2, 4}
	specs := make([]task.Spec, n)
	for i := range specs {
		specs[i].Period = periods[rng.Intn(len(periods))] * vtime.Millisecond
		specs[i].WCET = wcets[rng.Intn(len(wcets))] * vtime.Millisecond / 2
		if rng.Float64() < affinity {
			specs[i].Affinity = 1 + rng.Intn(maxCPU)
		}
	}
	return specs
}

func tcbsOf(specs []task.Spec) []*task.TCB {
	ts := make([]*task.TCB, len(specs))
	for i, s := range specs {
		ts[i] = task.New(i, s)
		ts[i].CPU = -1 // a stale value the placement must overwrite
	}
	return ts
}

// TestAssignCPUsMatchesReference: on random sets without affinities,
// with some, and with affinities past M, AssignCPUs returns the same
// per-CPU slices in the same order and stamps the same TCB.CPU as the
// map-based reference, and leaves its input in admission order.
func TestAssignCPUsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, m := range []int{1, 2, 3, 4, 8} {
		for _, mix := range []struct {
			name     string
			affinity float64
			maxCPU   int
		}{
			{"unpinned", 0, 1},
			{"pinned", 0.3, m},
			{"past-M", 0.5, m + 3},
		} {
			for trial := 0; trial < 200; trial++ {
				specs := randomPlacementSet(rng, rng.Intn(40), mix.affinity, mix.maxCPU)
				want, got := tcbsOf(specs), tcbsOf(specs)
				wantCPUs := assignCPUsReference(want, m)
				gotCPUs := AssignCPUs(got, m)
				if len(gotCPUs) != m {
					t.Fatalf("M=%d %s trial %d: %d CPU slices", m, mix.name, trial, len(gotCPUs))
				}
				for c := range wantCPUs {
					if len(gotCPUs[c]) != len(wantCPUs[c]) {
						t.Fatalf("M=%d %s trial %d cpu%d: %d tasks, reference %d",
							m, mix.name, trial, c, len(gotCPUs[c]), len(wantCPUs[c]))
					}
					for i := range wantCPUs[c] {
						if gotCPUs[c][i] != got[wantCPUs[c][i].ID] {
							t.Fatalf("M=%d %s trial %d cpu%d[%d]: task %d, reference %d",
								m, mix.name, trial, c, i, gotCPUs[c][i].ID, wantCPUs[c][i].ID)
						}
					}
				}
				for i := range want {
					if got[i].CPU != want[i].CPU {
						t.Fatalf("M=%d %s trial %d task %d: CPU %d, reference %d",
							m, mix.name, trial, i, got[i].CPU, want[i].CPU)
					}
					if got[i].ID != i {
						t.Fatalf("M=%d %s trial %d: input reordered", m, mix.name, trial)
					}
				}
			}
		}
	}
}

// placeSink keeps the benchmarked placement live.
var placeSink [][]*task.TCB

// BenchmarkAssignCPUs places a 30-task set, the size of an emsim-long
// unit's workload, as each boot does.
func BenchmarkAssignCPUs(b *testing.B) {
	specs := randomPlacementSet(rand.New(rand.NewSource(1)), 30, 0, 1)
	ts := tcbsOf(specs)
	for _, m := range []int{1, 4} {
		b.Run("M"+strconv.Itoa(m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				placeSink = AssignCPUs(ts, m)
			}
		})
	}
}
