package experiments

import (
	"reflect"
	"testing"

	"emeralds/internal/vtime"
)

// TestLockGranularityGrid runs a short grid and checks the structural
// claims the ablation makes: per-CPU ≤ per-queue ≤ big in charged lock
// time at every CPU count, no lock time on one CPU, and identical
// workload outcome (completions) across regimes at a fixed CPU count.
func TestLockGranularityGrid(t *testing.T) {
	pts := LockGrid([]int{1, 2, 4}, nil, 200*vtime.Millisecond, Par{Workers: 4})
	if len(pts) != 9 {
		t.Fatalf("got %d points, want 9", len(pts))
	}
	type cell struct {
		cpus   int
		regime string
	}
	byCell := map[cell]LockPoint{}
	for _, p := range pts {
		byCell[cell{p.CPUs, p.Regime}] = p
	}
	for _, m := range []int{1, 2, 4} {
		per := byCell[cell{m, "percpu"}]
		queue := byCell[cell{m, "perqueue"}]
		big := byCell[cell{m, "biglock"}]
		if m == 1 {
			if per.LockCharge != 0 || queue.LockCharge != 0 || big.LockCharge != 0 {
				t.Errorf("cpus=1 charged lock time: %v/%v/%v", per.LockCharge, queue.LockCharge, big.LockCharge)
			}
			continue
		}
		if per.LockCharge > queue.LockCharge || queue.LockCharge > big.LockCharge {
			t.Errorf("cpus=%d: lock charges not ordered: percpu=%v perqueue=%v biglock=%v",
				m, per.LockCharge, queue.LockCharge, big.LockCharge)
		}
		if big.Contentions == 0 {
			t.Errorf("cpus=%d: big kernel lock saw no contention", m)
		}
		if per.Completions != queue.Completions || queue.Completions != big.Completions {
			t.Errorf("cpus=%d: completions diverge across regimes: %d/%d/%d",
				m, per.Completions, queue.Completions, big.Completions)
		}
	}
}

// TestLockGranularityWorkerIndependent locks the determinism contract:
// the grid is identical for any worker fan-out.
func TestLockGranularityWorkerIndependent(t *testing.T) {
	a := LockGrid([]int{2}, nil, 100*vtime.Millisecond, Par{Workers: 1})
	b := LockGrid([]int{2}, nil, 100*vtime.Millisecond, Par{Workers: 8})
	if !reflect.DeepEqual(a, b) {
		t.Errorf("grid differs across worker counts:\n%+v\n%+v", a, b)
	}
}
