package analysis

import (
	"math"
	"testing"

	"emeralds/internal/costmodel"
	"emeralds/internal/sched"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

// capSet is a zero-overhead CSD-3 workload whose {1, 1} partition
// reaches each verdict depending on the scale: DP1 holds a task of
// utilization 0.9999·f, and DP2 a long task whose demand test, under
// DP1's interference, needs a busy period of about 10⁴ of DP1's
// periods. At f = 1 that period climbs by a factor of 0.9999 per step
// and hits the 1,000-step cap; at f = 2 DP1 alone is overloaded.
func capSet() []task.Spec {
	return []task.Spec{
		{Name: "short", Period: 10 * vtime.Microsecond, WCET: 9999},
		{Name: "long", Period: 1000 * vtime.Second, WCET: vtime.Millisecond},
	}
}

func TestCSDVerdictOfCapSet(t *testing.T) {
	zero := costmodel.Zero()
	part := sched.Partition{DPSizes: []int{1, 1}}
	for _, c := range []struct {
		f    float64
		want verdict
	}{
		{0, verdictFeasible},
		{1, verdictCapped},
		{2, verdictFailed},
	} {
		if got := csdVerdict(zero, task.Scale(capSet(), c.f), part); got != c.want {
			t.Errorf("scale %v: verdict %d, want %d", c.f, got, c.want)
		}
	}
}

// TestCappedCandidateStaysLive: a verdictCapped rejection leaves the
// candidate to be tested again at the same and at larger scales, while
// a verdictFailed one rules it out from that scale up.
func TestCappedCandidateStaysLive(t *testing.T) {
	s := &partitionSearch{
		prof:  costmodel.Zero(),
		cands: []sched.Partition{{DPSizes: []int{1, 1}}},
		dead:  []float64{math.Inf(1)},
		last:  -1,
	}
	if s.feasible(1, task.Scale(capSet(), 1)) {
		t.Fatal("capped candidate accepted")
	}
	if !math.IsInf(s.dead[0], 1) {
		t.Fatalf("capped candidate ruled out from scale %v", s.dead[0])
	}
	if s.feasible(2, task.Scale(capSet(), 2)) {
		t.Fatal("overloaded candidate accepted")
	}
	if s.dead[0] != 2 {
		t.Fatalf("failed candidate ruled out from scale %v, want 2", s.dead[0])
	}
	// A smaller scale still tests it.
	if !s.feasible(0, task.Scale(capSet(), 0)) || s.last != 0 {
		t.Errorf("candidate not retried below the scale that ruled it out")
	}
}
