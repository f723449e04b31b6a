package analysis_test

import (
	"runtime"
	"testing"

	"emeralds/internal/analysis"
	"emeralds/internal/costmodel"
	"emeralds/internal/sched"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
	"emeralds/internal/workload"
)

func specsOf(pc ...float64) []task.Spec {
	out := make([]task.Spec, 0, len(pc)/2)
	for i := 0; i+1 < len(pc); i += 2 {
		out = append(out, task.Spec{
			Period: vtime.Millis(pc[i]),
			WCET:   vtime.Millis(pc[i+1]),
		})
	}
	return out
}

func TestSortRM(t *testing.T) {
	s := specsOf(30, 1, 10, 1, 20, 1)
	sorted := analysis.SortRM(s)
	if sorted[0].Period != 10*vtime.Millisecond || sorted[2].Period != 30*vtime.Millisecond {
		t.Errorf("sorted = %v", sorted)
	}
	if s[0].Period != 30*vtime.Millisecond {
		t.Error("SortRM mutated its input")
	}
}

func TestEDFUtilizationBound(t *testing.T) {
	zero := costmodel.Zero()
	// Exactly U = 1 is feasible under ideal EDF.
	if !analysis.FeasibleEDF(zero, specsOf(10, 5, 20, 10)) {
		t.Error("U=1 must be EDF-feasible with zero overhead")
	}
	if analysis.FeasibleEDF(zero, specsOf(10, 5, 20, 11)) {
		t.Error("U>1 must be infeasible")
	}
	// With real overhead, U = 1 no longer fits.
	if analysis.FeasibleEDF(costmodel.M68040(), specsOf(10, 5, 20, 10)) {
		t.Error("U=1 must be infeasible once overhead is charged")
	}
}

func TestRMResponseTimeAnalysis(t *testing.T) {
	zero := costmodel.Zero()
	// The classic Liu & Layland example: U = 0.753 ≤ bound, feasible.
	if !analysis.FeasibleRM(zero, specsOf(4, 1, 5, 1, 10, 3)) {
		t.Error("known-feasible RM set rejected")
	}
	// τ2's response exceeds its period.
	if analysis.FeasibleRM(zero, specsOf(4, 2, 6, 3.5)) {
		t.Error("known-infeasible RM set accepted")
	}
	// Exact boundary: τ2 completes exactly at its deadline.
	if !analysis.FeasibleRM(zero, specsOf(4, 2, 8, 4)) {
		t.Error("response exactly at deadline must be feasible")
	}
}

func TestTable2Properties(t *testing.T) {
	p := costmodel.M68040()
	w := workload.Table2()
	u := task.TotalUtilization(w)
	if u < 0.86 || u > 0.90 {
		t.Errorf("Table 2 utilization = %.3f, want ≈0.88", u)
	}
	if !analysis.FeasibleEDF(p, w) {
		t.Error("Table 2 must be EDF-feasible")
	}
	if analysis.FeasibleRM(p, w) {
		t.Error("Table 2 must be RM-infeasible")
	}
	// And the troublesome task is τ5: dropping it leaves a set that is
	// RM-feasible under ideal conditions (τ1–τ4 exactly fill [0, 4 ms),
	// so this only holds with zero run-time overhead — the same reason
	// Figure 2 is drawn ignoring overhead).
	without5 := append(append([]task.Spec{}, w[:4]...), w[5:]...)
	if !analysis.FeasibleRM(costmodel.Zero(), without5) {
		t.Error("without τ5 the set should be RM-feasible ideally")
	}
}

func TestCSDCoversTable2(t *testing.T) {
	p := costmodel.M68040()
	rm := analysis.SortRM(workload.Table2())
	part, ok := analysis.FindPartition(p, rm, 2)
	if !ok {
		t.Fatal("no CSD-2 partition found for Table 2")
	}
	// The paper's prescription: τ1–τ5 go to the DP queue.
	if part.DPSizes[0] != 5 {
		t.Errorf("partition = %v, want DP covering exactly τ1–τ5", part.DPSizes)
	}
}

func TestCSDPartitionSplitMattersForSchedulability(t *testing.T) {
	// §5.5.3's own example: "Suppose the least run-time overhead
	// results by putting tasks 1–4 in DP1 and the rest of the DP tasks
	// in DP2, but this will cause τ5 to miss its deadline."
	zero := costmodel.Zero()
	rm := analysis.SortRM(workload.Table2())
	bad := sched.Partition{DPSizes: []int{4, 1}} // τ5 alone under τ1–τ4's static priority
	if analysis.FeasibleCSD(zero, rm, bad) {
		t.Error("partition {4,1} must be infeasible (τ5 starves behind DP1)")
	}
	good := sched.Partition{DPSizes: []int{5, 1}}
	if !analysis.FeasibleCSD(zero, rm, good) {
		t.Error("partition {5,1} must be feasible")
	}
}

func TestCSDReducesToEDFAndRM(t *testing.T) {
	zero := costmodel.Zero()
	w := analysis.SortRM(workload.Table2())
	// All tasks in one DP queue = EDF: feasible.
	if !analysis.FeasibleCSD(zero, w, sched.Partition{DPSizes: []int{len(w)}}) {
		t.Error("all-DP CSD must behave like EDF")
	}
	// Empty DP = RM: infeasible for Table 2.
	if analysis.FeasibleCSD(zero, w, sched.Partition{DPSizes: []int{0}}) {
		t.Error("no-DP CSD must behave like RM")
	}
}

func TestFeasibleCSDRejectsBadPartition(t *testing.T) {
	w := analysis.SortRM(specsOf(10, 1, 20, 1))
	if analysis.FeasibleCSD(costmodel.Zero(), w, sched.Partition{DPSizes: []int{3}}) {
		t.Error("partition larger than the task set accepted")
	}
}

func TestBreakdownOrdering(t *testing.T) {
	p := costmodel.M68040()
	for _, n := range []int{10, 25} {
		specs := workload.Generate(workload.Config{N: n, Seed: 99, Utilization: 0.5})
		edf := analysis.BreakdownEDF(p, specs)
		rm := analysis.BreakdownRM(p, specs)
		csd3 := analysis.BreakdownCSD(p, specs, 3)
		if edf <= 0 || rm <= 0 || csd3 <= 0 {
			t.Fatalf("n=%d: degenerate breakdowns %v %v %v", n, edf, rm, csd3)
		}
		if edf > 1.0 || rm > 1.0 || csd3 > 1.0 {
			t.Errorf("n=%d: breakdown above 1: %v %v %v", n, edf, rm, csd3)
		}
		// CSD subsumes both pure policies up to its queue-parse cost:
		// allow a 3% tolerance for that structural overhead.
		if csd3 < rm-0.03 {
			t.Errorf("n=%d: CSD-3 (%.3f) far below RM (%.3f)", n, csd3, rm)
		}
	}
}

func TestBreakdownZeroOverheadHitsOne(t *testing.T) {
	zero := costmodel.Zero()
	specs := workload.Generate(workload.Config{N: 10, Seed: 3, Utilization: 0.5})
	got := analysis.BreakdownEDF(zero, specs)
	if got < 0.995 || got > 1.001 {
		t.Errorf("ideal EDF breakdown = %.4f, want ≈1", got)
	}
}

func TestBreakdownMonotoneInOverhead(t *testing.T) {
	specs := workload.Generate(workload.Config{N: 20, Seed: 5, Utilization: 0.5})
	real := analysis.BreakdownEDF(costmodel.M68040(), specs)
	ideal := analysis.BreakdownEDF(costmodel.Zero(), specs)
	if real >= ideal {
		t.Errorf("charged overhead must lower breakdown: %.4f vs %.4f", real, ideal)
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestBreakdownAllocationFreePerProbe: a breakdown search allocates its
// buffers once per call and nothing per probe or per candidate. Under
// every scheduler the Figure 3 sets at n = 10 and n = 50 must cost the
// same count, and at most maxAllocs: a search makes about a dozen
// probes, so one allocation per probe would exceed it.
func TestBreakdownAllocationFreePerProbe(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const maxAllocs = 10
	p := costmodel.M68040()
	for _, s := range []struct {
		name      string
		breakdown func([]task.Spec) float64
	}{
		{"EDF", func(specs []task.Spec) float64 { return analysis.BreakdownEDF(p, specs) }},
		{"RM", func(specs []task.Spec) float64 { return analysis.BreakdownRM(p, specs) }},
		{"CSD-2", func(specs []task.Spec) float64 { return analysis.BreakdownCSD(p, specs, 2) }},
		{"CSD-3", func(specs []task.Spec) float64 { return analysis.BreakdownCSD(p, specs, 3) }},
		{"CSD-4", func(specs []task.Spec) float64 { return analysis.BreakdownCSD(p, specs, 4) }},
	} {
		allocs := func(n int) float64 {
			specs := workload.Generate(workload.Config{N: n, Utilization: 0.5, Seed: workload.SeedFor(1, n, 0)})
			runtime.GC()
			return testing.AllocsPerRun(3, func() { s.breakdown(specs) })
		}
		small, large := allocs(10), allocs(50)
		if small != large || large > maxAllocs {
			t.Errorf("%s: %v allocations per breakdown at n = 10, %v at n = 50; want equal and at most %d",
				s.name, small, large, maxAllocs)
		}
		t.Logf("%s: %v allocations per breakdown", s.name, large)
	}
}

func TestCandidatesCounts(t *testing.T) {
	if got := len(analysis.Candidates(2, 10)); got != 10 {
		t.Errorf("CSD-2 candidates = %d", got)
	}
	if got := len(analysis.Candidates(3, 10)); got != 45 { // C(10,2) pairs q<r
		t.Errorf("CSD-3 candidates = %d", got)
	}
	if got := len(analysis.Candidates(1, 10)); got != 1 {
		t.Errorf("CSD-1 candidates = %d", got)
	}
	if len(analysis.Candidates(4, 20)) == 0 {
		t.Error("CSD-4 candidates empty")
	}
}

func TestBestPartitionMinimizesOverhead(t *testing.T) {
	p := costmodel.M68040()
	specs := workload.Generate(workload.Config{N: 15, Seed: 11, Utilization: 0.4})
	rm := analysis.SortRM(specs)
	best, score, ok := analysis.BestPartition(p, rm, 2)
	if !ok {
		t.Fatal("no feasible partition at U=0.4")
	}
	// Every other feasible candidate must score no better.
	for _, cand := range analysis.Candidates(2, len(rm)) {
		if !analysis.FeasibleCSD(p, rm, cand) {
			continue
		}
		if s := analysis.OverheadFraction(p, rm, cand); s < score-1e-12 {
			t.Errorf("candidate %v scores %.6f < best %v %.6f", cand, s, best, score)
		}
	}
}

func TestOverheadFractionIncreasesWithShortPeriods(t *testing.T) {
	p := costmodel.M68040()
	long := analysis.SortRM(specsOf(100, 1, 200, 1, 400, 1))
	short := analysis.SortRM(specsOf(1, 0.01, 2, 0.01, 4, 0.01))
	part := sched.Partition{DPSizes: []int{2}}
	if analysis.OverheadFraction(p, short, part) <= analysis.OverheadFraction(p, long, part) {
		t.Error("shorter periods must pay a larger scheduler share (§5.5.1)")
	}
}

func TestCSDOverheadsTableThreeShape(t *testing.T) {
	p := costmodel.M68040()
	sizes := []int{5, 10, 15} // q=5, r=15, n=30
	dp1 := analysis.CSDOverheads(p, sizes, 0)
	dp2 := analysis.CSDOverheads(p, sizes, 1)
	fp := analysis.CSDOverheads(p, sizes, 2)
	// DP tasks have O(1) block/unblock.
	if dp1.Block != p.EDFBlock() || dp1.Unblock != p.EDFUnblock() {
		t.Error("DP1 t_b/t_u should be the O(1) EDF entries")
	}
	// Table 3's totals order: DP1 < DP2 (the whole point of CSD-3).
	if dp1.PerPeriod() >= dp2.PerPeriod() {
		t.Errorf("DP1 (%v) must be cheaper than DP2 (%v)", dp1.PerPeriod(), dp2.PerPeriod())
	}
	// FP block scans its queue.
	if fp.Block != p.RMBlock(15) {
		t.Errorf("FP t_b = %v", fp.Block)
	}
	// DP1 unblock selection stops at its own small queue.
	if dp2.SelectUnblock <= dp1.SelectUnblock {
		t.Error("DP2 unblock selection should cost more than DP1's")
	}
}

func TestOverheadsPerPeriodFactor(t *testing.T) {
	o := analysis.Overheads{Block: 10, Unblock: 20, SelectBlock: 30, SelectUnblock: 40}
	if got := o.PerPeriod(); got != 150 {
		t.Errorf("PerPeriod = %v, want 1.5·(10+20+30+40)", got)
	}
}
