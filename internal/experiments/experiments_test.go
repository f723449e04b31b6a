package experiments

import (
	"strings"
	"testing"

	"emeralds/internal/costmodel"
	"emeralds/internal/vtime"
)

// TestFigure11Shape checks the DP-queue semaphore result (§6.4): both
// schemes grow linearly with queue length, the standard scheme's slope
// is larger, and the saving at length 15 is at least the paper's 28%
// ballpark.
func TestFigure11Shape(t *testing.T) {
	pts, _ := SemOverheadCurveDiag(DPQueue, []int{3, 9, 15, 21, 30}, nil, Par{})
	for i := 1; i < len(pts); i++ {
		if pts[i].Standard <= pts[i-1].Standard {
			t.Errorf("standard not increasing at len %d", pts[i].QueueLen)
		}
		if pts[i].Optimized <= pts[i-1].Optimized {
			t.Errorf("optimized not increasing at len %d", pts[i].QueueLen)
		}
	}
	stdSlope := float64(pts[len(pts)-1].Standard-pts[0].Standard) / float64(pts[len(pts)-1].QueueLen-pts[0].QueueLen)
	optSlope := float64(pts[len(pts)-1].Optimized-pts[0].Optimized) / float64(pts[len(pts)-1].QueueLen-pts[0].QueueLen)
	if stdSlope <= optSlope {
		t.Errorf("standard slope %.1f not above optimized %.1f", stdSlope, optSlope)
	}
	for _, p := range pts {
		if p.QueueLen == 15 {
			if s := p.SavingPct(); s < 20 || s > 60 {
				t.Errorf("saving at 15 = %.0f%%, paper reports 28%%", s)
			}
		}
	}
}

// TestFigure12Shape checks the FP-queue result: standard linear,
// optimized constant at the paper's 29.4 µs.
func TestFigure12Shape(t *testing.T) {
	pts, _ := SemOverheadCurveDiag(FPQueue, []int{3, 9, 15, 21, 30}, nil, Par{})
	for _, p := range pts {
		if p.Optimized != vtime.Micros(29.4) {
			t.Errorf("optimized at len %d = %v, want the constant 29.4 µs", p.QueueLen, p.Optimized)
		}
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Standard <= pts[i-1].Standard {
			t.Errorf("standard not increasing at len %d", pts[i].QueueLen)
		}
	}
	// §6.4: "For an FP queue length of 15, this is an improvement of
	// ... 26%" and "these savings grow even larger".
	var at15 SemPoint
	for _, p := range pts {
		if p.QueueLen == 15 {
			at15 = p
		}
	}
	if s := at15.SavingPct(); s < 26 {
		t.Errorf("saving at 15 = %.0f%%, paper reports at least 26%%", s)
	}
	if pts[len(pts)-1].SavingPct() <= at15.SavingPct() {
		t.Error("savings must grow with queue length")
	}
}

// TestFigure2Reproduction pins the §5.2 demonstration.
func TestFigure2Reproduction(t *testing.T) {
	r := Figure2(nil)
	if !r.EDFFeasible || r.RMFeasible {
		t.Errorf("analysis: EDF=%v RM=%v", r.EDFFeasible, r.RMFeasible)
	}
	if r.EDFMisses != 0 {
		t.Errorf("EDF misses = %d", r.EDFMisses)
	}
	if r.RMMisses == 0 {
		t.Error("RM must miss")
	}
	if r.RMMissTask != "tau05" {
		t.Errorf("first RM miss = %q, want tau05", r.RMMissTask)
	}
	if r.CSD2Misses != 0 {
		t.Errorf("CSD-2 misses = %d", r.CSD2Misses)
	}
	if r.CSD2Partition.DPSizes[0] != 5 {
		t.Errorf("partition = %v", r.CSD2Partition.DPSizes)
	}
	if !strings.Contains(r.Render(), "tau05") {
		t.Error("render missing the missing task")
	}
}

// TestBreakdownFigureShapes runs a small instance of Figures 3 and 5
// and checks the paper's qualitative claims.
func TestBreakdownFigureShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("breakdown sweep is slow")
	}
	base := BreakdownFigure(BreakdownConfig{
		Ns: []int{10, 50}, PeriodDiv: 1, Workloads: 12, Seed: 7,
		Schedulers: []string{"CSD-3", "CSD-2", "EDF", "RM"},
	})
	div3 := BreakdownFigure(BreakdownConfig{
		Ns: []int{10, 50}, PeriodDiv: 3, Workloads: 12, Seed: 7,
		Schedulers: []string{"CSD-3", "CSD-2", "EDF", "RM"},
	})
	last := len(base.Ns) - 1

	// Claim 1 (Fig 3): with long periods EDF performs close to its
	// theoretical limits; CSD-3 at n=50 beats both EDF and RM.
	if base.Series["CSD-3"][last] < base.Series["RM"][last] {
		t.Errorf("base: CSD-3 %.1f below RM %.1f at n=50",
			base.Series["CSD-3"][last], base.Series["RM"][last])
	}
	if base.Series["CSD-3"][last] < base.Series["EDF"][last] {
		t.Errorf("base: CSD-3 %.1f below EDF %.1f at n=50",
			base.Series["CSD-3"][last], base.Series["EDF"][last])
	}

	// Claim 2 (Fig 5): with short periods RM overtakes EDF at large n.
	if div3.Series["RM"][last] < div3.Series["EDF"][last] {
		t.Errorf("÷3: RM %.1f below EDF %.1f at n=50 — short periods should favor RM",
			div3.Series["RM"][last], div3.Series["EDF"][last])
	}

	// Claim 3: breakdown utilization declines with n for every policy
	// (overhead grows with queue length).
	for name, series := range base.Series {
		if series[0] < series[last] {
			t.Errorf("%s breakdown grows with n: %v", name, series)
		}
	}

	// Claim 4: shorter periods lower every breakdown (same scheduler,
	// same n).
	for _, name := range []string{"EDF", "RM", "CSD-3"} {
		if div3.Series[name][last] > base.Series[name][last] {
			t.Errorf("%s: ÷3 breakdown %.1f above base %.1f",
				name, div3.Series[name][last], base.Series[name][last])
		}
	}
	if !strings.Contains(base.Render(), "CSD-3") {
		t.Error("render missing series")
	}
}

// TestIPCComparisonShape checks the §7 reconstruction: state messages
// beat mailboxes on every point, more with more readers, and eliminate
// per-message context switches.
func TestIPCComparisonShape(t *testing.T) {
	pts, _ := IPCComparisonDiag([]int{8, 64}, []int{1, 4}, nil, Par{})
	for _, p := range pts {
		if p.StatePerMsg >= p.MailboxPerMsg {
			t.Errorf("r=%d size=%d: state %v not below mailbox %v",
				p.Readers, p.Size, p.StatePerMsg, p.MailboxPerMsg)
		}
		if p.MailboxSwitchesPerMsg < 0.9 {
			t.Errorf("r=%d size=%d: mailbox switches/msg = %.2f, want ≈1",
				p.Readers, p.Size, p.MailboxSwitchesPerMsg)
		}
		if p.StateSwitchesPerMsg > 0.1 {
			t.Errorf("r=%d size=%d: state switches/msg = %.2f, want ≈0",
				p.Readers, p.Size, p.StateSwitchesPerMsg)
		}
	}
	// With more readers a single state write amortizes across reads.
	if pts[2].SpeedupX() <= pts[0].SpeedupX() {
		t.Errorf("speedup should grow with readers: %v vs %v", pts[2].SpeedupX(), pts[0].SpeedupX())
	}
	if !strings.Contains(RenderIPC(pts), "speedup") {
		t.Error("render broken")
	}
}

// TestTable1Render pins the crossover note and formula sampling.
func TestTable1Render(t *testing.T) {
	out := RenderTable1(Table1(nil))
	for _, frag := range []string{"EDF-queue", "RM-heap", "crossover", "0.25"} {
		if !strings.Contains(out, frag) {
			t.Errorf("table 1 output missing %q", frag)
		}
	}
}

// TestTable3Monotone checks the Table 3 evaluation: DP1 per-period
// overhead below DP2's, queue-parse cost present in every selection.
func TestTable3Monotone(t *testing.T) {
	entries := Table3(nil, 5, 15, 30)
	if len(entries) != 6 {
		t.Fatalf("entries = %d", len(entries))
	}
	var dp1, dp2, fp vtime.Duration
	for _, e := range entries {
		switch e.Queue {
		case "DP1":
			dp1 = e.PerPeriod
		case "DP2":
			dp2 = e.PerPeriod
		case "FP":
			fp = e.PerPeriod
		}
	}
	if !(dp1 < dp2) {
		t.Errorf("DP1 %v !< DP2 %v", dp1, dp2)
	}
	if fp <= 0 || dp1 <= 0 {
		t.Error("degenerate entries")
	}
	if !strings.Contains(RenderTable3(entries, 5, 15, 30), "DP2") {
		t.Error("render broken")
	}
}

// TestSemScenarioDeterministic: the harness must be exactly repeatable.
func TestSemScenarioDeterministic(t *testing.T) {
	p := costmodel.M68040()
	a := SemScenario(FPQueue, 12, true, p)
	b := SemScenario(FPQueue, 12, true, p)
	if a != b {
		t.Errorf("scenario not deterministic: %v vs %v", a, b)
	}
}
