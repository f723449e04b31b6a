package experiments

import (
	"strings"
	"testing"

	"emeralds/internal/vtime"
)

// TestSemAblationDecomposition: each mechanism must contribute, and the
// full scheme must dominate both partial builds.
func TestSemAblationDecomposition(t *testing.T) {
	for _, kind := range []SemQueueKind{DPQueue, FPQueue} {
		pts, _ := SemAblationDiag(kind, []int{15, 30}, Par{})
		for _, p := range pts {
			if p.Full >= p.Standard {
				t.Errorf("%s len %d: full %v not below standard %v", kind, p.QueueLen, p.Full, p.Standard)
			}
			if p.HintOnly >= p.Standard {
				t.Errorf("%s len %d: hint-only %v not below standard %v", kind, p.QueueLen, p.HintOnly, p.Standard)
			}
			if p.Full > p.HintOnly || p.Full > p.PlaceholderOnly {
				t.Errorf("%s len %d: full %v above a partial build (%v / %v)",
					kind, p.QueueLen, p.Full, p.HintOnly, p.PlaceholderOnly)
			}
		}
		if !strings.Contains(RenderSemAblation(kind, pts), "placeholder") {
			t.Error("render broken")
		}
	}
}

// TestSemAblationPlaceholderMattersOnFPOnly: the place-holder trick
// targets the *sorted* FP queue; on the unsorted DP queue PI is O(1)
// anyway, so disabling it must not change the DP result.
func TestSemAblationPlaceholderMattersOnFPOnly(t *testing.T) {
	dps, _ := SemAblationDiag(DPQueue, []int{20}, Par{})
	dp := dps[0]
	if dp.Full != dp.HintOnly {
		t.Errorf("DP: full %v != hint-only %v, but DP PI is O(1) regardless", dp.Full, dp.HintOnly)
	}
	fps, _ := SemAblationDiag(FPQueue, []int{20}, Par{})
	fp := fps[0]
	if fp.HintOnly <= fp.Full {
		t.Errorf("FP: hint-only %v should exceed full %v (reposition scans remain)", fp.HintOnly, fp.Full)
	}
	// And the placeholder contribution must grow with queue length on FP.
	fp30s, _ := SemAblationDiag(FPQueue, []int{30}, Par{})
	fp30 := fp30s[0]
	gain20 := fp.HintOnly - fp.Full
	gain30 := fp30.HintOnly - fp30.Full
	if gain30 <= gain20 {
		t.Errorf("placeholder gain must grow with queue length: %v vs %v", gain20, gain30)
	}
}

// TestCSDCounterAblation: removing the ready counters must make
// selection strictly more expensive in the empty-DP regime.
func TestCSDCounterAblation(t *testing.T) {
	with, without := CSDCounterAblation(Par{})
	if with <= 0 {
		t.Fatal("degenerate run")
	}
	if without <= with {
		t.Errorf("counters saved nothing: with=%v without=%v", with, without)
	}
	saving := float64(without-with) / float64(without)
	if saving < 0.01 {
		t.Errorf("counter saving only %.1f%%", 100*saving)
	}
	t.Logf("scheduler charge: with counters %v, without %v (%.0f%% saved)",
		with, without, 100*saving)
}

// TestSemAblatedMatchesSemScenario: the ablation's full build (both
// mechanisms enabled, histograms recorded for its diagnostics) must
// equal the standard harness's optimized scenario.
func TestSemAblatedMatchesSemScenario(t *testing.T) {
	a := SemScenario(FPQueue, 12, true)
	pts, _ := SemAblationDiag(FPQueue, []int{12}, Par{})
	if b := pts[0].Full; a != b {
		t.Errorf("mismatch: %v vs %v", a, b)
	}
	var zero vtime.Duration
	if a == zero {
		t.Error("degenerate scenario")
	}
}

// TestQueueCountSweepRisesThenFalls pins §5.6's prediction: CSD-x
// performance rises from RM (x=1), peaks at a small x, then declines
// as the schedulability splitting and the 0.55 µs/queue parse overhead
// accumulate — ending near (here: below, because the parse cost never
// stops growing) RM as x approaches n.
func TestQueueCountSweepRisesThenFalls(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	pts := QueueCountSweep(30, []int{1, 2, 3, 4, 8, 20, 29}, 8, 5, Par{})
	byX := map[int]float64{}
	for _, p := range pts {
		byX[p.X] = p.Breakdown
	}
	if !(byX[2] > byX[1]) || !(byX[3] > byX[2]) {
		t.Errorf("no initial rise: RM=%.1f CSD-2=%.1f CSD-3=%.1f", byX[1], byX[2], byX[3])
	}
	peak := 0.0
	for _, v := range byX {
		if v > peak {
			peak = v
		}
	}
	if byX[20] >= peak || byX[29] >= byX[8] {
		t.Errorf("no decline at large x: %v", byX)
	}
	if byX[29] > byX[1]+3 {
		t.Errorf("CSD-29 (%.1f) should be near RM (%.1f)", byX[29], byX[1])
	}
	if !strings.Contains(RenderQueueSweep(30, pts), "x=1 is RM") {
		t.Error("render broken")
	}
}
