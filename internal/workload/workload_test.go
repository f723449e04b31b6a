package workload

import (
	"math"
	"math/rand"
	"testing"

	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{N: 20, Seed: 42, Utilization: 0.5}
	eq := func(x, y task.Spec) bool { return x.Period == y.Period && x.WCET == y.WCET }
	a, b := Generate(cfg), Generate(cfg)
	for i := range a {
		if !eq(a[i], b[i]) {
			t.Fatalf("task %d differs between identical seeds", i)
		}
	}
	c := Generate(Config{N: 20, Seed: 43, Utilization: 0.5})
	same := true
	for i := range a {
		if !eq(a[i], c[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestGeneratePeriodBands(t *testing.T) {
	specs := Generate(Config{N: 3000, Seed: 1, Utilization: 0.5})
	var bands [3]int
	for _, s := range specs {
		ms := s.Period.Millis()
		switch {
		case ms >= 5 && ms <= 9:
			bands[0]++
		case ms >= 10 && ms <= 99:
			bands[1]++
		case ms >= 100 && ms <= 999:
			bands[2]++
		default:
			t.Fatalf("period %v outside every band", s.Period)
		}
	}
	// Each band should hold roughly a third of the tasks (§5.7:
	// "equal probability").
	for i, c := range bands {
		frac := float64(c) / 3000
		if frac < 0.28 || frac > 0.39 {
			t.Errorf("band %d fraction = %.3f", i, frac)
		}
	}
}

func TestGeneratePeriodDivisor(t *testing.T) {
	base := Generate(Config{N: 50, Seed: 9, Utilization: 0.5, PeriodDiv: 1})
	div3 := Generate(Config{N: 50, Seed: 9, Utilization: 0.5, PeriodDiv: 3})
	for i := range base {
		if div3[i].Period != base[i].Period/3 {
			t.Fatalf("task %d: %v is not %v/3", i, div3[i].Period, base[i].Period)
		}
	}
}

func TestGenerateHitsUtilizationTarget(t *testing.T) {
	for _, u := range []float64{0.3, 0.5, 0.8} {
		specs := Generate(Config{N: 30, Seed: 4, Utilization: u})
		got := task.TotalUtilization(specs)
		if math.Abs(got-u) > 0.02 {
			t.Errorf("target %.2f, got %.4f", u, got)
		}
	}
}

// TestGenerateAchievedTracksTarget pins the renormalization fix: the
// §5.7 recipe (short periods, high n, U → 1.0) triggers both the 10 µs
// WCET floor and the cᵢ ≤ Pᵢ ceiling, and before the fix the achieved
// utilization silently drifted from the request (floors push it up,
// ceilings pull it down). The unclamped tasks now absorb the
// difference, so fuzz sweeps near the breakdown region are honest.
func TestGenerateAchievedTracksTarget(t *testing.T) {
	for _, tc := range []struct {
		n    int
		div  int
		u    float64
		seed int64
	}{
		{10, 1, 0.50, 1},
		{20, 3, 0.95, 2}, // §5.7 derived workload, near breakdown
		{40, 3, 0.99, 3}, // floor binds on low-weight short-period tasks
		{50, 3, 0.90, 4},
		{20, 2, 0.999, 5},
	} {
		specs := Generate(Config{N: tc.n, PeriodDiv: tc.div, Utilization: tc.u, Seed: tc.seed})
		got := task.TotalUtilization(specs)
		if math.Abs(got-tc.u) > 0.005 {
			t.Errorf("n=%d div=%d target %.3f: achieved %.4f (drift %.4f)",
				tc.n, tc.div, tc.u, got, got-tc.u)
		}
		for _, s := range specs {
			if s.WCET < vtime.Micros(10) || s.WCET > s.Period {
				t.Fatalf("clamp violated: WCET %v period %v", s.WCET, s.Period)
			}
		}
	}
}

// TestGenerateUnclampedUnchanged locks that the renormalization is a
// strict extension: when no clamp binds, the assignment is the
// historical single-pass one (same RNG draws, same arithmetic), so
// every committed figure generated away from the clamps is unchanged.
func TestGenerateUnclampedUnchanged(t *testing.T) {
	cfg := Config{N: 12, Seed: 11, Utilization: 0.5}
	specs := Generate(cfg)
	// Replay the historical single-pass assignment over the identical
	// RNG stream.
	rng := rand.New(rand.NewSource(cfg.Seed))
	periods := make([]vtime.Duration, cfg.N)
	weights := make([]float64, cfg.N)
	var weightSum float64
	for i := 0; i < cfg.N; i++ {
		var ms int
		switch rng.Intn(3) {
		case 0:
			ms = 5 + rng.Intn(5)
		case 1:
			ms = 10 + rng.Intn(90)
		default:
			ms = 100 + rng.Intn(900)
		}
		periods[i] = vtime.Millis(float64(ms))
		weights[i] = 0.1 + rng.Float64()
		weightSum += weights[i]
	}
	for i, s := range specs {
		if s.Period != periods[i] {
			t.Fatalf("task %d: period %v differs from replay %v", i, s.Period, periods[i])
		}
		want := vtime.Scale(periods[i], cfg.Utilization*weights[i]/weightSum)
		if s.WCET != want {
			t.Fatalf("task %d: WCET %v differs from single-pass %v", i, s.WCET, want)
		}
	}
}

func TestGenerateMinimumWCET(t *testing.T) {
	specs := Generate(Config{N: 40, Seed: 2, Utilization: 0.01})
	for _, s := range specs {
		if s.WCET < vtime.Micros(10) {
			t.Errorf("WCET %v below the 10 µs floor", s.WCET)
		}
		if s.WCET > s.Period {
			t.Errorf("WCET %v exceeds period %v", s.WCET, s.Period)
		}
	}
}

func TestGenerateDefaults(t *testing.T) {
	specs := Generate(Config{N: 5})
	if len(specs) != 5 {
		t.Fatalf("len = %d", len(specs))
	}
	u := task.TotalUtilization(specs)
	if math.Abs(u-0.5) > 0.05 {
		t.Errorf("default utilization = %v", u)
	}
}

// TestSeedFor pins the properties the parallel sweep relies on: the
// seed is a pure function of (base, n, i); distinct (n, i) pairs give
// distinct seeds (the old additive scheme could collide); and the
// stream for a given n does not depend on which other n values the
// sweep includes — so overlapping -n lists replay identical workloads.
func TestSeedFor(t *testing.T) {
	if SeedFor(1, 10, 3) != SeedFor(1, 10, 3) {
		t.Error("SeedFor not deterministic")
	}
	seen := map[int64][2]int{}
	for n := 1; n <= 60; n++ {
		for i := 0; i < 600; i++ {
			s := SeedFor(1, n, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("SeedFor(1,%d,%d) collides with (n=%d,i=%d)", n, i, prev[0], prev[1])
			}
			seen[s] = [2]int{n, i}
		}
	}
	if SeedFor(1, 10, 3) == SeedFor(2, 10, 3) {
		t.Error("base seed ignored")
	}

	// The values the committed figures and perfbench's goldens were
	// generated with.
	if got := SeedFor(1, 10, 3); got != -1323249483549841551 {
		t.Errorf("SeedFor(1,10,3) = %d, want -1323249483549841551", got)
	}
	if got := SeedFor(7919, 50, 499); got != 6075370221368381708 {
		t.Errorf("SeedFor(7919,50,499) = %d, want 6075370221368381708", got)
	}
}

// TestSplitMix64: the mixer is the published generator's finalizer.
func TestSplitMix64(t *testing.T) {
	// Reference value (state 0 advanced once) from the published
	// generator: splitmix64(0) = 0xE220A8397B1DCDAF.
	if got := splitMix64(0); got != 0xE220A8397B1DCDAF {
		t.Errorf("splitMix64(0) = %#x, want 0xE220A8397B1DCDAF", got)
	}
}

// TestSeedForIndependentStreams: the workloads a sweep generates at one
// n, each from SeedFor of its index, are distinct task sets.
func TestSeedForIndependentStreams(t *testing.T) {
	gen := func(i int) []task.Spec {
		return Generate(Config{N: 10, Seed: SeedFor(1, 10, i), Utilization: 0.5})
	}
	first := gen(0)
	for i := 1; i < 5; i++ {
		w := gen(i)
		same := true
		for j := range w {
			if w[j].Period != first[j].Period || w[j].WCET != first[j].WCET {
				same = false
				break
			}
		}
		if same {
			t.Errorf("workload %d identical to workload 0", i)
		}
	}
}

func TestTable2Exact(t *testing.T) {
	w := Table2()
	if len(w) != 10 {
		t.Fatalf("len = %d", len(w))
	}
	if w[0].Period != 4*vtime.Millisecond || w[4].Period != 8*vtime.Millisecond {
		t.Errorf("periods wrong: %v %v", w[0].Period, w[4].Period)
	}
	if w[0].Name != "tau01" || w[9].Name != "tau10" {
		t.Errorf("names: %q %q", w[0].Name, w[9].Name)
	}
	u := task.TotalUtilization(w)
	if math.Abs(u-0.88) > 0.01 {
		t.Errorf("U = %.4f, want ≈0.88", u)
	}
}
