// Package workload generates the random task sets used by the §5.7
// evaluation: "we generate the base task workloads by randomly
// selecting task periods such that each period has an equal probability
// of being single-digit (5–9 ms), double-digit (10–99 ms), or
// triple-digit (100–999 ms)." Derived workloads divide all periods by 2
// or 3 to study the effect of shorter periods (Figures 4 and 5).
package workload

import (
	"math/rand"

	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

// Config controls generation.
type Config struct {
	N           int     // number of tasks
	PeriodDiv   int     // divide all periods by this factor (1, 2, 3); 0 = 1
	Utilization float64 // target raw utilization Σ cᵢ/Pᵢ; 0 = 0.5
	Seed        int64   // RNG seed (generation is deterministic per seed)
}

// Generate produces a periodic task set per the paper's recipe. Periods
// are drawn uniformly within a digit band chosen uniformly from
// {5–9 ms, 10–99 ms, 100–999 ms}, then divided by PeriodDiv. Execution
// times are drawn proportional to random weights and normalized so the
// set's raw utilization equals Utilization. Every WCET is at least
// 10 µs so that overhead inflation cannot drown a degenerate task.
func Generate(cfg Config) []task.Spec {
	if cfg.PeriodDiv <= 0 {
		cfg.PeriodDiv = 1
	}
	if cfg.Utilization <= 0 {
		cfg.Utilization = 0.5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	specs := make([]task.Spec, cfg.N)
	weights := make([]float64, cfg.N)
	var weightSum float64
	for i := range specs {
		var ms int
		switch rng.Intn(3) {
		case 0:
			ms = 5 + rng.Intn(5) // 5–9
		case 1:
			ms = 10 + rng.Intn(90) // 10–99
		default:
			ms = 100 + rng.Intn(900) // 100–999
		}
		specs[i].Period = vtime.Millis(float64(ms)) / vtime.Duration(cfg.PeriodDiv)
		weights[i] = 0.1 + rng.Float64()
		weightSum += weights[i]
	}
	// Distribute the utilization budget across tasks by weight:
	// uᵢ = U·wᵢ/Σw, cᵢ = uᵢ·Pᵢ. Tasks pinned by the 10 µs WCET floor or
	// the cᵢ ≤ Pᵢ ceiling would silently drag the achieved utilization
	// away from the target, so the unclamped remainder is renormalized
	// against the leftover budget until the assignment is stable —
	// sweeps near U → 1.0 then get (to integer-nanosecond rounding) the
	// utilization they asked for, or the closest value the clamps allow.
	// When no clamp binds, the first pass is exactly the historical
	// single-pass assignment.
	clamped := make([]bool, cfg.N)
	budget := cfg.Utilization
	free := weightSum
	for pass := 0; pass <= cfg.N; pass++ {
		again := false
		for i := range specs {
			if clamped[i] {
				continue
			}
			var u float64
			if budget > 0 && free > 0 {
				u = budget * weights[i] / free
			}
			c := vtime.Scale(specs[i].Period, u)
			if c < vtime.Micros(10) {
				c = vtime.Micros(10)
			} else if c > specs[i].Period {
				c = specs[i].Period
			} else {
				specs[i].WCET = c
				continue
			}
			// The clamp fixes this task's utilization; take it out of the
			// budget and redistribute over the still-free tasks.
			specs[i].WCET = c
			clamped[i] = true
			budget -= specs[i].Utilization()
			free -= weights[i]
			again = true
		}
		if !again {
			break
		}
	}
	return specs
}

// SeedFor derives the RNG seed of workload i of an n-task sweep from
// the base seed. The derivation is a pure function of (base, n, i) —
// SplitMix64 seed-splitting, one mixing round per component — so the
// i-th workload at a given n is the same task set whether it is
// generated serially, by any parallel worker, or as part of a sweep
// over a different (overlapping) -n list.
func SeedFor(base int64, n, i int) int64 {
	x := splitMix64(uint64(base))
	x = splitMix64(x ^ uint64(n))
	x = splitMix64(x ^ uint64(i))
	return int64(x)
}

// splitMix64 is the finalizer of Steele, Lea & Flood's SplitMix64
// generator — a full-avalanche 64-bit mixer. It is the repo's standard
// way to split one base seed into many statistically independent
// per-job streams without any sequential dependence between jobs.
func splitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Table2 returns a 10-task workload with the properties the paper
// states for its Table 2 (the table's numeric cells did not survive
// text extraction, so this is a faithful reconstruction; see
// EXPERIMENTS.md): U ≈ 0.88; τ₁–τ₄ have short periods and execute
// during [0, 4 ms); τ₁ is re-released before τ₅ can run, so τ₅
// (P = d = 8 ms) misses its deadline at t = 8 ms under RM (Figure 2)
// but meets it under EDF; τ₆–τ₁₀ have much longer periods and are
// easily scheduled by any policy.
func Table2() []task.Spec {
	type row struct{ p, c float64 }
	rows := []row{
		{4, 1}, {5, 1}, {6, 1}, {7, 1}, {8, 0.5},
		{100, 2}, {150, 1.5}, {200, 2}, {300, 3}, {400, 4},
	}
	specs := make([]task.Spec, len(rows))
	for i, r := range rows {
		specs[i] = task.Spec{
			Name:   taskName(i + 1),
			Period: vtime.Millis(r.p),
			WCET:   vtime.Millis(r.c),
		}
	}
	return specs
}

func taskName(i int) string {
	return "tau" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}
