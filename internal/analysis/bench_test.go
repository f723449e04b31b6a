package analysis_test

import (
	"fmt"
	"testing"

	"emeralds/internal/analysis"
	"emeralds/internal/costmodel"
	"emeralds/internal/workload"
)

// BenchmarkBreakdownCSD is the breakdown search of one Figure 3–5
// workload: the n = 50 set each divisor's sweep generates at seed 1,
// under CSD-3 and CSD-4, the two searches that dominate the sweep.
func BenchmarkBreakdownCSD(b *testing.B) {
	prof := costmodel.M68040()
	for div := 1; div <= 3; div++ {
		specs := workload.Generate(workload.Config{
			N:           50,
			PeriodDiv:   div,
			Utilization: 0.5,
			Seed:        workload.SeedFor(1, 50, 0),
		})
		for q := 3; q <= 4; q++ {
			b.Run(fmt.Sprintf("div=%d/CSD-%d", div, q), func(b *testing.B) {
				b.ReportAllocs()
				var u float64
				for i := 0; i < b.N; i++ {
					u = analysis.BreakdownCSD(prof, specs, q)
				}
				b.ReportMetric(100*u, "breakdown-pct")
			})
		}
	}
}

// BenchmarkPartitionSearch is §5.5.3's off-line search for the
// least-overhead CSD-3 partition over all O(n²) candidates.
func BenchmarkPartitionSearch(b *testing.B) {
	prof := costmodel.M68040()
	for _, n := range []int{20, 50, 100} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			specs := workload.Generate(workload.Config{N: n, Utilization: 0.6, Seed: 5})
			rm := analysis.SortRM(specs)
			found := false
			for i := 0; i < b.N; i++ {
				_, _, found = analysis.BestPartition(prof, rm, 3)
			}
			if !found {
				b.Log("no feasible partition at U=0.6")
			}
		})
	}
}
