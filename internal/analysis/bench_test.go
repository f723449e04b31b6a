package analysis_test

import (
	"fmt"
	"slices"
	"testing"

	"emeralds/internal/analysis"
	"emeralds/internal/costmodel"
	"emeralds/internal/sched"
	"emeralds/internal/task"
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
// least-overhead CSD-3 partition among all O(n²) candidates, on the
// workload `csdsearch -n N` searches (U = 0.7, seed 1). "ordered" is
// BestPartition, which tests candidates in ascending score order until
// one is feasible, and reports how many it tested; "exhaustive" is the
// reference loop, which tests every candidate: at n = 100 it is the
// search whose wall time EXPERIMENTS.md sets against the paper's.
func BenchmarkPartitionSearch(b *testing.B) {
	prof := costmodel.M68040()
	for _, n := range []int{20, 50, 100} {
		specs := workload.Generate(workload.Config{N: n, Utilization: 0.7, PeriodDiv: 1, Seed: 1})
		rm := analysis.SortRM(specs)
		for _, s := range []struct {
			name   string
			search func(*costmodel.Profile, []task.Spec, int) (sched.Partition, float64, bool)
		}{{"ordered", analysis.BestPartition}, {"exhaustive", refBestPartition}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, s.name), func(b *testing.B) {
				b.ReportAllocs()
				var part sched.Partition
				var score float64
				found := false
				for i := 0; i < b.N; i++ {
					part, score, found = s.search(prof, rm, 3)
				}
				b.StopTimer()
				if !found {
					b.Fatal("no feasible partition at U=0.7")
				}
				if s.name == "ordered" {
					b.ReportMetric(float64(testedBefore(prof, rm, part, score)), "tested/op")
				}
			})
		}
	}
}

// testedBefore counts the CSD-3 candidates BestPartition tests before it
// stops at part, of score score: those ordered no later by (score,
// index).
func testedBefore(prof *costmodel.Profile, rm []task.Spec, part sched.Partition, score float64) int {
	cands := analysis.Candidates(3, len(rm))
	at := slices.IndexFunc(cands, func(c sched.Partition) bool { return slices.Equal(c.DPSizes, part.DPSizes) })
	tested := 0
	for i, c := range cands {
		if s := analysis.OverheadFraction(prof, rm, c); s < score || s == score && i <= at {
			tested++
		}
	}
	return tested
}
