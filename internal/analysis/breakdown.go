package analysis

import (
	"slices"

	"emeralds/internal/costmodel"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

// This file implements the breakdown-utilization experiment of §5.7:
// "Our test procedure involves generating random task workloads, then
// for each workload, scaling the execution times of tasks until the
// workload is no longer feasible for a given scheduler. The utilization
// at which the workload becomes infeasible is called the breakdown
// utilization."

// breakdownPrecision is the relative width at which the scale-factor
// bisection stops.
const breakdownPrecision = 1e-3

// Breakdown bisects the execution-time scale factor and returns the raw
// workload utilization Σ cᵢ/Pᵢ at the feasibility boundary for the
// given feasibility predicate. Returns 0 when even the unscaled-to-zero
// workload is infeasible (run-time overhead alone saturates the CPU).
//
// Every probe rescales the WCETs of one slice in place, so the
// predicate must neither keep nor modify the slice it is given.
func Breakdown(specs []task.Spec, feasible func(scaled []task.Spec) bool) float64 {
	return bisect(specs, func(_ float64, scaled []task.Spec) bool { return feasible(scaled) })
}

// bisect is Breakdown with each probe's scale factor passed to the
// predicate alongside the scaled workload.
func bisect(specs []task.Spec, feasible func(f float64, scaled []task.Spec) bool) float64 {
	base := task.TotalUtilization(specs)
	if base <= 0 {
		return 0
	}
	scaled := slices.Clone(specs)
	probe := func(f float64) bool {
		for i := range specs {
			scaled[i].WCET = vtime.Scale(specs[i].WCET, f)
		}
		return feasible(f, scaled)
	}
	// Upper bound: U = 1.05 is infeasible under every policy once
	// overhead is charged; double until infeasible to be safe.
	hi := 1.05 / base
	for i := 0; i < 10 && probe(hi); i++ {
		hi *= 2
	}
	lo := 0.0
	if !probe(lo) {
		return 0
	}
	for hi-lo > breakdownPrecision*hi {
		mid := (lo + hi) / 2
		if probe(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return base * lo
}

// BreakdownEDF returns the breakdown utilization under EDF: Breakdown
// over FeasibleEDF, with the tasks inflated once and only their WCETs
// rewritten at each probe.
func BreakdownEDF(p *costmodel.Profile, specs []task.Spec) float64 {
	t := EDFOverheads(p, len(specs)).PerPeriod()
	ts := inflate(specs, func(int) vtime.Duration { return t })
	return bisect(specs, func(_ float64, scaled []task.Spec) bool {
		for i := range ts {
			ts[i].wcet = scaled[i].WCET + t
		}
		return edfFeasible(ts)
	})
}

// BreakdownRM returns the breakdown utilization under RM: Breakdown
// over FeasibleRM, with the RM order computed once and the inflated
// tasks rewritten in that order at each probe. The base utilization
// still sums in input order, as Breakdown's does.
func BreakdownRM(p *costmodel.Profile, specs []task.Spec) float64 {
	t := RMOverheads(p, len(specs)).PerPeriod()
	order := rmOrder(specs)
	ts := make([]inflated, len(specs))
	for i, j := range order {
		ts[i] = inflated{period: specs[j].Period, deadline: specs[j].RelDeadline()}
	}
	return bisect(specs, func(_ float64, scaled []task.Spec) bool {
		for i, j := range order {
			ts[i].wcet = scaled[j].WCET + t
		}
		return rmFeasible(ts)
	})
}

// BreakdownCSD returns the breakdown utilization under CSD-numQueues,
// where at each probed scale the partition search of §5.5.3 may choose
// a different queue split (the workload is feasible if *some* partition
// is). One partitionSearch serves the whole bisection: it retries the
// last feasible partition first, which makes the feasible side nearly
// as cheap as a fixed-partition test, and skips every partition already
// ruled out at a smaller scale.
func BreakdownCSD(p *costmodel.Profile, specs []task.Spec, numQueues int) float64 {
	rmSorted := SortRM(specs)
	return bisect(rmSorted, newPartitionSearch(p, numQueues, len(rmSorted)).feasible)
}
