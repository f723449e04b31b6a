package analysis_test

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"emeralds/internal/analysis"
	"emeralds/internal/costmodel"
	"emeralds/internal/experiments"
	"emeralds/internal/sched"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
	"emeralds/internal/workload"
)

// This file holds the searches and the CSD test as they stood before
// they were sped up, as references the tests below hold the fast ones
// to. The breakdown search ran a fresh candidate sweep at every probe,
// trying the last feasible partition first; BreakdownCSD must return
// bit-identical breakdowns. The partition choice tested every
// candidate; BestPartition must return the same partition, score bits
// and verdict. The CSD test recomputed every ceiling sum by division;
// csdVerdict must return the same verdict.

// refFindPartition is the per-probe sweep: `first` (the last known-good
// partition) before every candidate in Candidates order. It counts the
// rejections at an iteration cap it sees in *capped.
func refFindPartition(p *costmodel.Profile, rmSorted []task.Spec, numQueues int, first *sched.Partition, capped *int) (sched.Partition, bool) {
	feasible := func(part sched.Partition) bool {
		v := analysis.CSDVerdict(p, rmSorted, part)
		if v == analysis.VerdictCapped {
			*capped++
		}
		return v == analysis.VerdictFeasible
	}
	if first != nil && first.NumQueues() == numQueues &&
		first.Validate(len(rmSorted)) == nil && feasible(*first) {
		return *first, true
	}
	for _, cand := range analysis.Candidates(numQueues, len(rmSorted)) {
		if feasible(cand) {
			return cand, true
		}
	}
	return sched.Partition{}, false
}

// refBreakdownCSD bisects with refFindPartition at every probe.
func refBreakdownCSD(p *costmodel.Profile, specs []task.Spec, numQueues int, capped *int) float64 {
	rmSorted := analysis.SortRM(specs)
	var lastGood *sched.Partition
	return analysis.Breakdown(rmSorted, func(s []task.Spec) bool {
		part, ok := refFindPartition(p, s, numQueues, lastGood, capped)
		if ok {
			lastGood = &part
		}
		return ok
	})
}

// TestBreakdownCSDMatchesReference generates Figure 3–5 workloads, as
// experiments.BreakdownFigure does, and requires the pruned search to
// return the reference's breakdown bit for bit under CSD-2, -3 and -4.
// The sets must include probes where the demand test's busy period hits
// its cap: that is the rejection the pruning must not trust.
func TestBreakdownCSDMatchesReference(t *testing.T) {
	prof := costmodel.M68040()
	seeds := []int64{1, 7919}
	if testing.Short() {
		seeds = seeds[:1]
	}
	capped := 0
	for _, seed := range seeds {
		for div := 1; div <= 3; div++ {
			for _, n := range experiments.DefaultNs {
				specs := workload.Generate(workload.Config{
					N:           n,
					PeriodDiv:   div,
					Utilization: 0.5,
					Seed:        workload.SeedFor(seed, n, 0),
				})
				for q := 2; q <= 4; q++ {
					got := analysis.BreakdownCSD(prof, specs, q)
					want := refBreakdownCSD(prof, specs, q, &capped)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("seed %d div %d n=%d CSD-%d: breakdown %v, reference %v",
							seed, div, n, q, got, want)
					}
				}
			}
		}
	}
	if capped == 0 {
		t.Error("no probe hit an iteration cap: the sets miss the rejection that must not prune")
	}
}

// refBestPartition tests every candidate in Candidates order, keeps the
// first feasible one and replaces it by any feasible candidate of
// strictly lower overhead score.
func refBestPartition(p *costmodel.Profile, rmSorted []task.Spec, numQueues int) (sched.Partition, float64, bool) {
	best := sched.Partition{}
	bestScore := 0.0
	found := false
	for _, cand := range analysis.Candidates(numQueues, len(rmSorted)) {
		if !analysis.FeasibleCSD(p, rmSorted, cand) {
			continue
		}
		score := analysis.OverheadFraction(p, rmSorted, cand)
		if !found || score < bestScore {
			best, bestScore, found = cand, score, true
		}
	}
	return best, bestScore, found
}

// TestBestPartitionMatchesReference requires BestPartition to pick what
// refBestPartition picks, with the same score bits, under CSD-2, -3 and
// -4 and both cost profiles: on random sets at U 0.5–1.0, where many
// candidates fail, and on hand-built sets whose scores tie (equal
// periods; every score is 0 under the zero-cost profile) or are NaN or
// +Inf (a period-0 task).
func TestBestPartitionMatchesReference(t *testing.T) {
	sets := [][]task.Spec{
		specsOf(10, 1, 10, 1, 10, 1, 10, 1, 10, 1, 10, 1),
		append(specsOf(5, 1, 10, 2, 20, 2), task.Spec{}),
		append(specsOf(5, 1, 10, 2, 20, 2), task.Spec{WCET: 1}),
	}
	rng := rand.New(rand.NewSource(1))
	trials := 300
	if testing.Short() {
		trials = 60
	}
	for i := 0; i < trials; i++ {
		sets = append(sets, workload.Generate(workload.Config{
			N:           2 + rng.Intn(29),
			Utilization: 0.5 + 0.5*rng.Float64(),
			PeriodDiv:   1 + rng.Intn(3),
			Seed:        rng.Int63(),
		}))
	}
	found := 0
	for i, specs := range sets {
		rm := analysis.SortRM(specs)
		for _, prof := range []*costmodel.Profile{costmodel.M68040(), costmodel.Zero()} {
			for q := 2; q <= 4; q++ {
				part, score, ok := analysis.BestPartition(prof, rm, q)
				wantPart, wantScore, wantOK := refBestPartition(prof, rm, q)
				if ok != wantOK || !reflect.DeepEqual(part, wantPart) || math.Float64bits(score) != math.Float64bits(wantScore) {
					t.Errorf("set %d (%d tasks), %s, CSD-%d: got %v %v %v, reference %v %v %v",
						i, len(specs), prof.Name, q, part, score, ok, wantPart, wantScore, wantOK)
				}
				if ok {
					found++
				}
			}
		}
	}
	if total := 6 * len(sets); found == 0 || found == total {
		t.Errorf("%d of %d searches found a partition: the sets miss feasible or infeasible cases", found, total)
	}
}

// TestBreakdownRMAndEDFMatchBreakdown requires BreakdownRM and
// BreakdownEDF, which inflate the tasks once and rewrite only their
// WCETs at each probe, to return Breakdown over FeasibleRM and
// FeasibleEDF bit for bit: on the Figure 3–5 sets at seeds 1 and 7919,
// and on one set with constrained deadlines, which sends EDF through
// the demand test.
func TestBreakdownRMAndEDFMatchBreakdown(t *testing.T) {
	prof := costmodel.M68040()
	var sets [][]task.Spec
	for _, seed := range []int64{1, 7919} {
		for div := 1; div <= 3; div++ {
			for _, n := range experiments.DefaultNs {
				sets = append(sets, workload.Generate(workload.Config{
					N:           n,
					PeriodDiv:   div,
					Utilization: 0.5,
					Seed:        workload.SeedFor(seed, n, 0),
				}))
			}
		}
	}
	constrained := workload.Generate(workload.Config{N: 20, PeriodDiv: 2, Utilization: 0.5, Seed: 3})
	for i := range constrained {
		constrained[i].Deadline = constrained[i].Period * 3 / 4
	}
	sets = append(sets, constrained)
	for i, specs := range sets {
		for _, c := range []struct {
			name     string
			got      float64
			feasible func(*costmodel.Profile, []task.Spec) bool
		}{
			{"RM", analysis.BreakdownRM(prof, specs), analysis.FeasibleRM},
			{"EDF", analysis.BreakdownEDF(prof, specs), analysis.FeasibleEDF},
		} {
			want := analysis.Breakdown(specs, func(s []task.Spec) bool { return c.feasible(prof, s) })
			if math.Float64bits(c.got) != math.Float64bits(want) {
				t.Errorf("set %d (%d tasks) %s: breakdown %v, Breakdown over the feasibility test %v",
					i, len(specs), c.name, c.got, want)
			}
		}
	}
}

// refTask is one inflated task of refCSDVerdict: period, relative
// deadline and WCET plus its queue's overhead.
type refTask struct{ p, d, c int64 }

func refCeil(a, b int64) int64 {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

func refUtilization(ts []refTask) float64 {
	var u float64
	for _, t := range ts {
		u += float64(t.c) / float64(t.p)
	}
	return u
}

// refCSDVerdict is csdVerdict with every ceiling sum — the FP
// response-time climbs, the busy periods and the demand checks' supply —
// recomputed by division over every task, one term per task, at every
// iteration. It keeps csdVerdict's overload cut, warm start, iteration
// caps, checkpoint budget and check order, and tests every checkpoint
// up to the busy period.
func refCSDVerdict(p *costmodel.Profile, rmSorted []task.Spec, part sched.Partition) analysis.Verdict {
	n := len(rmSorted)
	if part.Validate(n) != nil {
		return analysis.VerdictFailed
	}
	sizes := append(slices.Clone(part.DPSizes), n-part.DPTotal())
	numDP := len(sizes) - 1
	var ts []refTask
	starts := []int{0}
	for k, size := range sizes {
		over := analysis.CSDOverheads(p, sizes, k).PerPeriod()
		for _, s := range rmSorted[len(ts) : len(ts)+size] {
			ts = append(ts, refTask{int64(s.Period), int64(s.RelDeadline()), int64(s.WCET + over)})
		}
		starts = append(starts, len(ts))
	}
	if sizes[numDP] > 0 {
		last := ts[n-1]
		if refUtilization(ts)-float64(last.c)/float64(last.p) > 1+1e-9 {
			return analysis.VerdictFailed
		}
	}
	// FP tasks: each climbs from the previous one's response time plus
	// its own WCET, against every task before it.
	var prev int64
	for i := starts[numDP]; i < n; i++ {
		r := prev + ts[i].c
		for iter := 0; ; iter++ {
			w := ts[i].c
			for _, h := range ts[:i] {
				w += refCeil(r, h.p) * h.c
			}
			if w > ts[i].d {
				return analysis.VerdictFailed
			}
			if w == r {
				break
			}
			r = w
			if iter > 10000 {
				return analysis.VerdictCapped
			}
		}
		prev = r
	}
	for k := 0; k < numDP; k++ {
		own, higher := ts[starts[k]:starts[k+1]], ts[:starts[k]]
		if len(own) == 0 {
			continue
		}
		if len(higher) == 0 && !slices.ContainsFunc(own, func(t refTask) bool { return t.d < t.p }) {
			if refUtilization(own) > 1.0 {
				return analysis.VerdictFailed
			}
		} else if v := refDemand(own, higher); v != analysis.VerdictFeasible {
			return v
		}
	}
	return analysis.VerdictFeasible
}

// refDemand is refCSDVerdict's processor-demand test of own under
// ceiling interference from higher.
func refDemand(own, higher []refTask) analysis.Verdict {
	all := slices.Concat(own, higher)
	if refUtilization(all) > 1.0 {
		return analysis.VerdictFailed
	}
	var l int64
	for _, t := range all {
		l += t.c
	}
	for iter := 0; ; iter++ {
		var w int64
		for _, t := range all {
			w += refCeil(l, t.p) * t.c
		}
		if w == l {
			break
		}
		if iter == 999 {
			return analysis.VerdictCapped
		}
		l = w
	}
	var points int64
	for _, t := range own {
		if t.d <= l {
			points += (l-t.d)/t.p + 1
			if points > analysis.MaxCheckpoints {
				return analysis.VerdictFailed
			}
		}
	}
	for _, o := range own {
		for d := o.d; d <= l; d += o.p {
			var demand int64
			for _, t := range own {
				if d >= t.d {
					demand += ((d-t.d)/t.p + 1) * t.c
				}
			}
			for _, h := range higher {
				demand += refCeil(d, h.p) * h.c
			}
			if demand > d {
				return analysis.VerdictFailed
			}
		}
	}
	return analysis.VerdictFeasible
}

// sharedPeriodSet draws n tasks whose periods all come from
// {5, 6, 7} ms, at raw utilization u. With constrained, about half
// the deadlines are drawn from [P/2, P).
func sharedPeriodSet(rng *rand.Rand, n int, u float64, constrained bool) []task.Spec {
	weights := make([]float64, n)
	var sum float64
	for i := range weights {
		weights[i] = 0.05 + rng.Float64()
		sum += weights[i]
	}
	specs := make([]task.Spec, n)
	for i := range specs {
		p := vtime.Duration(5+rng.Intn(3)) * vtime.Millisecond
		specs[i] = task.Spec{Period: p, WCET: vtime.Scale(p, u*weights[i]/sum)}
		if constrained && rng.Intn(2) == 0 {
			specs[i].Deadline = p/2 + vtime.Duration(rng.Int63n(int64(p/2)))
		}
	}
	return specs
}

// TestCSDVerdictMatchesNaive requires csdVerdict, whose climbs carry
// running sums, advance thresholds incrementally and merge equal
// periods into one term, to return refCSDVerdict's verdict — feasible,
// failed or capped — at random partitions and scales. The sets share
// periods heavily: all periods from {5, 6, 7} ms, some with
// constrained deadlines, some with a period-0 task, and Figure 3–5
// sets, whose 5–9 ms band draws from five periods. capSet, and a copy
// whose short task is split into two of equal period, reach the FP
// climb's and the busy period's caps at scale 1.
//
// The period-0 sets have implicit deadlines and stay at or below
// utilization 0.9 at every probed scale. Under the zero-cost profile
// their 0/0 utilization term makes every utilization sum NaN, which
// passes the overload checks; a constrained deadline then sends the
// period-0 task into a demand test that divides by its period, and an
// overloaded set into a busy period that overflows int64, where no
// ceiling sum means anything.
func TestCSDVerdictMatchesNaive(t *testing.T) {
	type probe struct {
		prof  *costmodel.Profile
		specs []task.Spec // RM-sorted
		part  sched.Partition
		f     float64
	}
	m68040, zero := costmodel.M68040(), costmodel.Zero()
	split := []task.Spec{
		{Period: 10 * vtime.Microsecond, WCET: 5000},
		{Period: 10 * vtime.Microsecond, WCET: 4999},
		{Period: 1000 * vtime.Second, WCET: vtime.Millisecond},
	}
	probes := []probe{
		{zero, analysis.CapSet(), sched.Partition{DPSizes: []int{1}}, 1},
		{zero, analysis.CapSet(), sched.Partition{DPSizes: []int{1, 1}}, 1},
		{zero, split, sched.Partition{DPSizes: []int{2}}, 1},
		{zero, split, sched.Partition{DPSizes: []int{2, 1}}, 1},
	}
	rng := rand.New(rand.NewSource(1))
	trials := 1000
	if testing.Short() {
		trials = 200
	}
	for i := 0; i < trials; i++ {
		var specs []task.Spec
		profs := []*costmodel.Profile{m68040}
		switch i % 4 {
		case 0, 1:
			specs = sharedPeriodSet(rng, 3+rng.Intn(28), 0.5+0.5*rng.Float64(), i%4 == 1)
		case 2:
			specs = append(sharedPeriodSet(rng, 2+rng.Intn(20), 0.2+0.25*rng.Float64(), false), task.Spec{})
			profs = append(profs, zero)
		case 3:
			n := experiments.DefaultNs[rng.Intn(len(experiments.DefaultNs))]
			specs = workload.Generate(workload.Config{N: n, PeriodDiv: 1 + rng.Intn(3), Utilization: 0.5, Seed: rng.Int63()})
		}
		rm := analysis.SortRM(specs)
		for _, prof := range profs {
			for j := 0; j < 8; j++ {
				cands := analysis.Candidates(1+rng.Intn(4), len(rm))
				probes = append(probes, probe{prof, rm, cands[rng.Intn(len(cands))], 0.8 + 1.2*rng.Float64()})
			}
		}
	}
	var seen [3]int
	straddled := 0
	for i, c := range probes {
		scaled := task.Scale(c.specs, c.f)
		got, want := analysis.CSDVerdict(c.prof, scaled, c.part), refCSDVerdict(c.prof, scaled, c.part)
		if got != want {
			t.Errorf("probe %d (%d tasks, %s, %v, scale %v): verdict %d, reference %d",
				i, len(c.specs), c.prof.Name, c.part, c.f, got, want)
		}
		seen[want]++
		if r := c.part.DPTotal(); r > 0 && r < len(c.specs) && c.specs[r-1].Period == c.specs[r].Period {
			straddled++
		}
	}
	if seen[analysis.VerdictFeasible] == 0 || seen[analysis.VerdictFailed] == 0 || seen[analysis.VerdictCapped] == 0 {
		t.Errorf("verdicts feasible/failed/capped seen %v times: the probes miss one", seen)
	}
	if straddled == 0 {
		t.Error("no partition splits an equal-period run between the DP and FP queues")
	}
	t.Logf("%d probes, verdicts feasible/failed/capped %v, %d with equal periods across the DP/FP boundary", len(probes), seen, straddled)
}
