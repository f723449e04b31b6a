package scenario

import (
	"fmt"
	"math/rand"

	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
	"emeralds/internal/workload"
)

// The scenario space: every index deterministically selects one point
// of the (policy × semaphore scheme × CPU count × archetype) product
// plus a private RNG stream, so any contiguous index range covers the
// whole product (the policy×scheme coordinate repeats mod 8, the CPU
// mix mod 24, and the archetype mod 11 — 11 is coprime with 24, so the
// full product recurs every lcm = 264 indices) and scenario i is the
// same system in every run of the same base seed.

var policies = []string{sim.PolicyCSD, sim.PolicyEDF, sim.PolicyRM, sim.PolicyRMHeap}
var cpuMix = []int{1, 2, 4}
var lockMix = []string{"percpu", "perqueue", "biglock"}

// archetype names, indexed by kind. The length must stay coprime with
// 24 (the policy × scheme × CPU-mix period) or part of the product
// becomes unreachable; TestGenCoversProduct locks this.
var kinds = []string{
	"harmonic", "nonharmonic", "deadlines", "bursty",
	"overrun", "sem-chain", "mailbox-graph",
	"vlink-fan", "vlink-pipe", "vlink-drop", "vlink-mixed",
}

// Gen generates scenario `index` of the campaign with the given base
// seed. forcedCPUs > 0 pins the CPU count (the -cpus flag); 0 mixes
// M ∈ {1, 2, 4}. Generation is a pure function of (base, index,
// forcedCPUs): the RNG stream is seeded with workload.SeedFor so the
// scenario is reproducible in isolation.
func Gen(base int64, index, forcedCPUs int) *Scenario {
	seed := workload.SeedFor(base, 0, index)
	rng := rand.New(rand.NewSource(seed))
	s := &Scenario{
		Name:   kinds[index%len(kinds)],
		Seed:   seed,
		Index:  index,
		Policy: policies[index%len(policies)],
		StdSem: (index/4)%2 == 1,
		CPUs:   forcedCPUs,
	}
	if forcedCPUs <= 0 {
		s.CPUs = cpuMix[(index/8)%len(cpuMix)]
	}
	if s.CPUs > 1 {
		s.Lock = lockMix[rng.Intn(len(lockMix))]
	}

	switch s.Name {
	case "harmonic":
		genHarmonic(s, rng)
	case "nonharmonic":
		genNonharmonic(s, rng, false)
	case "deadlines":
		genNonharmonic(s, rng, true)
	case "bursty":
		genBursty(s, rng)
	case "overrun":
		genOverrun(s, rng)
	case "sem-chain":
		genSemChain(s, rng)
	case "mailbox-graph":
		genMailboxGraph(s, rng)
	case "vlink-fan":
		genVLinkFan(s, rng, false)
	case "vlink-pipe":
		genVLinkPipe(s, rng)
	case "vlink-drop":
		genVLinkFan(s, rng, true)
	case "vlink-mixed":
		genVLinkMixed(s, rng)
	}
	if s.CPUs > 1 {
		// Pin a minority of tasks to random CPUs; AssignCPUs honors the
		// affinity, and Feasible analyses the placement Boot makes.
		for i := range s.Tasks {
			if rng.Intn(10) < 3 {
				s.Tasks[i].Spec.Affinity = 1 + rng.Intn(s.CPUs)
				s.Tasks[i].Spec.Pinned = rng.Intn(2) == 0
			}
		}
	}
	s.finishHorizon()
	return s
}

// finishHorizon picks the simulation horizon so the expected event
// count stays bounded (the trace ring is sized from the same estimate,
// with margin), while covering enough jobs of the longest-period task
// to see steady-state behavior.
func (s *Scenario) finishHorizon() {
	const targetEvents = 60000
	var perMs float64
	var maxPeriod vtime.Duration
	for _, t := range s.Tasks {
		perJob := float64(2*len(t.Spec.Prog) + 8 + batchExtra(t.Spec.Prog))
		if t.Spec.Period > 0 {
			perMs += perJob / float64(t.Spec.Period.Millis())
			if t.Spec.Period > maxPeriod {
				maxPeriod = t.Spec.Period
			}
		}
	}
	ms := 200.0
	if perMs > 0 {
		if got := targetEvents / perMs; got < ms {
			ms = got
		}
	}
	if ms < 10 {
		ms = 10
	}
	h := vtime.Millis(ms)
	if min := 3 * maxPeriod; h < min {
		h = min
	}
	s.Horizon = h
}

// genHarmonic: analysis-clean harmonic period set — base period times
// {1, 2, 4, 8} — pure-compute tasks, utilization from well under to
// just over the schedulable boundary.
func genHarmonic(s *Scenario, rng *rand.Rand) {
	s.ZeroCost = true
	base := vtime.Millis(float64(2 + rng.Intn(9))) // 2–10 ms
	mult := []int{1, 2, 4, 8}
	n := 4 + rng.Intn(5)
	u := 0.5 + rng.Float64()*0.6 // 0.5 – 1.1: straddle the boundary
	weights := make([]float64, n)
	var wsum float64
	periods := make([]vtime.Duration, n)
	for i := range weights {
		periods[i] = base * vtime.Duration(mult[rng.Intn(len(mult))])
		weights[i] = 0.1 + rng.Float64()
		wsum += weights[i]
	}
	for i := 0; i < n; i++ {
		c := vtime.Scale(periods[i], u*weights[i]/wsum)
		if c < vtime.Micros(10) {
			c = vtime.Micros(10)
		}
		if c > periods[i] {
			c = periods[i]
		}
		s.Tasks = append(s.Tasks, Task{Spec: task.Spec{
			Name:   fmt.Sprintf("h%d", i),
			Period: periods[i],
			WCET:   c,
			Phase:  vtime.Duration(rng.Intn(int(base))),
		}})
	}
}

// genNonharmonic: the §5.7 band recipe via workload.Generate, optionally
// with explicit deadlines in [WCET, Period]. Analysis-clean.
func genNonharmonic(s *Scenario, rng *rand.Rand, deadlines bool) {
	s.ZeroCost = true
	specs := workload.Generate(workload.Config{
		N:           5 + rng.Intn(8),
		PeriodDiv:   1 + rng.Intn(3),
		Utilization: 0.5 + rng.Float64()*0.6,
		Seed:        rng.Int63(),
	})
	for i, sp := range specs {
		sp.Name = fmt.Sprintf("t%d", i)
		sp.Phase = vtime.Duration(rng.Intn(int(vtime.Millisecond)))
		if deadlines && rng.Intn(2) == 0 {
			slack := sp.Period - sp.WCET
			sp.Deadline = sp.WCET + vtime.Scale(slack, 0.3+0.7*rng.Float64())
		}
		s.Tasks = append(s.Tasks, Task{Spec: sp})
	}
}

// genBursty: periodic background plus aperiodic tasks arriving in
// bursts. Aperiodic tasks carry explicit generous deadlines (an
// aperiodic release stamps AbsDeadline = now + RelDeadline, and Period
// 0 would otherwise mean an instant miss). Not analysis-clean.
func genBursty(s *Scenario, rng *rand.Rand) {
	s.ZeroCost = rng.Intn(2) == 0
	specs := workload.Generate(workload.Config{
		N:           4 + rng.Intn(4),
		Utilization: 0.3 + rng.Float64()*0.4,
		Seed:        rng.Int63(),
	})
	for i, sp := range specs {
		sp.Name = fmt.Sprintf("bg%d", i)
		s.Tasks = append(s.Tasks, Task{Spec: sp})
	}
	nAper := 1 + rng.Intn(2)
	for a := 0; a < nAper; a++ {
		wcet := vtime.Duration(50+rng.Intn(500)) * vtime.Microsecond
		spec := task.Spec{
			Name:     fmt.Sprintf("ap%d", a),
			Period:   0,
			WCET:     wcet,
			Deadline: vtime.Millis(float64(5 + rng.Intn(15))),
		}
		// Bursts: clusters of closely spaced arrivals over ~150 ms.
		var arrivals []vtime.Time
		at := vtime.Time(0)
		for b := 0; b < 2+rng.Intn(3); b++ {
			at = at.Add(vtime.Millis(float64(5 + rng.Intn(40))))
			for j := 0; j < 1+rng.Intn(4); j++ {
				at = at.Add(vtime.Duration(rng.Intn(2000)) * vtime.Microsecond)
				arrivals = append(arrivals, at)
			}
		}
		s.Tasks = append(s.Tasks, Task{Spec: spec, Arrivals: arrivals})
	}
}

// genOverrun: one task's program computes more than its declared WCET —
// the analysis sees the honest-looking Spec, the simulator executes the
// overrun. The differential oracle must NOT apply (Prog non-nil keeps
// the scenario out of AnalysisClean); oracles (b) and (d) still hold.
func genOverrun(s *Scenario, rng *rand.Rand) {
	s.ZeroCost = rng.Intn(2) == 0
	specs := workload.Generate(workload.Config{
		N:           4 + rng.Intn(5),
		Utilization: 0.4 + rng.Float64()*0.4,
		Seed:        rng.Int63(),
	})
	liar := rng.Intn(len(specs))
	for i, sp := range specs {
		sp.Name = fmt.Sprintf("t%d", i)
		if i == liar {
			factor := 1.5 + rng.Float64()*1.5 // executes 1.5–3× the declared WCET
			sp.Prog = task.Program{task.Compute(vtime.Scale(sp.WCET, factor))}
			sp.Name = "liar"
		}
		s.Tasks = append(s.Tasks, Task{Spec: sp})
	}
}

// genSemChain: deep nested critical sections. Nesting always acquires
// in ascending semaphore order, so the scenarios stay deadlock-free and
// exercise the §6 blocking machinery instead of hanging. Compute-only
// critical sections keep single-CPU instances eligible for the
// inversion oracle.
func genSemChain(s *Scenario, rng *rand.Rand) {
	s.ZeroCost = rng.Intn(2) == 0
	s.Mutexes = 2 + rng.Intn(3)
	n := 3 + rng.Intn(4)
	periods := []vtime.Duration{4 * vtime.Millisecond, 5 * vtime.Millisecond,
		8 * vtime.Millisecond, 10 * vtime.Millisecond, 20 * vtime.Millisecond}
	for i := 0; i < n; i++ {
		period := periods[rng.Intn(len(periods))]
		depth := 2 + rng.Intn(s.Mutexes)
		if depth > s.Mutexes {
			depth = s.Mutexes
		}
		first := rng.Intn(s.Mutexes - depth + 1)
		inner := vtime.Duration(30+rng.Intn(200)) * vtime.Microsecond
		var prog task.Program
		for d := 0; d < depth; d++ {
			prog = append(prog, task.Acquire(first+d), task.Compute(inner))
		}
		for d := depth - 1; d >= 0; d-- {
			prog = append(prog, task.Release(first+d))
		}
		prog = append(prog, task.Compute(vtime.Duration(50+rng.Intn(300))*vtime.Microsecond))
		spec := task.Spec{
			Name:   fmt.Sprintf("t%d", i),
			Period: period,
			WCET:   prog.ComputeTime(),
			Phase:  vtime.Duration(rng.Intn(1500)) * vtime.Microsecond,
			Prog:   prog,
		}
		s.Tasks = append(s.Tasks, Task{Spec: spec})
	}
}

// genMailboxGraph: a producer/consumer pipeline over bounded mailboxes
// (t0 → mb0 → t1 → mb1 → …), with tight capacities so both the full and
// empty edges of the new block-or-error mailbox semantics are hit.
func genMailboxGraph(s *Scenario, rng *rand.Rand) {
	s.ZeroCost = rng.Intn(2) == 0
	stages := 2 + rng.Intn(3)
	for i := 0; i < stages-1; i++ {
		s.Mailboxes = append(s.Mailboxes, 1+rng.Intn(3))
	}
	periods := []vtime.Duration{5 * vtime.Millisecond, 8 * vtime.Millisecond,
		10 * vtime.Millisecond, 20 * vtime.Millisecond}
	for i := 0; i < stages; i++ {
		var prog task.Program
		if i > 0 {
			prog = append(prog, task.Recv(i-1))
		}
		prog = append(prog, task.Compute(vtime.Duration(100+rng.Intn(400))*vtime.Microsecond))
		if i < stages-1 {
			// Producers sometimes send twice per period to overrun the
			// mailbox capacity and exercise sender blocking.
			prog = append(prog, task.Send(i, int64(i), 8+rng.Intn(56)))
			if rng.Intn(3) == 0 {
				prog = append(prog, task.Send(i, int64(i), 8))
			}
		}
		spec := task.Spec{
			Name:   fmt.Sprintf("s%d", i),
			Period: periods[rng.Intn(len(periods))],
			WCET:   prog.ComputeTime(),
			Phase:  vtime.Duration(rng.Intn(2000)) * vtime.Microsecond,
			Prog:   prog,
		}
		s.Tasks = append(s.Tasks, Task{Spec: spec})
	}
}

// genVLinkFan: the MPMC shape — several producers batch-sending into
// one shared virtual link, several consumers draining it. Communication
// is one-directional (a DAG), so the trace must always be
// synchronizable; what varies is contention on the wakeup paths. With
// drop=true the link is lossy: producers never block and the surplus is
// counted, exercising the drop accounting end to end.
func genVLinkFan(s *Scenario, rng *rand.Rand, drop bool) {
	s.ZeroCost = rng.Intn(2) == 0
	nProd := 2 + rng.Intn(2)
	nCons := 2 + rng.Intn(2)
	batch := 1 + rng.Intn(3)
	cap := batch + rng.Intn(4) // a block-mode batch must be able to fit
	if drop {
		cap = 1 + rng.Intn(3) // lossy links can be tighter than a batch
	}
	s.VLinks = []VLinkSpec{{Cap: cap, Drop: drop}}
	period := vtime.Duration(5+5*rng.Intn(3)) * vtime.Millisecond
	for i := 0; i < nProd; i++ {
		prog := task.Program{
			task.Compute(vtime.Duration(50+rng.Intn(200)) * vtime.Microsecond),
			task.VSend(0, int64(i+1), 8+rng.Intn(56), batch),
		}
		s.Tasks = append(s.Tasks, Task{Spec: task.Spec{
			Name:   fmt.Sprintf("p%d", i),
			Period: period,
			WCET:   prog.ComputeTime(),
			Phase:  vtime.Duration(rng.Intn(2000)) * vtime.Microsecond,
			Prog:   prog,
		}})
	}
	// Consumers jointly at least match the production rate in block
	// mode, so backpressure clears within a few periods; in drop mode
	// they deliberately lag so the link overflows.
	perCons := (nProd*batch + nCons - 1) / nCons
	if drop {
		perCons = 1
	}
	for i := 0; i < nCons; i++ {
		prog := task.Program{}
		for r := 0; r < perCons; r++ {
			prog = append(prog, task.VRecv(0))
		}
		prog = append(prog, task.Compute(vtime.Duration(50+rng.Intn(200))*vtime.Microsecond))
		s.Tasks = append(s.Tasks, Task{Spec: task.Spec{
			Name:   fmt.Sprintf("c%d", i),
			Period: period,
			WCET:   prog.ComputeTime(),
			Phase:  vtime.Duration(2000+rng.Intn(2000)) * vtime.Microsecond,
			Prog:   prog,
		}})
	}
}

// genVLinkPipe: a pipeline over block-mode virtual links, the vlink
// twin of mailbox-graph — except stage boundaries move whole batches,
// so one op can fill a link and the all-or-nothing batch blocking is
// exercised alongside per-message receives.
func genVLinkPipe(s *Scenario, rng *rand.Rand) {
	s.ZeroCost = rng.Intn(2) == 0
	stages := 3 + rng.Intn(2)
	batch := 1 + rng.Intn(3)
	for i := 0; i < stages-1; i++ {
		s.VLinks = append(s.VLinks, VLinkSpec{Cap: batch + rng.Intn(3)})
	}
	period := vtime.Duration(5+5*rng.Intn(3)) * vtime.Millisecond
	for i := 0; i < stages; i++ {
		var prog task.Program
		if i > 0 {
			for r := 0; r < batch; r++ {
				prog = append(prog, task.VRecv(i-1))
			}
		}
		prog = append(prog, task.Compute(vtime.Duration(100+rng.Intn(400))*vtime.Microsecond))
		if i < stages-1 {
			prog = append(prog, task.VSend(i, int64(i), 8+rng.Intn(56), batch))
		}
		s.Tasks = append(s.Tasks, Task{Spec: task.Spec{
			Name:   fmt.Sprintf("s%d", i),
			Period: period,
			WCET:   prog.ComputeTime(),
			Phase:  vtime.Duration(rng.Intn(2000)) * vtime.Microsecond,
			Prog:   prog,
		}})
	}
}

// genVLinkMixed: one DAG mixing the two queue families — a mailbox hop
// feeding a vlink hop — so the synchronizability oracle sees matched
// msg-send/recv and vlink-send/recv events in a single causal order,
// and the kernel interleaves both wakeup paths in one scenario.
func genVLinkMixed(s *Scenario, rng *rand.Rand) {
	s.ZeroCost = rng.Intn(2) == 0
	batch := 1 + rng.Intn(2)
	s.Mailboxes = []int{1 + rng.Intn(3)}
	s.VLinks = []VLinkSpec{{Cap: batch + rng.Intn(3)}}
	period := vtime.Duration(5+5*rng.Intn(3)) * vtime.Millisecond
	head := task.Program{
		task.Compute(vtime.Duration(100+rng.Intn(300)) * vtime.Microsecond),
		task.Send(0, 1, 8+rng.Intn(24)),
	}
	mid := task.Program{
		task.Recv(0),
		task.Compute(vtime.Duration(100+rng.Intn(300)) * vtime.Microsecond),
		task.VSend(0, 2, 8+rng.Intn(24), batch),
	}
	tail := task.Program{}
	for r := 0; r < batch; r++ {
		tail = append(tail, task.VRecv(0))
	}
	tail = append(tail, task.Compute(vtime.Duration(100+rng.Intn(300))*vtime.Microsecond))
	for i, prog := range []task.Program{head, mid, tail} {
		s.Tasks = append(s.Tasks, Task{Spec: task.Spec{
			Name:   fmt.Sprintf("x%d", i),
			Period: period,
			WCET:   prog.ComputeTime(),
			Phase:  vtime.Duration(rng.Intn(2000)) * vtime.Microsecond,
			Prog:   prog,
		}})
	}
}
