package kernel

import (
	"fmt"
	"math/rand"
	"testing"

	"emeralds/internal/costmodel"
	"emeralds/internal/sched"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/trace"
	"emeralds/internal/vtime"
)

// randomProgram builds a random but well-formed task body: properly
// nested critical sections taken in ascending semaphore order (so the
// workload cannot deadlock), interleaved with compute, state-message
// traffic, and optional mailbox sends.
func randomProgram(rng *rand.Rand, sems []int, states []int, mbox int) task.Program {
	var prog task.Program
	nOps := 2 + rng.Intn(6)
	for i := 0; i < nOps; i++ {
		switch rng.Intn(5) {
		case 0, 1:
			prog = append(prog, task.Compute(vtime.Duration(50+rng.Intn(400))*vtime.Microsecond))
		case 2:
			if len(sems) > 0 {
				// One or two nested locks in ascending id order.
				a := rng.Intn(len(sems))
				prog = append(prog, task.Acquire(sems[a]))
				inner := -1
				if a+1 < len(sems) && rng.Intn(2) == 0 {
					inner = sems[a+1]
					prog = append(prog, task.Acquire(inner))
				}
				prog = append(prog, task.Compute(vtime.Duration(20+rng.Intn(200))*vtime.Microsecond))
				if inner >= 0 {
					prog = append(prog, task.Release(inner))
				}
				prog = append(prog, task.Release(sems[a]))
			}
		case 3:
			if len(states) > 0 {
				id := states[rng.Intn(len(states))]
				if rng.Intn(2) == 0 {
					prog = append(prog, task.StateWrite(id, int64(rng.Intn(1000)), 8))
				} else {
					prog = append(prog, task.StateRead(id))
				}
			}
		case 4:
			if mbox >= 0 && rng.Intn(3) == 0 {
				prog = append(prog, task.Send(mbox, int64(rng.Intn(100)), 8))
			} else {
				prog = append(prog, task.Compute(vtime.Duration(30+rng.Intn(100))*vtime.Microsecond))
			}
		}
	}
	return prog
}

// buildStressKernel assembles one randomized system on a node built
// from cfg; identical seeds must produce identical systems.
func buildStressKernel(seed int64, cfg sim.Config) (*Node, *Kernel) {
	rng := rand.New(rand.NewSource(seed))
	n, k := newNode(cfg)
	sems := []int{k.NewSemaphore("s0"), k.NewSemaphore("s1"), k.NewSemaphore("s2")}
	states := []int{k.NewStateMessage("st0", 3, 8), k.NewStateMessage("st1", 3, 8)}
	mbox := k.NewMailbox("mb", 4)

	nTasks := 4 + rng.Intn(6)
	for i := 0; i < nTasks; i++ {
		period := vtime.Duration(5+rng.Intn(60)) * vtime.Millisecond
		prog := randomProgram(rng, sems, states, mbox)
		k.AddTask(task.Spec{
			Name:   fmt.Sprintf("t%02d", i),
			Period: period,
			Phase:  vtime.Duration(rng.Intn(5)) * vtime.Millisecond,
			Prog:   prog,
		})
	}
	// One drain task so mailbox senders cannot block forever.
	k.AddTask(task.Spec{
		Name:   "drain",
		Period: 8 * vtime.Millisecond,
		Prog: task.Program{
			task.Recv(mbox),
			task.Compute(20 * vtime.Microsecond),
		},
	})
	return n, k
}

// TestKernelStressRandom runs many random systems under every scheduler
// and both semaphore builds, checking structural invariants and
// conservation laws after each run. Any panic, queue corruption or
// accounting drift fails.
func TestKernelStressRandom(t *testing.T) {
	schedulers := map[string]sim.Config{
		"EDF":     {Policy: sim.PolicyEDF},
		"RM":      {Policy: sim.PolicyRM},
		"RM-heap": {Policy: sim.PolicyRMHeap},
		"CSD-3":   {Policy: sim.PolicyCSD, DPSizes: []int{2, 2}},
	}
	for name, cfg := range schedulers {
		for _, optimized := range []bool{false, true} {
			cfg.StandardSem = !optimized
			for seed := int64(1); seed <= 12; seed++ {
				n, k := buildStressKernel(seed, cfg)
				boot(t, n)
				k.Run(300 * vtime.Millisecond)
				st := k.Stats()
				label := fmt.Sprintf("%s/opt=%v/seed=%d", name, optimized, seed)
				if st.Releases == 0 {
					t.Fatalf("%s: nothing ran", label)
				}
				if st.Completions > st.Releases {
					t.Errorf("%s: completions %d > releases %d", label, st.Completions, st.Releases)
				}
				if st.UsefulCompute > 300*vtime.Millisecond {
					t.Errorf("%s: useful compute %v exceeds the horizon", label, st.UsefulCompute)
				}
				// Structural invariants after the run.
				switch s := k.Scheduler().(type) {
				case *sched.RM:
					if err := s.Queue().CheckInvariants(); err != nil {
						t.Errorf("%s: %v", label, err)
					}
				case *sched.CSD:
					if err := s.CheckInvariants(); err != nil {
						t.Errorf("%s: %v", label, err)
					}
				case *sched.RMHeap:
					if err := s.Heap().CheckInvariants(); err != nil {
						t.Errorf("%s: %v", label, err)
					}
				}
				// No semaphore may be left owned by a thread that is
				// blocked on that same semaphore (trivial self-deadlock).
				for id := range k.sems {
					s := k.sems[id]
					if s.owner != nil && s.owner.waitingSem == s {
						t.Errorf("%s: sem %d owned by its own waiter", label, id)
					}
				}
			}
		}
	}
}

// TestKernelStressDeterminism: the same seed must produce bit-identical
// traces across runs, for every scheduler and both semaphore builds.
func TestKernelStressDeterminism(t *testing.T) {
	for _, optimized := range []bool{false, true} {
		run := func() []trace.Event {
			n, k := buildStressKernel(42, sim.Config{Policy: sim.PolicyCSD, DPSizes: []int{2, 2},
				StandardSem: !optimized, TraceCapacity: 1 << 15})
			boot(t, n)
			k.Run(300 * vtime.Millisecond)
			return k.Trace().Events()
		}
		a, b := run(), run()
		if len(a) != len(b) {
			t.Fatalf("opt=%v: trace lengths %d vs %d", optimized, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("opt=%v: traces diverge at %d: %v vs %v", optimized, i, a[i], b[i])
			}
		}
	}
}

// TestKernelStressSchemeEquivalence: under the zero-cost profile the
// §6 optimization must not change any completion count (the §6.3.2
// argument, on arbitrary random workloads rather than the curated
// scenario).
func TestKernelStressSchemeEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		counts := func(optimized bool) []uint64 {
			prof := costmodel.Zero()
			rng := rand.New(rand.NewSource(seed))
			n, k := newNode(sim.Config{Policy: sim.PolicyRM, Profile: prof, StandardSem: !optimized})
			sems := []int{k.NewSemaphore("s0"), k.NewSemaphore("s1"), k.NewSemaphore("s2")}
			states := []int{k.NewStateMessage("st0", 3, 8)}
			nTasks := 4 + rng.Intn(5)
			for i := 0; i < nTasks; i++ {
				k.AddTask(task.Spec{
					Name:   fmt.Sprintf("t%02d", i),
					Period: vtime.Duration(5+rng.Intn(40)) * vtime.Millisecond,
					Prog:   randomProgram(rng, sems, states, -1),
				})
			}
			boot(t, n)
			k.Run(400 * vtime.Millisecond)
			out := make([]uint64, len(k.Threads()))
			for i, th := range k.Threads() {
				out[i] = th.TCB.Completions
			}
			return out
		}
		std, opt := counts(false), counts(true)
		for i := range std {
			if std[i] != opt[i] {
				t.Errorf("seed %d task %d: standard %d vs optimized %d completions",
					seed, i, std[i], opt[i])
			}
		}
	}
}
