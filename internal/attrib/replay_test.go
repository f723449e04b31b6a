package attrib_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"emeralds/internal/attrib"
	"emeralds/internal/kernel"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/trace"
	"emeralds/internal/vtime"
)

// checkSameAsReference holds Analyze to the reference replay on one
// trace: the same error, or analyses whose exported fields are equal,
// with every activation's exported fields equal to the reference's and
// its Intervals() equal to the intervals the reference built for it.
func checkSameAsReference(t *testing.T, label string, events []trace.Event) {
	t.Helper()
	got, gotErr := attrib.Analyze(events, 0)
	want, wantIntervals, wantErr := attrib.AnalyzeReference(events, 0)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: Analyze error %v, reference %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if f := differingField(*got, *want, "Activations"); f != "" {
		t.Fatalf("%s: Analysis.%s differs:\n got %+v\nwant %+v", label, f, got, want)
	}
	if len(got.Activations) != len(want.Activations) {
		t.Fatalf("%s: %d activations, reference %d", label, len(got.Activations), len(want.Activations))
	}
	for i := range got.Activations {
		g, w := &got.Activations[i], &want.Activations[i]
		if f := differingField(*g, *w); f != "" {
			t.Fatalf("%s: activation %d: %s differs:\n got %+v\nwant %+v", label, i, f, *g, *w)
		}
		if ivs := g.Intervals(); !reflect.DeepEqual(ivs, wantIntervals[i]) {
			t.Fatalf("%s: activation %d (%s #%d): intervals differ:\n got %+v\nwant %+v",
				label, i, g.Task, g.Index, ivs, wantIntervals[i])
		}
	}
}

// differingField returns the name of the first exported field of the
// structs a and b, other than those in skip, on which they differ under
// reflect.DeepEqual; "" when there is none.
func differingField(a, b any, skip ...string) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		f := va.Type().Field(i)
		if !f.IsExported() || slices.Contains(skip, f.Name) {
			continue
		}
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return f.Name
		}
	}
	return ""
}

// randomNode builds a random contended workload: nested mutexes (so
// blocking chains form), a counting semaphore (which priority
// inheritance cannot cover, so inversions occur), delays, events and
// mailbox traffic. It also schedules event signals from interrupt
// context and, on more than one CPU, migrations.
func randomNode(t *testing.T, seed int64, cpus int) *kernel.Node {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	policies := []string{sim.PolicyCSD, sim.PolicyRM, sim.PolicyEDF, sim.PolicyRMHeap, sim.PolicyFP}
	sys := kernel.NewNode(sim.Config{
		Policy:        policies[rng.Intn(len(policies))],
		StandardSem:   rng.Intn(2) == 0,
		CPUs:          cpus,
		TraceCapacity: 1 << 20,
	})
	mutexes := make([]int, 1+rng.Intn(3))
	for i := range mutexes {
		mutexes[i] = sys.NewSemaphore(fmt.Sprintf("m%d", i))
	}
	counting := sys.NewCountingSemaphore("pool", 2)
	ev := sys.NewEvent("ev")
	mbox := sys.NewMailbox("mb", 1+rng.Intn(2))
	periods := []vtime.Duration{2 * vtime.Millisecond, 3 * vtime.Millisecond, 5 * vtime.Millisecond,
		8 * vtime.Millisecond, 10 * vtime.Millisecond, 20 * vtime.Millisecond}
	n := 3 + rng.Intn(5)
	for i := 0; i < n; i++ {
		period := periods[rng.Intn(len(periods))]
		budget := period / vtime.Duration(2+rng.Intn(4))
		var prog task.Program
		for budget > 0 {
			c := min(vtime.Duration(30+rng.Intn(400))*vtime.Microsecond, budget)
			budget -= c
			switch rng.Intn(10) {
			case 0, 1: // one critical section
				m := mutexes[rng.Intn(len(mutexes))]
				prog = append(prog, task.Acquire(m), task.Compute(c), task.Release(m))
			case 2: // nested critical sections, in index order so none deadlock
				a := rng.Intn(len(mutexes))
				b := a + rng.Intn(len(mutexes)-a)
				prog = append(prog, task.Acquire(mutexes[a]), task.Compute(c/2))
				if b != a {
					prog = append(prog, task.Acquire(mutexes[b]), task.Compute(c/2), task.Release(mutexes[b]))
				}
				prog = append(prog, task.Release(mutexes[a]))
			case 3:
				prog = append(prog, task.Acquire(counting), task.Compute(c), task.Release(counting))
			case 4:
				prog = append(prog, task.Delay(vtime.Duration(20+rng.Intn(200))*vtime.Microsecond), task.Compute(c))
			case 5:
				prog = append(prog, task.SignalEvent(ev), task.Compute(c))
			case 6:
				if rng.Intn(2) == 0 {
					prog = append(prog, task.Send(mbox, int64(i), 8), task.Compute(c))
				} else {
					prog = append(prog, task.Compute(c), task.Recv(mbox))
				}
			default:
				prog = append(prog, task.Compute(c))
			}
		}
		sys.AddTask(task.Spec{
			Name:   fmt.Sprintf("t%d", i),
			Period: period,
			Phase:  vtime.Duration(rng.Intn(1000)) * vtime.Microsecond,
			Prog:   prog,
		})
	}
	if err := sys.Boot(); err != nil {
		t.Fatalf("seed %d: boot: %v", seed, err)
	}
	k := sys.Kernel()
	ths := k.Threads()
	for ms := 1 + rng.Intn(4); ms < 50; ms += 1 + rng.Intn(6) {
		at := vtime.Time(0).Add(vtime.Duration(ms) * vtime.Millisecond)
		if cpus > 1 && rng.Intn(2) == 0 {
			th := ths[rng.Intn(len(ths))]
			k.Engine().At(at, "test:migrate", func() { _ = k.Migrate(th, (th.TCB.CPU+1)%cpus) })
		} else {
			k.Engine().At(at, "test:signal", func() { k.SignalEventISR(ev) })
		}
	}
	return sys
}

// TestAnalyzeMatchesReferenceOnKernelTraces: on random single- and
// multi-CPU kernel traces, Analyze returns exactly the reference
// replay's analysis.
func TestAnalyzeMatchesReferenceOnKernelTraces(t *testing.T) {
	var blocked, inversions, migrated, aborted int
	for seed := int64(1); seed <= 48; seed++ {
		cpus := []int{1, 1, 2, 4}[seed%4]
		sys := randomNode(t, seed, cpus)
		sys.Run(60 * vtime.Millisecond)
		if d := sys.Trace().Dropped(); d != 0 {
			t.Fatalf("seed %d: trace ring dropped %d events", seed, d)
		}
		evs := sys.Trace().Events()
		checkSameAsReference(t, fmt.Sprintf("seed %d (%d CPUs)", seed, cpus), evs)
		an, _ := attrib.Analyze(evs, 0)
		inversions += len(an.Inversions)
		for _, a := range an.Activations {
			if a.Comp[attrib.Blocked] > 0 {
				blocked++
			}
			if a.Comp[attrib.Migration] > 0 {
				migrated++
			}
			if a.Aborted {
				aborted++
			}
		}
	}
	// The equality must not hold vacuously.
	if blocked == 0 || inversions == 0 || migrated == 0 || aborted == 0 {
		t.Errorf("traces lack variety: %d blocked, %d inversion windows, %d migrated, %d aborted activations",
			blocked, inversions, migrated, aborted)
	}
}

// randomEvents is a hand-built event stream that need not follow any
// kernel's rules: kinds drawn from kinds (all kinds when nil), few names
// (including the empty one), semaphore details with and without
// holders, job kills, forced releases, CPU ids below cpus and many
// events at one instant.
func randomEvents(rng *rand.Rand, n int, kinds []trace.Kind, cpus int) []trace.Event {
	tasks := []string{"a", "b", "c", "d", "e", ""}
	sems := []string{"m", "n", ""}
	evs := make([]trace.Event, 0, n)
	var at vtime.Time
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 {
			at = at.Add(vtime.Duration(rng.Intn(50)))
		}
		e := trace.Event{
			At:   at,
			Kind: trace.Kind(rng.Intn(int(trace.NumKinds))),
			Task: tasks[rng.Intn(len(tasks))],
			CPU:  rng.Intn(cpus),
		}
		if kinds != nil {
			e.Kind = kinds[rng.Intn(len(kinds))]
		}
		if rng.Intn(2) == 0 {
			e.Dur = vtime.Duration(rng.Intn(20))
		}
		sem := sems[rng.Intn(len(sems))]
		switch e.Kind {
		case trace.TaskInfo:
			e.Detail = fmt.Sprintf("prio=%d period=%d deadline=%d", rng.Intn(6)-1, 100+rng.Intn(100), 50+rng.Intn(200))
		case trace.SemBlockWait, trace.SemHintPI:
			e.Detail = sem
			if rng.Intn(3) > 0 {
				e.Detail += " holder=" + tasks[rng.Intn(len(tasks))]
			}
		case trace.SemAcquire, trace.SemGrant, trace.SemRelease:
			e.Detail = sem
		case trace.Fault:
			e.Detail = "job ended holding " + sem
		case trace.BlockEv:
			e.Detail = []string{"job-killed", "delay", "suspend", "mb empty"}[rng.Intn(4)]
		case trace.Migrate:
			e.Detail = fmt.Sprintf("to=cpu%d", rng.Intn(cpus))
		}
		evs = append(evs, e)
	}
	return evs
}

// TestAnalyzeMatchesReferenceOnHandBuiltStreams: on event streams no
// kernel would emit, Analyze still returns exactly the reference
// replay's analysis.
func TestAnalyzeMatchesReferenceOnHandBuiltStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		checkSameAsReference(t, fmt.Sprintf("stream %d", i), randomEvents(rng, 20+rng.Intn(300), nil, 4))
	}
}

// TestAnalyzeMatchesReferenceOnInversionStreams: hand-built streams in
// which every task has a priority and semaphore waits, dispatches and
// migrations dominate, on three CPUs. Many inversion windows open and
// close there, several of them at one instant, so their order in the
// output is checked too.
func TestAnalyzeMatchesReferenceOnInversionStreams(t *testing.T) {
	kinds := []trace.Kind{trace.Release, trace.Dispatch, trace.Dispatch, trace.Dispatch, trace.Preempt,
		trace.SemBlockWait, trace.SemBlockWait, trace.SemBlockWait, trace.SemAcquire, trace.SemGrant,
		trace.SemRelease, trace.UnblockEv, trace.Complete, trace.Migrate, trace.MigrateDone, trace.Idle}
	rng := rand.New(rand.NewSource(2))
	var windows int
	for i := 0; i < 2000; i++ {
		var evs []trace.Event
		for p, name := range []string{"a", "b", "c", "d", "e"} {
			evs = append(evs, trace.Event{Kind: trace.TaskInfo, Task: name, CPU: rng.Intn(3),
				Detail: fmt.Sprintf("prio=%d period=100 deadline=100", p)})
		}
		evs = append(evs, randomEvents(rng, 20+rng.Intn(200), kinds, 3)...)
		checkSameAsReference(t, fmt.Sprintf("stream %d", i), evs)
		an, _ := attrib.Analyze(evs, 0)
		windows += len(an.Inversions)
	}
	if windows < 1000 {
		t.Errorf("only %d inversion windows in all streams", windows)
	}
}
