package scenario

import (
	"fmt"
	"reflect"
	"testing"

	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

// Gen must be a pure function of (base, index, forcedCPUs): campaign
// reports would otherwise depend on worker interleaving.
func TestGenDeterministic(t *testing.T) {
	for index := 0; index < 40; index++ {
		a := Gen(7, index, 0)
		b := Gen(7, index, 0)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("index %d: Gen not deterministic:\n%+v\n%+v", index, a, b)
		}
	}
	if reflect.DeepEqual(Gen(7, 3, 0), Gen(8, 3, 0)) {
		t.Fatal("different base seeds produced identical scenarios")
	}
}

// A contiguous index range must sweep the whole coordinate product:
// every policy × semaphore scheme × CPU count, and every archetype.
func TestGenCoverage(t *testing.T) {
	coords := map[string]bool{}
	kinds := map[string]bool{}
	for index := 0; index < 168; index++ {
		s := Gen(1, index, 0)
		coords[fmt.Sprintf("%s/%v/%d", s.Policy, s.StdSem, s.CPUs)] = true
		kinds[s.Name] = true
		if s.CPUs > 1 && s.Lock == "" {
			t.Fatalf("index %d: multicore scenario with no lock regime", index)
		}
	}
	if want := 4 * 2 * 3; len(coords) != want {
		t.Fatalf("saw %d policy/scheme/CPUs coordinates, want %d: %v", len(coords), want, coords)
	}
	if want := 11; len(kinds) != want {
		t.Fatalf("saw %d archetypes, want %d: %v", len(kinds), want, kinds)
	}
	// Pinning the CPU count must not disturb the rest of the coordinates.
	for index := 0; index < 24; index++ {
		s := Gen(1, index, 4)
		if s.CPUs != 4 {
			t.Fatalf("index %d: forced CPUs=4, got %d", index, s.CPUs)
		}
	}
}

// The archetype count must stay coprime with the 24-index
// policy × scheme × CPU cycle: over one 264-index period every
// (archetype, policy, scheme, CPUs) tuple is generated exactly once.
// gen.go's header comment promises this; growing the kinds table to a
// length sharing a factor with 24 would silently lock whole
// combinations out of the campaign forever (9 kinds, for example,
// pins each archetype/policy/scheme combo to a single CPU count).
func TestGenCoversProduct(t *testing.T) {
	const period = 11 * 24 // lcm(len(kinds), 24)
	seen := map[string]int{}
	for index := 500; index < 500+period; index++ {
		s := Gen(3, index, 0)
		seen[fmt.Sprintf("%s/%s/%v/%d", s.Name, s.Policy, s.StdSem, s.CPUs)]++
	}
	if want := 11 * 4 * 2 * 3; len(seen) != want {
		t.Fatalf("saw %d distinct tuples, want %d", len(seen), want)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("tuple %s generated %d times in one period", k, n)
		}
	}
}

func TestAnalysisCleanGate(t *testing.T) {
	base := Scenario{ZeroCost: true, Tasks: []Task{
		{Spec: task.Spec{Name: "a", Period: vtime.Millis(10), WCET: vtime.Millis(1)}},
	}}
	if !base.AnalysisClean() {
		t.Fatal("pure-compute periodic zero-cost set must be analysis-clean")
	}
	costed := base
	costed.ZeroCost = false
	if costed.AnalysisClean() {
		t.Fatal("costed profile must disable the differential oracle")
	}
	withProg := clone(&base)
	withProg.Tasks[0].Spec.Prog = task.Program{task.Compute(vtime.Millis(1))}
	if withProg.AnalysisClean() {
		t.Fatal("programs must disable the differential oracle")
	}
	aper := clone(&base)
	aper.Tasks[0].Spec.Period = 0
	if aper.AnalysisClean() {
		t.Fatal("aperiodic tasks must disable the differential oracle")
	}
}

func TestInversionCleanGate(t *testing.T) {
	prog := func(ops ...task.Op) []Task {
		return []Task{{Spec: task.Spec{Name: "a", Period: vtime.Millis(10),
			WCET: vtime.Millis(1), Prog: ops}}}
	}
	pure := Scenario{Mutexes: 1, Tasks: prog(
		task.Acquire(0), task.Compute(vtime.Micros(100)), task.Release(0))}
	if !pure.InversionClean() {
		t.Fatal("pure-compute critical section must keep oracle (c) armed")
	}
	multi := pure
	multi.CPUs = 2
	if multi.InversionClean() {
		t.Fatal("multicore must disarm the inversion oracle")
	}
	counting := pure
	counting.Counting = []int{2}
	if counting.InversionClean() {
		t.Fatal("counting semaphores must disarm the inversion oracle")
	}
	blocking := Scenario{Mutexes: 1, Mailboxes: []int{1}, Tasks: prog(
		task.Acquire(0), task.Recv(0), task.Release(0))}
	if blocking.InversionClean() {
		t.Fatal("blocking inside a critical section must disarm the inversion oracle")
	}
}

// The oracle harness must have teeth: a scenario referencing a mailbox
// that does not exist panics inside the kernel, and Run must convert
// that into an OraclePanic finding instead of crashing the campaign.
// Minimize must then shrink the scenario while the finding persists.
func TestRunCapturesPanicAndMinimizes(t *testing.T) {
	s := &Scenario{
		Name: "teeth", Policy: sim.PolicyRM, ZeroCost: true,
		Horizon: vtime.Millis(20),
		Tasks: []Task{
			{Spec: task.Spec{Name: "a", Period: vtime.Millis(10), WCET: vtime.Millis(1)}},
			{Spec: task.Spec{Name: "b", Period: vtime.Millis(8), WCET: vtime.Millis(1)}},
			{Spec: task.Spec{Name: "bad", Period: vtime.Millis(5), WCET: vtime.Micros(100),
				Prog: task.Program{task.Recv(3)}}},
		},
	}
	res := Run(s)
	if len(res.Findings) == 0 || res.Findings[0].Oracle != OraclePanic {
		t.Fatalf("expected an %s finding, got %+v", OraclePanic, res.Findings)
	}

	min := Minimize(s, OraclePanic)
	if len(min.Tasks) >= len(s.Tasks) {
		t.Fatalf("minimizer kept all %d tasks", len(min.Tasks))
	}
	if min.Horizon >= s.Horizon {
		t.Fatalf("minimizer kept horizon %v", min.Horizon)
	}
	found := false
	for _, f := range Run(min).Findings {
		if f.Oracle == OraclePanic {
			found = true
		}
	}
	if !found {
		t.Fatal("minimized scenario no longer reproduces the panic finding")
	}
}

// dropUnreferenced must renumber surviving objects and rewrite every op
// so the shrunk scenario still builds and still references the same
// kernel objects.
func TestDropUnreferenced(t *testing.T) {
	s := &Scenario{
		Policy: sim.PolicyRM, ZeroCost: true, Horizon: vtime.Millis(10),
		Mutexes: 2, Counting: []int{3}, Mailboxes: []int{4, 2},
		Tasks: []Task{{Spec: task.Spec{Name: "a", Period: vtime.Millis(5),
			WCET: vtime.Micros(300),
			Prog: task.Program{
				task.Acquire(1), task.Compute(vtime.Micros(100)), task.Release(1),
				task.Send(1, 9, 8), task.Compute(vtime.Micros(200)),
			}}}},
	}
	c := dropUnreferenced(s)
	if c == nil {
		t.Fatal("nothing dropped despite unreferenced mutex 0, counting sem, mailbox 0")
	}
	if c.Mutexes != 1 || len(c.Counting) != 0 || len(c.Mailboxes) != 1 {
		t.Fatalf("got %d mutexes, %d counting, %d mailboxes", c.Mutexes, len(c.Counting), len(c.Mailboxes))
	}
	prog := c.Tasks[0].Spec.Prog
	if prog[0].Obj != 0 || prog[2].Obj != 0 {
		t.Fatalf("mutex ops not renumbered: %v", prog)
	}
	if prog[3].Obj != 0 {
		t.Fatalf("mailbox op not renumbered: %v", prog)
	}
	if c.Mailboxes[0] != 2 {
		t.Fatalf("wrong mailbox survived: capacities %v", c.Mailboxes)
	}
	if _, _, err := Build(c); err != nil {
		t.Fatalf("shrunk scenario no longer builds: %v", err)
	}
}

// TestReproRefusesUnknownOpKind: kinds 12 and 13 (the retired memory
// load and store) and kinds past OpVRecv name no op. A repro using one
// is refused at load; run, it would panic in the kernel and read as a
// kernel finding.
func TestReproRefusesUnknownOpKind(t *testing.T) {
	const repro = `{"name":"x","policy":"rm","horizon":1000,"tasks":[{"spec":{"Name":"a","Period":1000,"Prog":[{"Kind":%d,"Off":0}]}}]}`
	for _, kind := range []int{12, 13, int(task.OpVRecv) + 1, 255} {
		if s, err := decodeRepro([]byte(fmt.Sprintf(repro, kind))); err == nil {
			t.Errorf("kind %d: repro loaded: %+v", kind, s.Tasks[0].Spec.Prog)
		}
	}
	s, err := decodeRepro([]byte(fmt.Sprintf(repro, task.OpVRecv)))
	if err != nil || s.Tasks[0].Spec.Prog[0].Kind != task.OpVRecv {
		t.Fatalf("kind %d refused: %v", task.OpVRecv, err)
	}
}

func TestReproRoundTrip(t *testing.T) {
	s := Gen(11, 13, 0)
	path := t.TempDir() + "/repro.json"
	if err := WriteRepro(s, path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip changed the scenario:\n%+v\n%+v", s, back)
	}
	a, b := Run(s), Run(back)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("round-tripped scenario runs differently: %+v vs %+v", a, b)
	}
}
