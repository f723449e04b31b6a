package sched

import (
	"testing"

	"emeralds/internal/costmodel"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

func mkSet(periodsMs ...int) []*task.TCB {
	ts := make([]*task.TCB, len(periodsMs))
	for i, p := range periodsMs {
		ts[i] = task.New(i, task.Spec{Period: vtime.Duration(p) * vtime.Millisecond})
		ts[i].State = task.Ready
		ts[i].EffDeadline = vtime.Time(p) * vtime.Time(vtime.Millisecond)
	}
	return ts
}

func TestAssignRMPriorities(t *testing.T) {
	ts := mkSet(50, 10, 30, 10, 20)
	sorted := AssignRMPriorities(ts)
	wantOrder := []int{1, 3, 4, 2, 0} // 10,10(tie by id),20,30,50
	for i, w := range wantOrder {
		if sorted[i].ID != w {
			t.Fatalf("sorted[%d] = task %d, want %d", i, sorted[i].ID, w)
		}
		if sorted[i].BasePrio != i || sorted[i].EffPrio != i {
			t.Errorf("task %d prio = %d/%d, want %d", sorted[i].ID, sorted[i].BasePrio, sorted[i].EffPrio, i)
		}
	}
	// Original slice order is untouched.
	if ts[0].ID != 0 {
		t.Error("input slice reordered")
	}
}

func TestPartitionValidateAndApply(t *testing.T) {
	ts := mkSet(1, 2, 3, 4, 5, 6)
	sorted := AssignRMPriorities(ts)
	p := Partition{DPSizes: []int{2, 2}}
	if err := p.Apply(sorted); err != nil {
		t.Fatal(err)
	}
	wantQueues := []int{0, 0, 1, 1, 2, 2}
	for i, w := range wantQueues {
		if sorted[i].CSDQueue != w {
			t.Errorf("task %d queue = %d, want %d", i, sorted[i].CSDQueue, w)
		}
	}
	if p.NumQueues() != 3 || p.DPTotal() != 4 {
		t.Errorf("NumQueues=%d DPTotal=%d", p.NumQueues(), p.DPTotal())
	}
	if err := (Partition{DPSizes: []int{7}}).Validate(6); err == nil {
		t.Error("oversized partition accepted")
	}
	if err := (Partition{DPSizes: []int{-1}}).Validate(6); err == nil {
		t.Error("negative partition accepted")
	}
}

func TestEDFSelectsEarliestReady(t *testing.T) {
	s := NewEDF(nil)
	ts := mkSet(30, 10, 20)
	AssignRMPriorities(ts)
	s.Admit(ts)
	got, _ := s.Select()
	if got != ts[1] {
		t.Errorf("selected %v, want shortest-deadline task 1", got)
	}
	ts[1].State = task.Blocked
	s.Block(ts[1])
	if got, _ := s.Select(); got != ts[2] {
		t.Errorf("selected %v after block", got)
	}
	ts[1].State = task.Ready
	s.Unblock(ts[1])
	if got, _ := s.Select(); got != ts[1] {
		t.Errorf("selected %v after unblock", got)
	}
}

func TestEDFCostsMatchTable1(t *testing.T) {
	p := costmodel.M68040()
	s := NewEDF(p)
	ts := mkSet(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	AssignRMPriorities(ts)
	s.Admit(ts)
	if c := s.Block(ts[0]); c != p.EDFBlock() {
		t.Errorf("t_b = %v", c)
	}
	if c := s.Unblock(ts[0]); c != p.EDFUnblock() {
		t.Errorf("t_u = %v", c)
	}
	if _, c := s.Select(); c != p.EDFSelect(10) {
		t.Errorf("t_s = %v, want full scan of 10", c)
	}
}

func TestRMSelectsHighestPriorityReady(t *testing.T) {
	s := NewRM(nil)
	ts := mkSet(30, 10, 20)
	sorted := AssignRMPriorities(ts)
	s.Admit(sorted)
	if got, _ := s.Select(); got != ts[1] {
		t.Errorf("selected %v", got)
	}
	ts[1].State = task.Blocked
	s.Block(ts[1])
	if got, _ := s.Select(); got != ts[2] {
		t.Errorf("after block: %v", got)
	}
}

func TestRMCostsMatchTable1(t *testing.T) {
	p := costmodel.M68040()
	s := NewRM(p)
	ts := mkSet(1, 2, 3, 4, 5)
	sorted := AssignRMPriorities(ts)
	s.Admit(sorted)
	if _, c := s.Select(); c != p.RMSelect() {
		t.Errorf("t_s = %v", c)
	}
	if c := s.Unblock(ts[2]); c != p.RMUnblock() {
		t.Errorf("t_u = %v", c)
	}
	// Blocking the highest-priority task scans for the next ready one.
	ts[0].State = task.Blocked
	if c := s.Block(ts[0]); c != p.RMBlock(1) {
		t.Errorf("t_b = %v, want base + 1 element", c)
	}
}

func TestRMInheritOptimizedSwapsAndReturnsPlaceholder(t *testing.T) {
	p := costmodel.M68040()
	s := NewRM(p)
	ts := mkSet(10, 20, 30, 40)
	sorted := AssignRMPriorities(ts)
	s.Admit(sorted)
	holder, waiter := ts[3], ts[0]
	waiter.State = task.Blocked
	s.Block(waiter)
	cost, ph := s.Inherit(holder, waiter, true)
	if ph != waiter {
		t.Errorf("placeholder = %v, want the waiter", ph)
	}
	if cost != p.PIStep {
		t.Errorf("optimized PI cost = %v, want O(1) step", cost)
	}
	if holder.EffPrio != waiter.EffPrio {
		t.Errorf("holder prio = %d", holder.EffPrio)
	}
	if s.Queue().Front() != holder {
		t.Errorf("holder should occupy the head slot, front = %v", s.Queue().Front())
	}
	// Restore swaps back; per the §6.2 release protocol the waiter is
	// unblocked (granted the semaphore) in the same release, which is
	// what re-establishes the highestP invariant after the O(1) swap.
	s.Restore(holder, ph, holder.BasePrio, holder.AbsDeadline, true)
	if s.Queue().Front() != waiter {
		t.Errorf("front after restore = %v", s.Queue().Front())
	}
	waiter.State = task.Ready
	s.Unblock(waiter)
	if err := s.Queue().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRMInheritStandardRepositions(t *testing.T) {
	p := costmodel.M68040()
	s := NewRM(p)
	ts := mkSet(10, 20, 30, 40, 50, 60)
	sorted := AssignRMPriorities(ts)
	s.Admit(sorted)
	holder, waiter := ts[5], ts[0]
	waiter.State = task.Blocked
	s.Block(waiter)
	cost, ph := s.Inherit(holder, waiter, false)
	if ph != nil {
		t.Errorf("standard scheme has no placeholder, got %v", ph)
	}
	if cost <= p.PIStep {
		t.Errorf("standard PI cost %v should reflect the reposition scan", cost)
	}
	// Holder must now sit at its inherited position (ahead of all
	// lower-priority tasks).
	pos := map[int]int{}
	i := 0
	s.Queue().Each(func(x *task.TCB) { pos[x.ID] = i; i++ })
	if pos[holder.ID] > 1 {
		t.Errorf("holder position = %d", pos[holder.ID])
	}
}

func TestRMHeapSchedules(t *testing.T) {
	p := costmodel.M68040()
	s := NewRMHeap(p)
	ts := mkSet(30, 10, 20)
	sorted := AssignRMPriorities(ts)
	s.Admit(sorted)
	if got, _ := s.Select(); got != ts[1] {
		t.Errorf("selected %v", got)
	}
	ts[1].State = task.Blocked
	if c := s.Block(ts[1]); c < p.HeapBlockBase {
		t.Errorf("heap block cost = %v", c)
	}
	if got, _ := s.Select(); got != ts[2] {
		t.Errorf("after block: %v", got)
	}
	ts[1].State = task.Ready
	s.Unblock(ts[1])
	if got, _ := s.Select(); got != ts[1] {
		t.Errorf("after unblock: %v", got)
	}
	if err := s.Heap().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCSDQueuePrecedence(t *testing.T) {
	// 6 tasks: 2 in DP1, 2 in DP2, 2 in FP. CSD must never run a task
	// from a lower queue while a higher queue has a ready task.
	s := NewCSD(nil, Partition{DPSizes: []int{2, 2}})
	ts := mkSet(1, 2, 3, 4, 5, 6)
	sorted := AssignRMPriorities(ts)
	if err := s.Partition().Apply(sorted); err != nil {
		t.Fatal(err)
	}
	s.Admit(sorted)
	if got, _ := s.Select(); got != ts[0] {
		t.Fatalf("selected %v", got)
	}
	// Block all of DP1: DP2's earliest-deadline task must be chosen.
	for _, i := range []int{0, 1} {
		ts[i].State = task.Blocked
		s.Block(ts[i])
	}
	if got, _ := s.Select(); got != ts[2] {
		t.Errorf("selected %v, want DP2 head", got)
	}
	// Block all of DP2: FP's highestP.
	for _, i := range []int{2, 3} {
		ts[i].State = task.Blocked
		s.Block(ts[i])
	}
	if got, _ := s.Select(); got != ts[4] {
		t.Errorf("selected %v, want FP head", got)
	}
	// Everything blocked: nil.
	for _, i := range []int{4, 5} {
		ts[i].State = task.Blocked
		s.Block(ts[i])
	}
	if got, _ := s.Select(); got != nil {
		t.Errorf("selected %v, want idle", got)
	}
	// Unblock a DP2 task: it must preempt consideration of FP.
	ts[3].State = task.Ready
	s.Unblock(ts[3])
	if got, _ := s.Select(); got != ts[3] {
		t.Errorf("selected %v", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCSDEDFWithinDPQueue(t *testing.T) {
	s := NewCSD(nil, Partition{DPSizes: []int{3}})
	ts := mkSet(5, 6, 7, 100, 200)
	sorted := AssignRMPriorities(ts)
	s.Partition().Apply(sorted)
	s.Admit(sorted)
	// Give the longest-period DP task the earliest deadline: EDF within
	// the queue must pick it over shorter-period peers.
	ts[2].EffDeadline = 1
	if got, _ := s.Select(); got != ts[2] {
		t.Errorf("selected %v, want earliest-deadline DP task", got)
	}
}

func TestCSDSelectChargesQueueParse(t *testing.T) {
	p := costmodel.M68040()
	s := NewCSD(p, Partition{DPSizes: []int{1, 1}})
	ts := mkSet(1, 2, 3)
	sorted := AssignRMPriorities(ts)
	s.Partition().Apply(sorted)
	s.Admit(sorted)
	// All DP blocked: selection walks DP1, DP2, then FP = 3 parses.
	for _, i := range []int{0, 1} {
		ts[i].State = task.Blocked
		s.Block(ts[i])
	}
	_, cost := s.Select()
	want := p.CSDParse(3) + p.RMSelect()
	if cost != want {
		t.Errorf("select cost = %v, want %v", cost, want)
	}
	// DP1 ready: one parse + an EDF scan of DP1.
	ts[0].State = task.Ready
	s.Unblock(ts[0])
	_, cost = s.Select()
	want = p.CSDParse(1) + p.EDFSelect(1)
	if cost != want {
		t.Errorf("select cost = %v, want %v", cost, want)
	}
}

func TestCSDReadyCounters(t *testing.T) {
	s := NewCSD(nil, Partition{DPSizes: []int{2}})
	ts := mkSet(1, 2, 3, 4)
	sorted := AssignRMPriorities(ts)
	s.Partition().Apply(sorted)
	s.Admit(sorted)
	if s.dp[0].ready != 2 {
		t.Errorf("DP1 ready = %d", s.dp[0].ready)
	}
	ts[0].State = task.Blocked
	s.Block(ts[0])
	if s.dp[0].ready != 1 {
		t.Errorf("DP1 ready after block = %d", s.dp[0].ready)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCSDDoubleBlockKeepsCounter is the regression test for the ready
// counter underflow: Block used to decrement unconditionally, so a
// second Block of an already-blocked DP task (e.g. a task blocked on a
// semaphore whose job is then killed) drove the counter negative and
// Select skipped a non-empty queue forever.
func TestCSDDoubleBlockKeepsCounter(t *testing.T) {
	s := NewCSD(nil, Partition{DPSizes: []int{2}})
	ts := mkSet(1, 2, 3, 4)
	sorted := AssignRMPriorities(ts)
	s.Partition().Apply(sorted)
	s.Admit(sorted)

	// The kernel flips State before calling Block (see the Scheduler
	// interface contract), so the scheduler sees State == Blocked on
	// both the first and the redundant call.
	ts[0].State = task.Blocked
	s.Block(ts[0])
	s.Block(ts[0]) // double block: must be a no-op
	if got := s.dp[0].ready; got != 1 {
		t.Errorf("DP1 ready after double block = %d, want 1", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Double unblock must not inflate the counter either.
	ts[0].State = task.Ready
	s.Unblock(ts[0])
	s.Unblock(ts[0])
	if got := s.dp[0].ready; got != 2 {
		t.Errorf("DP1 ready after double unblock = %d, want 2", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// With the other DP task also blocked, Select must still find the
	// FP queue rather than spin on a miscounted DP queue: block both,
	// double-block one, and check Select falls through to FP.
	for _, dp := range []*task.TCB{ts[0], ts[1]} {
		dp.State = task.Blocked
		s.Block(dp)
	}
	s.Block(ts[1])
	if got := s.dp[0].ready; got != 0 {
		t.Errorf("DP1 ready with all DP tasks blocked = %d, want 0", got)
	}
	best, _ := s.Select()
	if best == nil || best.CSDQueue != 1 {
		t.Errorf("Select = %v, want an FP task", best)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCSDBlockDormantTask blocks a task that was admitted while not
// ready (never counted): the counter must stay untouched.
func TestCSDBlockDormantTask(t *testing.T) {
	s := NewCSD(nil, Partition{DPSizes: []int{2}})
	ts := mkSet(1, 2, 3, 4)
	ts[0].State = task.Dormant
	sorted := AssignRMPriorities(ts)
	s.Partition().Apply(sorted)
	s.Admit(sorted)
	if got := s.dp[0].ready; got != 1 {
		t.Fatalf("DP1 ready with one dormant task = %d, want 1", got)
	}
	ts[0].State = task.Blocked
	s.Block(ts[0])
	if got := s.dp[0].ready; got != 1 {
		t.Errorf("DP1 ready after blocking never-counted task = %d, want 1", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCSDInheritWithinFP(t *testing.T) {
	p := costmodel.M68040()
	s := NewCSD(p, Partition{DPSizes: []int{1}})
	ts := mkSet(1, 10, 20, 30)
	sorted := AssignRMPriorities(ts)
	s.Partition().Apply(sorted)
	s.Admit(sorted)
	holder, waiter := ts[3], ts[1] // both FP
	waiter.State = task.Blocked
	s.Block(waiter)
	cost, ph := s.Inherit(holder, waiter, true)
	if ph != waiter || cost != p.PIStep {
		t.Errorf("FP inherit: cost=%v ph=%v", cost, ph)
	}
	// Complete the release protocol: restore, then grant-and-unblock
	// the waiter (see RM.Restore's doc comment).
	s.Restore(holder, ph, holder.BasePrio, holder.AbsDeadline, true)
	waiter.State = task.Ready
	s.Unblock(waiter)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCSDCrossQueueInheritMigrates(t *testing.T) {
	s := NewCSD(nil, Partition{DPSizes: []int{2}})
	ts := mkSet(1, 2, 30, 40)
	sorted := AssignRMPriorities(ts)
	s.Partition().Apply(sorted)
	s.Admit(sorted)
	holder, waiter := ts[2], ts[0] // FP holder, DP waiter
	waiter.State = task.Blocked
	s.Block(waiter)
	s.Inherit(holder, waiter, true)
	if holder.CSDCur != 0 {
		t.Errorf("holder should have migrated to DP1, in queue %d", holder.CSDCur)
	}
	// The boosted holder must now be selectable ahead of other FP work.
	got, _ := s.Select()
	if got != ts[1] && got != holder {
		t.Errorf("selected %v", got)
	}
	s.Restore(holder, nil, holder.BasePrio, holder.AbsDeadline, true)
	if holder.CSDCur != holder.CSDQueue {
		t.Errorf("holder did not migrate home: %d", holder.CSDCur)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCSDName(t *testing.T) {
	if got := NewCSD(nil, Partition{DPSizes: []int{3}}).Name(); got != "CSD-2" {
		t.Errorf("name = %q", got)
	}
	if got := NewCSD(nil, Partition{DPSizes: []int{2, 2, 2}}).Name(); got != "CSD-4" {
		t.Errorf("name = %q", got)
	}
}

func TestSchedulerNames(t *testing.T) {
	if NewEDF(nil).Name() != "EDF" || NewRM(nil).Name() != "RM" || NewRMHeap(nil).Name() != "RM-heap" {
		t.Error("names wrong")
	}
}

func TestAssignDMPriorities(t *testing.T) {
	a := task.New(0, task.Spec{Period: 10 * vtime.Millisecond})
	b := task.New(1, task.Spec{Period: 50 * vtime.Millisecond, Deadline: 4 * vtime.Millisecond})
	sorted := AssignDMPriorities([]*task.TCB{a, b})
	if sorted[0] != b || b.BasePrio != 0 {
		t.Errorf("DM should rank the tight deadline first: %v", sorted[0])
	}
	// With implicit deadlines DM degenerates to RM.
	c := task.New(2, task.Spec{Period: 5 * vtime.Millisecond})
	d := task.New(3, task.Spec{Period: 9 * vtime.Millisecond})
	dm := AssignDMPriorities([]*task.TCB{d, c})
	rm := AssignRMPriorities([]*task.TCB{d, c})
	for i := range dm {
		if dm[i] != rm[i] {
			t.Error("DM and RM disagree on implicit deadlines")
		}
	}
}

func TestCSDDisabledCountersStillCorrect(t *testing.T) {
	p := costmodel.M68040()
	s := NewCSD(p, Partition{DPSizes: []int{2, 2}})
	s.DisableReadyCounters()
	ts := mkSet(1, 2, 3, 4, 5, 6)
	sorted := AssignRMPriorities(ts)
	s.Partition().Apply(sorted)
	s.Admit(sorted)
	// Same selection semantics as the counter build...
	if got, _ := s.Select(); got != ts[0] {
		t.Fatalf("selected %v", got)
	}
	for _, i := range []int{0, 1} {
		ts[i].State = task.Blocked
		s.Block(ts[i])
	}
	if got, _ := s.Select(); got != ts[2] {
		t.Errorf("selected %v", got)
	}
	// ...but with the empty DP1 scanned: its cost must exceed the
	// counter build's at the same state.
	withCounters := NewCSD(p, Partition{DPSizes: []int{2, 2}})
	ts2 := mkSet(1, 2, 3, 4, 5, 6)
	sorted2 := AssignRMPriorities(ts2)
	withCounters.Partition().Apply(sorted2)
	withCounters.Admit(sorted2)
	for _, i := range []int{0, 1} {
		ts2[i].State = task.Blocked
		withCounters.Block(ts2[i])
	}
	_, costWith := withCounters.Select()
	_, costWithout := s.Select()
	if costWithout <= costWith {
		t.Errorf("ablated select %v not above counter build %v", costWithout, costWith)
	}
}

// TestTable3Cases drives a CSD-3 scheduler through each of the six
// Table 3 cases (DP1/DP2/FP task × block/unblock) and checks that the
// charged costs carry the right queue-length dependence — the paper's
// O() entries made concrete.
func TestTable3Cases(t *testing.T) {
	p := costmodel.M68040()
	const q, r, n = 3, 8, 14 // DP1=3, DP2=5, FP=6
	build := func() (*CSD, []*task.TCB) {
		s := NewCSD(p, Partition{DPSizes: []int{q, r - q}})
		periods := make([]int, n)
		for i := range periods {
			periods[i] = i + 1
		}
		ts := mkSet(periods...)
		sorted := AssignRMPriorities(ts)
		s.Partition().Apply(sorted)
		s.Admit(sorted)
		return s, ts
	}

	// Case 1: DP1 task blocks — t_b O(1); the follow-up selection
	// scans DP1 (others ready there).
	s, ts := build()
	ts[0].State = task.Blocked
	if c := s.Block(ts[0]); c != p.EDFBlock() {
		t.Errorf("case 1 t_b = %v, want O(1)", c)
	}
	if _, c := s.Select(); c != p.CSDParse(1)+p.EDFSelect(q) {
		t.Errorf("case 1 t_s = %v", c)
	}

	// Case 2: DP1 task unblocks — t_u O(1); selection parses DP1 only.
	ts[0].State = task.Ready
	if c := s.Unblock(ts[0]); c != p.EDFUnblock() {
		t.Errorf("case 2 t_u = %v", c)
	}
	if _, c := s.Select(); c != p.CSDParse(1)+p.EDFSelect(q) {
		t.Errorf("case 2 t_s = %v", c)
	}

	// Case 3: DP2 task blocks with DP1 empty — selection skips DP1 via
	// its counter and scans DP2: the O(r−q) entry.
	s, ts = build()
	for i := 0; i < q; i++ {
		ts[i].State = task.Blocked
		s.Block(ts[i])
	}
	ts[q].State = task.Blocked
	if c := s.Block(ts[q]); c != p.EDFBlock() {
		t.Errorf("case 3 t_b = %v", c)
	}
	if _, c := s.Select(); c != p.CSDParse(2)+p.EDFSelect(r-q) {
		t.Errorf("case 3 t_s = %v, want DP1 skipped + DP2 scanned", c)
	}

	// Case 4: FP task blocks with all DP blocked — t_b scans the FP
	// queue; selection is O(1) on highestP after the counters skip.
	s, ts = build()
	for i := 0; i < r; i++ {
		ts[i].State = task.Blocked
		s.Block(ts[i])
	}
	ts[r].State = task.Blocked
	cb := s.Block(ts[r]) // head of FP: scans for next ready
	if cb != p.RMBlock(1) {
		t.Errorf("case 4 t_b = %v", cb)
	}
	if _, c := s.Select(); c != p.CSDParse(3)+p.RMSelect() {
		t.Errorf("case 4 t_s = %v", c)
	}

	// Case 5: FP task unblocks — t_u O(1).
	ts[r].State = task.Ready
	if c := s.Unblock(ts[r]); c != p.RMUnblock() {
		t.Errorf("case 5 t_u = %v", c)
	}
}

func TestEDFInheritDeadline(t *testing.T) {
	p := costmodel.M68040()
	s := NewEDF(p)
	ts := mkSet(30, 10)
	AssignRMPriorities(ts)
	s.Admit(ts)
	holder, waiter := ts[0], ts[1] // holder has the later deadline
	cost, ph := s.Inherit(holder, waiter, true)
	if ph != nil {
		t.Errorf("EDF inheritance needs no placeholder, got %v", ph)
	}
	if cost != p.PIStep {
		t.Errorf("cost = %v, want O(1)", cost)
	}
	if holder.EffDeadline != waiter.EffDeadline {
		t.Errorf("holder deadline = %v, want inherited %v", holder.EffDeadline, waiter.EffDeadline)
	}
	// The boosted holder must now win selection.
	if got, _ := s.Select(); got != holder && got != waiter {
		t.Errorf("selected %v", got)
	}
	s.Restore(holder, nil, holder.BasePrio, vtime.Time(30*vtime.Millisecond), true)
	if holder.EffDeadline != vtime.Time(30*vtime.Millisecond) {
		t.Errorf("deadline not restored: %v", holder.EffDeadline)
	}
}

func TestCSDInheritHolderAlreadyHigher(t *testing.T) {
	// Waiter in FP, holder in DP: the holder already outranks every FP
	// task, so inheritance is a key update only — no migration.
	s := NewCSD(nil, Partition{DPSizes: []int{2}})
	ts := mkSet(1, 2, 30, 40)
	sorted := AssignRMPriorities(ts)
	s.Partition().Apply(sorted)
	s.Admit(sorted)
	holder, waiter := ts[0], ts[2]
	waiter.State = task.Blocked
	s.Block(waiter)
	s.Inherit(holder, waiter, true)
	if holder.CSDCur != holder.CSDQueue {
		t.Errorf("holder migrated needlessly to %d", holder.CSDCur)
	}
}

func TestCSDInheritDPtoDPMigration(t *testing.T) {
	// Holder in DP2 inherits from a DP1 waiter: it must migrate into
	// DP1 or the queue-ordering rule would starve it behind DP1's
	// other ready tasks.
	s := NewCSD(nil, Partition{DPSizes: []int{2, 2}})
	ts := mkSet(1, 2, 10, 11, 50, 60)
	sorted := AssignRMPriorities(ts)
	s.Partition().Apply(sorted)
	s.Admit(sorted)
	holder, waiter := ts[2], ts[0] // DP2 holder, DP1 waiter
	waiter.State = task.Blocked
	s.Block(waiter)
	s.Inherit(holder, waiter, true)
	if holder.CSDCur != 0 {
		t.Errorf("holder in queue %d, want DP1", holder.CSDCur)
	}
	if s.dp[0].ready != 2 { // ts[1] + migrated holder
		t.Errorf("DP1 ready = %d", s.dp[0].ready)
	}
	s.Restore(holder, nil, holder.BasePrio, holder.AbsDeadline, true)
	if holder.CSDCur != 1 {
		t.Errorf("holder did not return to DP2: %d", holder.CSDCur)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCSDAccessors(t *testing.T) {
	s := NewCSD(nil, Partition{DPSizes: []int{1}})
	ts := mkSet(1, 2)
	sorted := AssignRMPriorities(ts)
	s.Partition().Apply(sorted)
	s.Admit(sorted)
	if s.DPQueue(0).Len() != 1 || s.FPQueue().Len() != 1 {
		t.Error("queue accessors wrong")
	}
	if (Partition{DPSizes: []int{1}}).String() == "" {
		t.Error("partition string empty")
	}
}

func TestRMHeapInheritRestore(t *testing.T) {
	p := costmodel.M68040()
	s := NewRMHeap(p)
	ts := mkSet(10, 20, 30)
	sorted := AssignRMPriorities(ts)
	s.Admit(sorted)
	holder, waiter := ts[2], ts[0]
	// Waiter leaves the heap (blocked on the semaphore).
	waiter.State = task.Blocked
	s.Block(waiter)
	// Holder is running (still in the heap here): inheritance must
	// re-sift it and keep the heap valid.
	cost, ph := s.Inherit(holder, waiter, true)
	if ph != nil {
		t.Errorf("heap scheme has no placeholder, got %v", ph)
	}
	if cost == 0 {
		t.Error("heap inherit should charge")
	}
	if got, _ := s.Select(); got != holder {
		t.Errorf("boosted holder not at the root: %v", got)
	}
	s.Restore(holder, nil, holder.BasePrio, holder.AbsDeadline, true)
	if got, _ := s.Select(); got != ts[1] {
		t.Errorf("after restore: %v", got)
	}
	if err := s.Heap().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEDFQueueAccessor(t *testing.T) {
	s := NewEDF(nil)
	ts := mkSet(5)
	s.Admit(ts)
	if s.Queue().Len() != 1 {
		t.Error("queue accessor wrong")
	}
}
