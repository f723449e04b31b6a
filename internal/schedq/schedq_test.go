package schedq

import (
	"math/rand"
	"testing"
	"testing/quick"

	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

func mkTasks(n int) []*task.TCB {
	ts := make([]*task.TCB, n)
	for i := range ts {
		ts[i] = task.New(i, task.Spec{Period: vtime.Duration(i+1) * vtime.Millisecond})
		ts[i].BasePrio = i
		ts[i].EffPrio = i
		ts[i].State = task.Ready
		ts[i].EffDeadline = vtime.Time((i + 1) * 1000)
	}
	return ts
}

// --- Unsorted (EDF) queue --------------------------------------------

func TestUnsortedInsertRemove(t *testing.T) {
	var q Unsorted
	ts := mkTasks(5)
	for _, x := range ts {
		q.Insert(x)
	}
	if q.Len() != 5 {
		t.Fatalf("len = %d", q.Len())
	}
	q.Remove(ts[2]) // middle
	q.Remove(ts[0]) // head
	q.Remove(ts[4]) // tail
	if q.Len() != 2 {
		t.Fatalf("len after removes = %d", q.Len())
	}
	var seen []int
	q.Each(func(x *task.TCB) { seen = append(seen, x.ID) })
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 3 {
		t.Errorf("remaining = %v", seen)
	}
}

func TestUnsortedSelectEarliestScansWholeList(t *testing.T) {
	var q Unsorted
	ts := mkTasks(10)
	for _, x := range ts {
		q.Insert(x)
	}
	best, scanned := q.SelectEarliest()
	if scanned != 10 {
		t.Errorf("scanned = %d, the EDF select is O(n) by design", scanned)
	}
	if best != ts[0] {
		t.Errorf("best = %v", best)
	}
}

func TestUnsortedSelectSkipsBlocked(t *testing.T) {
	var q Unsorted
	ts := mkTasks(5)
	for _, x := range ts {
		q.Insert(x)
	}
	ts[0].State = task.Blocked
	ts[1].State = task.Blocked
	best, _ := q.SelectEarliest()
	if best != ts[2] {
		t.Errorf("best = %v, want task 2", best)
	}
	for _, x := range ts {
		x.State = task.Blocked
	}
	if best, _ := q.SelectEarliest(); best != nil {
		t.Errorf("all blocked: best = %v", best)
	}
}

func TestUnsortedSelectPrefersEarlierEffectiveDeadline(t *testing.T) {
	var q Unsorted
	ts := mkTasks(4)
	for _, x := range ts {
		q.Insert(x)
	}
	// Inheritance gives the last task the earliest effective deadline.
	ts[3].EffDeadline = 1
	best, _ := q.SelectEarliest()
	if best != ts[3] {
		t.Errorf("best = %v, want boosted task 3", best)
	}
}

func TestUnsortedReadyCount(t *testing.T) {
	var q Unsorted
	ts := mkTasks(6)
	for _, x := range ts {
		q.Insert(x)
	}
	ts[1].State = task.Blocked
	ts[4].State = task.Blocked
	if got := q.ReadyCount(); got != 4 {
		t.Errorf("ready = %d", got)
	}
}

// --- Sorted (RM) queue -----------------------------------------------

func TestSortedInsertKeepsPriorityOrder(t *testing.T) {
	var q Sorted
	ts := mkTasks(6)
	order := []int{3, 0, 5, 2, 4, 1}
	for _, i := range order {
		q.Insert(ts[i])
	}
	var got []int
	q.Each(func(x *task.TCB) { got = append(got, x.ID) })
	for i, id := range got {
		if id != i {
			t.Fatalf("queue order = %v", got)
		}
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if q.HighestP() != ts[0] {
		t.Errorf("highestP = %v", q.HighestP())
	}
}

func TestSortedBlockAdvancesHighestP(t *testing.T) {
	var q Sorted
	ts := mkTasks(5)
	for _, x := range ts {
		q.Insert(x)
	}
	ts[0].State = task.Blocked
	scanned := q.Block(ts[0])
	if scanned != 1 {
		t.Errorf("scanned = %d, the next ready is adjacent", scanned)
	}
	if q.HighestP() != ts[1] {
		t.Errorf("highestP = %v", q.HighestP())
	}
	// Blocking a non-highest task touches nothing: O(1).
	ts[3].State = task.Blocked
	if scanned := q.Block(ts[3]); scanned != 0 {
		t.Errorf("non-highest block scanned %d", scanned)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSortedBlockScanSkipsBlockedRun(t *testing.T) {
	var q Sorted
	ts := mkTasks(6)
	for _, x := range ts {
		q.Insert(x)
	}
	// Block 1..4 first (not highest, no scans), then the head: the
	// scan must walk the whole blocked run — the O(n) worst case of
	// Table 1's RM t_b.
	for i := 1; i <= 4; i++ {
		ts[i].State = task.Blocked
		q.Block(ts[i])
	}
	ts[0].State = task.Blocked
	scanned := q.Block(ts[0])
	if scanned != 5 {
		t.Errorf("scanned = %d, want 5", scanned)
	}
	if q.HighestP() != ts[5] {
		t.Errorf("highestP = %v", q.HighestP())
	}
}

func TestSortedUnblockIsOneComparison(t *testing.T) {
	var q Sorted
	ts := mkTasks(4)
	for _, x := range ts {
		x.State = task.Blocked
		q.Insert(x)
	}
	if q.HighestP() != nil {
		t.Fatalf("nothing ready yet, highestP = %v", q.HighestP())
	}
	ts[2].State = task.Ready
	q.Unblock(ts[2])
	if q.HighestP() != ts[2] {
		t.Errorf("highestP = %v", q.HighestP())
	}
	// A lower-priority unblock must not displace it.
	ts[3].State = task.Ready
	q.Unblock(ts[3])
	if q.HighestP() != ts[2] {
		t.Errorf("highestP displaced to %v", q.HighestP())
	}
	// A higher-priority one must.
	ts[0].State = task.Ready
	q.Unblock(ts[0])
	if q.HighestP() != ts[0] {
		t.Errorf("highestP = %v", q.HighestP())
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSortedRemove(t *testing.T) {
	var q Sorted
	ts := mkTasks(4)
	for _, x := range ts {
		q.Insert(x)
	}
	q.Remove(ts[0]) // head & highestP
	if q.HighestP() != ts[1] {
		t.Errorf("highestP = %v", q.HighestP())
	}
	q.Remove(ts[3]) // tail
	q.Remove(ts[2]) // middle-now-tail
	if q.Len() != 1 || q.Front() != ts[1] {
		t.Errorf("len=%d front=%v", q.Len(), q.Front())
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSortedSwapNonAdjacent(t *testing.T) {
	var q Sorted
	ts := mkTasks(5)
	for _, x := range ts {
		q.Insert(x)
	}
	ts[1].State = task.Blocked
	q.Block(ts[1])
	// Simulate PI: task 3 inherits priority and swaps with blocked 1.
	ts[3].EffPrio = ts[1].EffPrio
	q.Swap(ts[3], ts[1])
	var got []int
	q.Each(func(x *task.TCB) { got = append(got, x.ID) })
	want := []int{0, 3, 2, 1, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order after swap = %v", got)
		}
	}
	// Swap back restores everything.
	ts[3].EffPrio = 3
	q.Swap(ts[3], ts[1])
	got = got[:0]
	q.Each(func(x *task.TCB) { got = append(got, x.ID) })
	for i := range got {
		if got[i] != i {
			t.Fatalf("order after swap-back = %v", got)
		}
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSortedSwapAdjacent(t *testing.T) {
	for _, first := range []int{0, 1} {
		var q Sorted
		ts := mkTasks(4)
		for _, x := range ts {
			q.Insert(x)
		}
		ts[2].State = task.Blocked
		q.Block(ts[2])
		// Swap adjacent pair (1,2) in both argument orders.
		a, b := ts[1], ts[2]
		if first == 1 {
			a, b = b, a
		}
		ts[1].EffPrio = 0 // pretend 1 inherited something
		q.Swap(a, b)
		var got []int
		q.Each(func(x *task.TCB) { got = append(got, x.ID) })
		want := []int{0, 2, 1, 3}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("adjacent swap (order %d) = %v", first, got)
			}
		}
		ts[1].EffPrio = 1
	}
}

func TestSortedSwapHeadAndTail(t *testing.T) {
	var q Sorted
	ts := mkTasks(3)
	for _, x := range ts {
		q.Insert(x)
	}
	ts[0].State = task.Blocked
	q.Block(ts[0])
	ts[2].EffPrio = 0
	q.Swap(ts[2], ts[0])
	if q.Front() != ts[2] {
		t.Errorf("front = %v", q.Front())
	}
	var got []int
	q.Each(func(x *task.TCB) { got = append(got, x.ID) })
	if got[2] != 0 {
		t.Errorf("tail = %v", got)
	}
	if q.HighestP() != ts[2] {
		t.Errorf("highestP = %v", q.HighestP())
	}
}

func TestSortedSwapSelfIsNoop(t *testing.T) {
	var q Sorted
	ts := mkTasks(2)
	q.Insert(ts[0])
	q.Insert(ts[1])
	q.Swap(ts[0], ts[0])
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSortedReposition(t *testing.T) {
	var q Sorted
	ts := mkTasks(5)
	for _, x := range ts {
		q.Insert(x)
	}
	// Standard-scheme PI: tail task inherits top priority and is
	// repositioned by remove + sorted insert.
	ts[4].EffPrio = -1
	scanned := q.Reposition(ts[4])
	if q.Front() != ts[4] {
		t.Errorf("front = %v", q.Front())
	}
	if scanned == 0 {
		t.Error("reposition should report scan work")
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSortedRandomOps drives the queue with random legal operation
// sequences (block, unblock, PI swap + restore) and checks invariants
// after every step — the §6.2 mechanics must never corrupt the list.
func TestSortedRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var q Sorted
		n := 3 + rng.Intn(12)
		ts := mkTasks(n)
		for _, x := range ts {
			q.Insert(x)
		}
		// swapped tracks an in-flight PI pair (holder, placeholder).
		var holder, placeholder *task.TCB
		for step := 0; step < 60; step++ {
			switch rng.Intn(4) {
			case 0: // block a random ready task (not an in-flight holder)
				x := ts[rng.Intn(n)]
				if x.State == task.Ready && x != holder {
					x.State = task.Blocked
					q.Block(x)
				}
			case 1: // unblock a random blocked task (not a placeholder)
				x := ts[rng.Intn(n)]
				if x.State == task.Blocked && x != placeholder {
					x.State = task.Ready
					q.Unblock(x)
				}
			case 2: // start a PI window: ready holder swaps with a blocked waiter
				if holder != nil {
					break
				}
				var h, w *task.TCB
				for _, x := range ts {
					if x.State == task.Ready {
						h = x
					}
					if x.State == task.Blocked && w == nil {
						w = x
					}
				}
				if h != nil && w != nil && h != w && w.HigherPrio(h) {
					holder, placeholder = h, w
					h.EffPrio = w.EffPrio
					q.Swap(h, w)
				}
			case 3: // end the PI window as RM.Restore's protocol does
				if holder != nil {
					// Swap back, then hand the lock to the place-holder
					// waiter: unblocking it re-establishes highestP in
					// O(1), with no rescan.
					q.Swap(holder, placeholder)
					holder.EffPrio = holder.BasePrio
					placeholder.State = task.Ready
					q.Unblock(placeholder)
					holder, placeholder = nil, nil
				}
			}
			if err := q.CheckInvariants(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
	}
}

// --- Heap --------------------------------------------------------------

func TestHeapBasicOrder(t *testing.T) {
	var h Heap
	ts := mkTasks(7)
	order := []int{4, 1, 6, 0, 3, 5, 2}
	for _, i := range order {
		h.Insert(ts[i])
		if err := h.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if h.Peek() != ts[0] {
		t.Errorf("peek = %v", h.Peek())
	}
	for want := 0; want < 7; want++ {
		top := h.Peek()
		if top.ID != want {
			t.Fatalf("pop order: got %d want %d", top.ID, want)
		}
		h.Remove(top)
		if err := h.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if h.Peek() != nil {
		t.Error("empty heap peek should be nil")
	}
}

func TestHeapRemoveMiddle(t *testing.T) {
	var h Heap
	ts := mkTasks(10)
	for _, x := range ts {
		h.Insert(x)
	}
	h.Remove(ts[5])
	if h.Contains(ts[5]) {
		t.Error("removed task still contained")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if h.Len() != 9 {
		t.Errorf("len = %d", h.Len())
	}
}

func TestHeapRemoveNotContainedPanics(t *testing.T) {
	var h Heap
	ts := mkTasks(2)
	h.Insert(ts[0])
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	h.Remove(ts[1])
}

func TestHeapLevelsReported(t *testing.T) {
	var h Heap
	ts := mkTasks(16)
	// Insert in descending priority: each new task sifts to the root.
	totalLevels := 0
	for i := 15; i >= 0; i-- {
		totalLevels += h.Insert(ts[i])
	}
	if totalLevels == 0 {
		t.Error("sift-ups should have been reported")
	}
	// Inserting an already-lowest task sifts nowhere.
	low := task.New(99, task.Spec{})
	low.EffPrio = 99
	if lv := h.Insert(low); lv != 0 {
		t.Errorf("lowest insert levels = %d", lv)
	}
}

func TestHeapRandom(t *testing.T) {
	f := func(ids []uint8) bool {
		var h Heap
		ts := map[int]*task.TCB{}
		for _, raw := range ids {
			id := int(raw % 32)
			if x, ok := ts[id]; ok {
				h.Remove(x)
				delete(ts, id)
			} else {
				x := task.New(id, task.Spec{})
				x.EffPrio = id
				x.State = task.Ready
				ts[id] = x
				h.Insert(x)
			}
			if h.CheckInvariants() != nil {
				return false
			}
		}
		// Peek must be the max-priority (min value) member.
		if len(ts) == 0 {
			return h.Peek() == nil
		}
		best := h.Peek()
		for _, x := range ts {
			if x.HigherPrio(best) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
