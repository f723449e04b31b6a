package vlink

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"emeralds/internal/ipc"
)

// refQueue is the mutex-guarded linearizable reference the ring is
// checked against, mirroring the reference-heap pattern in
// internal/schedq.
type refQueue struct {
	mu  sync.Mutex
	buf []ipc.Msg
	cap int
}

func (q *refQueue) push(m ipc.Msg) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.buf) >= q.cap {
		return false
	}
	q.buf = append(q.buf, m)
	return true
}

func (q *refQueue) pop() (ipc.Msg, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.buf) == 0 {
		return ipc.Msg{}, false
	}
	m := q.buf[0]
	q.buf = q.buf[1:]
	return m, true
}

// TestVLinkSequentialProperty drives ring and reference with the same
// random operation stream: every accept/reject decision and every
// dequeued message must agree exactly (single-threaded, the ring is a
// plain FIFO).
func TestVLinkSequentialProperty(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 8, 17} {
		r := New(capacity)
		ref := &refQueue{cap: r.Cap()} // ring rounds up to power of two
		rng := rand.New(rand.NewSource(int64(42 + capacity)))
		var next int64
		for i := 0; i < 20000; i++ {
			if rng.Intn(2) == 0 {
				m := ipc.Msg{Val: next, Size: int(next % 64)}
				next++
				got, want := r.TryEnqueue(m), ref.push(m)
				if got != want {
					t.Fatalf("cap %d op %d: enqueue=%v ref=%v (len %d)", capacity, i, got, want, r.Len())
				}
			} else {
				gm, got := r.TryDequeue()
				wm, want := ref.pop()
				if got != want || gm != wm {
					t.Fatalf("cap %d op %d: dequeue=(%v,%v) ref=(%v,%v)", capacity, i, gm, got, wm, want)
				}
			}
			if r.Len() != len(ref.buf) {
				t.Fatalf("cap %d op %d: len=%d ref=%d", capacity, i, r.Len(), len(ref.buf))
			}
		}
	}
}

// TestVLinkConcurrentNoLossNoDup hammers the ring with P producers and
// C consumers. Each message carries (producer id, per-producer seq)
// packed into Val; afterwards every message must have arrived exactly
// once and in per-producer FIFO order, and the ring's capacity must
// never have been exceeded (checked implicitly: accepted-in-flight
// never exceeds Cap because TryEnqueue refuses when full).
func TestVLinkConcurrentNoLossNoDup(t *testing.T) {
	const perProducer = 20000
	for _, cfg := range []struct{ p, c int }{{1, 1}, {2, 2}, {4, 4}, {8, 2}, {2, 8}} {
		r := New(64)
		var wg sync.WaitGroup
		recvd := make([][]int64, cfg.c)
		for ci := 0; ci < cfg.c; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				for {
					m, ok := r.TryDequeue()
					if !ok {
						runtime.Gosched()
						m, ok = r.TryDequeue()
						if !ok {
							continue
						}
					}
					if m.Val < 0 {
						return // poison pill: one per consumer
					}
					recvd[ci] = append(recvd[ci], m.Val)
				}
			}(ci)
		}
		for pi := 0; pi < cfg.p; pi++ {
			wg.Add(1)
			go func(pi int) {
				defer wg.Done()
				for s := 0; s < perProducer; s++ {
					m := ipc.Msg{Val: int64(pi)<<32 | int64(s), Size: 8}
					for !r.TryEnqueue(m) {
						runtime.Gosched()
					}
				}
			}(pi)
		}
		// Poison each consumer once all payload has been accepted.
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		<-waitProducers(r, cfg.p, perProducer)
		for i := 0; i < cfg.c; i++ {
			for !r.TryEnqueue(ipc.Msg{Val: -1}) {
				runtime.Gosched()
			}
		}
		<-done

		seen := make(map[int64]bool, cfg.p*perProducer)
		total := 0
		for ci := range recvd {
			perProdLast := make([]int64, cfg.p)
			for i := range perProdLast {
				perProdLast[i] = -1
			}
			for _, v := range recvd[ci] {
				if seen[v] {
					t.Fatalf("p=%d c=%d: duplicate message %x", cfg.p, cfg.c, v)
				}
				seen[v] = true
				total++
				pi, s := v>>32, v&0xffffffff
				if s <= perProdLast[pi] {
					t.Fatalf("p=%d c=%d: consumer %d saw producer %d seq %d after %d", cfg.p, cfg.c, ci, pi, s, perProdLast[pi])
				}
				perProdLast[pi] = s
			}
		}
		if total != cfg.p*perProducer {
			t.Fatalf("p=%d c=%d: received %d of %d messages", cfg.p, cfg.c, total, cfg.p*perProducer)
		}
	}
}

// waitProducers polls until the ring has accepted all p*n payload
// messages (enqueue cursor reached the payload total plus whatever was
// consumed — simplest robust signal: total enqueued ≥ p*n).
func waitProducers(r *Ring, p, n int) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		for int(r.enq.Load()) < p*n {
			runtime.Gosched()
		}
		close(ch)
	}()
	return ch
}

// TestVLinkStress runs a tight producer/consumer storm at several
// GOMAXPROCS settings; the -race ci gate runs this 5×.
func TestVLinkStress(t *testing.T) {
	for _, procs := range []int{1, 4, 8} {
		t.Run(procsName(procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			const msgs = 30000
			r := New(16)
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(2)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < msgs/4; i++ {
						for !r.TryEnqueue(ipc.Msg{Val: int64(i), Size: i % 32}) {
							runtime.Gosched()
						}
					}
				}(w)
				go func() {
					defer wg.Done()
					for i := 0; i < msgs/4; i++ {
						for {
							if _, ok := r.TryDequeue(); ok {
								break
							}
							runtime.Gosched()
						}
					}
				}()
			}
			wg.Wait()
			if r.Len() != 0 {
				t.Fatalf("GOMAXPROCS=%d: %d messages left in ring", procs, r.Len())
			}
		})
	}
}

func procsName(p int) string {
	return map[int]string{1: "procs1", 4: "procs4", 8: "procs8"}[p]
}

// TestVLinkZeroAlloc pins the zero-allocation steady-state contract for
// enqueue/dequeue.
func TestVLinkZeroAlloc(t *testing.T) {
	r := New(8)
	if n := testing.AllocsPerRun(1000, func() {
		if !r.TryEnqueue(ipc.Msg{Val: 7, Size: 16}) {
			t.Fatal("enqueue refused on non-full ring")
		}
		if _, ok := r.TryDequeue(); !ok {
			t.Fatal("dequeue failed on non-empty ring")
		}
	}); n != 0 {
		t.Fatalf("enqueue/dequeue allocated %v times per op", n)
	}
}

// TestVLinkStepInterleavings interleaves producers and consumers one
// attempt at a time in a single goroutine, so that every retry of
// TryEnqueue and TryDequeue happens on every run: an attempt at a ticket
// a peer already finished, and an attempt whose CAS loses to a peer that
// has claimed the ticket but not yet published its cell. A peer paused
// between those two points is emulated by doing its claim (the CAS on
// the cursor) and its publish (the stamp store) by hand.
func TestVLinkStepInterleavings(t *testing.T) {
	r := New(2)
	msg := func(v int64) ipc.Msg { return ipc.Msg{Val: v, Size: 8} }
	mustDone := func(what string, done, ok, wantOK bool) {
		t.Helper()
		if !done || ok != wantOK {
			t.Fatalf("%s: done=%v ok=%v, want done with ok=%v", what, done, ok, wantOK)
		}
	}
	mustRetry := func(what string, done, ok bool) {
		t.Helper()
		if done || ok {
			t.Fatalf("%s: done=%v ok=%v, want a retry", what, done, ok)
		}
	}

	// Producer A reads the cursor; producer B enqueues first.
	pos := r.enq.Load()
	if !r.TryEnqueue(msg(1)) {
		t.Fatal("B's enqueue refused on an empty ring")
	}
	done, ok := r.enqueueAt(pos, msg(2))
	mustRetry("A at the ticket B published", done, ok)
	// Producer C claims the next ticket and pauses before publishing.
	pos = r.enq.Load()
	if !r.enq.CompareAndSwap(pos, pos+1) {
		t.Fatal("C's claim failed")
	}
	done, ok = r.enqueueAt(pos, msg(2))
	mustRetry("A at the ticket C claimed", done, ok)
	r.cells[pos&r.mask].msg = msg(3)
	r.cells[pos&r.mask].seq.Store(pos + 1)
	done, ok = r.enqueueAt(r.enq.Load(), msg(2))
	mustDone("A on the full ring", done, ok, false)

	// Consumer D reads the cursor; consumer E dequeues first.
	var m ipc.Msg
	pos = r.deq.Load()
	if got, ok := r.TryDequeue(); !ok || got != msg(1) {
		t.Fatalf("E took %v, %v; want the first message", got, ok)
	}
	done, ok = r.dequeueAt(pos, &m)
	mustRetry("D at the ticket E finished", done, ok)
	// Consumer F claims the next ticket and pauses before freeing the cell.
	pos = r.deq.Load()
	if !r.deq.CompareAndSwap(pos, pos+1) {
		t.Fatal("F's claim failed")
	}
	done, ok = r.dequeueAt(pos, &m)
	mustRetry("D at the ticket F claimed", done, ok)
	if got := r.cells[pos&r.mask].msg; got != msg(3) {
		t.Fatalf("F took %v, want C's message", got)
	}
	r.cells[pos&r.mask].seq.Store(pos + r.mask + 1)
	done, ok = r.dequeueAt(r.deq.Load(), &m)
	mustDone("D on the empty ring", done, ok, false)

	// Both retries leave the ring whole: it takes and returns two more.
	for v := int64(4); v <= 5; v++ {
		if !r.TryEnqueue(msg(v)) {
			t.Fatalf("enqueue of %d refused", v)
		}
	}
	for v := int64(4); v <= 5; v++ {
		if got, ok := r.TryDequeue(); !ok || got != msg(v) {
			t.Fatalf("dequeue gave %v, %v; want %v", got, ok, msg(v))
		}
	}
}

// TestVLinkCapacityRounding locks the power-of-two rounding contract.
func TestVLinkCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 2}, {1, 2}, {2, 2}, {3, 4}, {8, 8}, {9, 16}} {
		if got := New(tc.in).Cap(); got != tc.want {
			t.Fatalf("New(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}
