// Package harness is the shared parallel experiment runner. Every
// figure/table regenerator in internal/experiments expresses its sweep
// as a list of independent jobs; Run fans them out over a worker pool
// and returns the results in job order, so merges are deterministic
// regardless of worker count or goroutine scheduling.
//
// Determinism contract: a job's result must depend only on its index
// (every sweep derives its randomness from the index through
// workload.SeedFor or scenario.Gen, never from shared state), and
// results are delivered to the caller indexed by job — so a sweep run
// with -workers=1 and -workers=8 produces bit-identical output. The
// caller must keep its merge order-dependent operations (float
// summation, slice appends) in job-index order, which the returned
// slice already provides.
package harness

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Run.
type Options struct {
	// Workers is the fan-out width; <= 0 means runtime.NumCPU().
	Workers int
	// Label prefixes progress lines ("figure3: 120/5000 ...").
	Label string
	// Progress, when non-nil, receives one-line throughput/ETA
	// updates (typically os.Stderr). Output is advisory and rate-
	// limited; it never affects results.
	Progress io.Writer
	// Scrape, when non-nil, exposes this run's per-worker job
	// throughput on the scrape server's /metrics endpoint. Like
	// Progress it is advisory wall-clock observability and never
	// affects results.
	Scrape *Scrape
}

// Job identifies one unit of work handed to the run function.
type Job struct {
	// Index is the job's position in [0, n); results are returned in
	// this order. Jobs must derive all randomness from it (and never
	// from shared state) to keep runs worker-count independent.
	Index int
}

// PanicError wraps a panic captured inside a job so one bad parameter
// point fails the sweep with context instead of crashing the process.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("harness: job %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// jobError pairs an error with the job it came from so Run can report
// the lowest-indexed failure deterministically.
type jobError struct {
	index int
	err   error
}

// Run executes fn for jobs 0..n-1 on a pool of Options.Workers
// goroutines and returns the results in job order. On the first
// failure the context handed to remaining jobs is cancelled, the pool
// drains, and Run returns the error of the lowest-indexed failed job
// (so the reported error is also scheduling-independent). A panic in
// fn is captured as a *PanicError rather than crashing the pool.
//
// Contract: the results slice is valid if and only if the returned
// error is nil. If the caller's context is cancelled — even after
// every job happened to finish — Run returns (nil, ctx.Err()), never a
// partially-trustworthy slice next to a non-nil error.
func Run[T any](ctx context.Context, n int, opts Options, fn func(ctx context.Context, job Job) (T, error)) ([]T, error) {
	parent := ctx
	results := make([]T, n)
	if n == 0 {
		if err := parent.Err(); err != nil {
			return nil, err
		}
		return results, nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64 // next job index to claim
		done     atomic.Int64 // completed jobs, for progress
		mu       sync.Mutex
		firstErr *jobError
	)
	fail := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < firstErr.index {
			firstErr = &jobError{i, err}
		}
		mu.Unlock()
		cancel()
	}

	if opts.Scrape != nil {
		opts.Scrape.beginRun(opts.Label, n, workers)
	}
	runJob := func(w, i int) {
		defer func() {
			if v := recover(); v != nil {
				buf := make([]byte, 8192)
				buf = buf[:runtime.Stack(buf, false)]
				fail(i, &PanicError{Index: i, Value: v, Stack: buf})
			}
		}()
		res, err := fn(ctx, Job{Index: i})
		if err != nil {
			fail(i, err)
			return
		}
		results[i] = res
		done.Add(1)
		if opts.Scrape != nil {
			opts.Scrape.noteJob(w)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				runJob(w, i)
			}
		}(w)
	}

	if opts.Progress != nil {
		stop := make(chan struct{})
		var progWG sync.WaitGroup
		progWG.Add(1)
		go func() {
			defer progWG.Done()
			reportProgress(opts, n, &done, stop)
		}()
		defer func() {
			close(stop)
			progWG.Wait()
		}()
	}

	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return nil, firstErr.err
	}
	// The pool only cancels the derived context, so a parent error here
	// means the caller asked to stop: the slice may hold zero values for
	// jobs the workers never claimed, so don't return it.
	if err := parent.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// reportProgress prints jobs/sec and ETA roughly once a second until
// stop closes, then a final summary line.
func reportProgress(opts Options, n int, done *atomic.Int64, stop <-chan struct{}) {
	start := time.Now()
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	label := opts.Label
	if label == "" {
		label = "harness"
	}
	line := func() {
		d := done.Load()
		el := time.Since(start).Seconds()
		if el <= 0 {
			return
		}
		rate := float64(d) / el
		eta := "?"
		if rate > 0 {
			eta = (time.Duration(float64(n-int(d))/rate) * time.Second).Round(time.Second).String()
		}
		fmt.Fprintf(opts.Progress, "%s: %d/%d jobs, %.1f jobs/s, ETA %s\n", label, d, n, rate, eta)
	}
	for {
		select {
		case <-stop:
			fmt.Fprintln(opts.Progress, summaryLine(label, done.Load(), n, time.Since(start)))
			return
		case <-tick.C:
			line()
		}
	}
}

// summaryLine formats the final progress summary. A run that finishes
// within the clock's resolution has el == 0; the rate is omitted then
// instead of dividing by zero and printing "+Inf jobs/s".
func summaryLine(label string, d int64, n int, el time.Duration) string {
	if el <= 0 {
		return fmt.Sprintf("%s: %d/%d jobs in %s", label, d, n, el.Round(time.Millisecond))
	}
	return fmt.Sprintf("%s: %d/%d jobs in %s (%.1f jobs/s)",
		label, d, n, el.Round(time.Millisecond), float64(d)/el.Seconds())
}
