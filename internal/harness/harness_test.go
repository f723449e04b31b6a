package harness

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRunOrderedResults: results come back indexed by job, whatever
// the worker count.
func TestRunOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 100} {
		got, err := Run(context.Background(), 50, Options{Workers: workers},
			func(_ context.Context, j Job) (int, error) { return j.Index * j.Index, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestRunPanicRecovery: a panicking job surfaces as *PanicError with
// the job index and stack, not a process crash.
func TestRunPanicRecovery(t *testing.T) {
	_, err := Run(context.Background(), 20, Options{Workers: 4},
		func(_ context.Context, j Job) (int, error) {
			if j.Index == 7 {
				panic("boom at seven")
			}
			return j.Index, nil
		})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Index != 7 {
		t.Errorf("panic index = %d, want 7", pe.Index)
	}
	if !strings.Contains(pe.Error(), "boom at seven") {
		t.Errorf("error misses panic value: %v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic captured without a stack")
	}
}

// TestRunFirstErrorWins: with several failing jobs the reported error
// is the lowest-indexed one, independent of scheduling.
func TestRunFirstErrorWins(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		_, err := Run(context.Background(), 30, Options{Workers: 8},
			func(_ context.Context, j Job) (int, error) {
				if j.Index%2 == 1 {
					return 0, errors.New("odd job failed")
				}
				return j.Index, nil
			})
		if err == nil {
			t.Fatal("no error from failing jobs")
		}
	}
	// Deterministic lowest index when every job fails immediately.
	_, err := Run(context.Background(), 16, Options{Workers: 16},
		func(_ context.Context, j Job) (int, error) {
			if j.Index >= 3 {
				return 0, errors.New("late failure")
			}
			return j.Index, nil
		})
	if err == nil || err.Error() != "late failure" {
		t.Fatalf("err = %v", err)
	}
}

// TestRunCancelledContext: cancellation stops the sweep and reports it.
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, 10, Options{Workers: 2},
		func(ctx context.Context, j Job) (int, error) { return j.Index, ctx.Err() })
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
}

// TestRunCancelAfterCompletion is the regression test for the old
// `return results, ctx.Err()` tail: a context cancelled after the last
// job finished used to yield a fully-populated slice NEXT TO a non-nil
// error, and callers that checked only the error threw away good data
// — or worse, callers that checked only the slice used results from a
// run that reported failure. The contract is now: results are valid
// iff err == nil.
func TestRunCancelAfterCompletion(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	res, err := Run(ctx, 4, Options{Workers: 1},
		func(_ context.Context, j Job) (int, error) {
			if j.Index == 3 {
				cancel() // cancelled only after all jobs completed
			}
			return j.Index, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("res = %v, want nil alongside the error", res)
	}
}

// TestRunCancelMidRun: a cancellation racing the pool must never
// produce (non-nil results, non-nil error) or (nil error, unclaimed
// jobs).
func TestRunCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	res, err := Run(ctx, 64, Options{Workers: 4},
		func(ctx context.Context, j Job) (int, error) {
			if j.Index == 8 {
				cancel()
			}
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			return j.Index + 1, nil
		})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if res != nil {
		t.Fatalf("res non-nil (%d entries) alongside err = %v", len(res), err)
	}
}

// TestRunZeroJobsCancelledContext: the n == 0 early return honours the
// same contract.
func TestRunZeroJobsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, 0, Options{},
		func(_ context.Context, j Job) (int, error) { return 0, nil })
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", res, err)
	}
}

// TestSummaryLine: a run finishing within the clock's resolution must
// not print "+Inf jobs/s".
func TestSummaryLine(t *testing.T) {
	if got := summaryLine("lbl", 5, 5, 0); strings.Contains(got, "Inf") || strings.Contains(got, "NaN") {
		t.Errorf("zero-elapsed summary = %q", got)
	}
	got := summaryLine("lbl", 10, 10, 2*time.Second)
	if !strings.Contains(got, "5.0 jobs/s") {
		t.Errorf("summary = %q, want a 5.0 jobs/s rate", got)
	}
}

// TestArtifactRoundTrip: write + read back preserves schema, tool and
// series; unknown schema is rejected.
func TestArtifactRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "x.json")
	a := NewArtifact("unittest", map[string]int{"n": 5}, []float64{1, 2.5}, 4, 0)
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != ArtifactSchema || back.Tool != "unittest" {
		t.Errorf("round trip lost identity: %+v", back)
	}
	series, ok := back.Series.([]any)
	if !ok || len(series) != 2 {
		t.Fatalf("series = %#v", back.Series)
	}

	bad := filepath.Join(dir, "bad.json")
	b := *a
	b.Schema = "something/v999"
	if err := b.WriteFile(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadArtifact(bad); err == nil {
		t.Error("unknown schema accepted")
	}
}
