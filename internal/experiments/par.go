package experiments

import (
	"context"
	"io"

	"emeralds/internal/harness"
)

// Par configures the fan-out of an experiment sweep. The zero value
// uses one worker per CPU and no progress output, so existing callers
// can pass Par{} and get the full machine. Results never depend on
// Workers: every sweep derives per-job randomness from the job index
// (workload.SeedFor) and merges in job order, so Par only controls
// wall-clock time and stderr chatter.
type Par struct {
	Workers  int       // harness worker count; <= 0 means NumCPU
	Progress io.Writer // throughput/ETA lines (typically os.Stderr); nil = silent
}

// Serial is the explicit one-worker configuration, used by benchmarks
// that want the pre-fan-out measurement semantics.
var Serial = Par{Workers: 1}

// parRun fans n jobs out through harness.Run. Experiment APIs return
// plain values (their errors have always been panics — a failed
// scenario means the model itself is broken), so a job failure,
// including a captured per-job panic, is re-raised here with its job
// index and stack attached.
func parRun[T any](par Par, label string, n int, fn func(job harness.Job) (T, error)) []T {
	out, err := harness.Run(context.Background(), n, harness.Options{
		Workers:  par.Workers,
		Label:    label,
		Progress: par.Progress,
	}, func(_ context.Context, j harness.Job) (T, error) {
		return fn(j)
	})
	if err != nil {
		panic(err)
	}
	return out
}
