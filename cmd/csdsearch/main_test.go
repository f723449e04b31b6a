package main

import (
	"testing"

	"emeralds/internal/cli/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestBadNumericFlagsRefused: a task count, utilization, period divisor
// or queue count out of range exits 2 naming the flag. Run on such a
// value, the search panics (-n -1) or uses a substituted default while
// the output records the value given (-u 0, -div 0).
func TestBadNumericFlagsRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "-1"}, {"-n", "0"},
		{"-u", "-1"}, {"-u", "0"}, {"-u", "NaN"}, {"-u", "Inf"},
		{"-div", "0"}, {"-queues", "0"},
	} {
		clitest.Refused(t, "bad "+args[0]+":", append(args, "-quiet")...)
	}
}

// TestFlagSurface: csdsearch accepts the flags its search reads and
// refuses -cpus, -lock, -txt-out and -workers, which it never read: the
// search is one analytic computation.
func TestFlagSurface(t *testing.T) {
	clitest.Surface(t, []string{"csv", "div", "json", "json-out", "n", "queues", "quiet", "seed", "u"},
		"cpus", "lock", "txt-out", "workers")
}
