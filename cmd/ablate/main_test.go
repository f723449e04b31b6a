package main

import (
	"testing"

	"emeralds/internal/cli/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestBadNumericFlagsRefused: a lock-cell length that simulates
// nothing, or a queue-count sweep size below one, exits 2 naming the
// flag. Run on such a value, the tool prints an empty grid, averages
// zero workloads into NaN, or panics (-sweep-n -2).
func TestBadNumericFlagsRefused(t *testing.T) {
	quick := []string{"-len", "3", "-lock-cpus", "1", "-quiet"}
	for _, args := range [][]string{
		{"-lock-ms", "-5", "-sweep-workloads", "1"},
		{"-lock-ms", "0", "-sweep-workloads", "1"},
		{"-sweep-n", "-2", "-lock-ms", "10", "-sweep-workloads", "1"},
		{"-sweep-workloads", "0", "-lock-ms", "10"},
	} {
		clitest.Refused(t, "bad "+args[0]+":", append(args, quick...)...)
	}
}

// TestFlagSurface: ablate accepts the simulator flags, which pin and
// observe its lock grid, and its own, and refuses -txt-out, which it
// never read.
func TestFlagSurface(t *testing.T) {
	clitest.Surface(t, []string{"cpus", "csv", "json", "json-out", "len", "lock", "lock-cpus", "lock-ms", "quiet", "sample-cap", "sample-us", "seed", "sweep-n", "sweep-workloads", "trace-out", "workers"},
		"txt-out")
}
