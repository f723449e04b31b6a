package main

import (
	"testing"

	"emeralds/internal/cli/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestFlagSurface: sembench accepts the flags its sweep reads and
// refuses -cpus, -lock, -seed and -txt-out, which it never read: the
// Figures 11 and 12 runs are fixed single-CPU scenarios.
func TestFlagSurface(t *testing.T) {
	clitest.Surface(t, []string{"csv", "json", "json-out", "len", "queue", "quiet", "workers"},
		"cpus", "lock", "seed", "txt-out")
}
