package main

import (
	"testing"

	"emeralds/internal/cli/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestBadNumericFlagsRefused: a period divisor or workload count below
// one exits 2 naming the flag. Run on such a value, the sweep uses ÷1
// or 100 workloads while the header reads ÷0.
func TestBadNumericFlagsRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-div", "0"}, {"-div", "-1"}, {"-workloads", "0"},
	} {
		clitest.Refused(t, "bad "+args[0]+":", append(args, "-n", "5", "-quiet")...)
	}
}

// TestFlagSurface: breakdown accepts the flags its sweep reads and
// refuses -cpus, -lock and -txt-out, which it never read: the sweep is
// analytic and the -sim cross-check boots single-CPU nodes.
func TestFlagSurface(t *testing.T) {
	clitest.Surface(t, []string{"csv", "div", "json", "json-out", "n", "quiet", "seed", "sim", "workers", "workloads"},
		"cpus", "lock", "txt-out")
}
