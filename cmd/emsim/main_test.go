package main

import (
	"testing"

	"emeralds/internal/cli/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestBadNumericFlagsRefused: a run length that simulates nothing, or a
// workload flag out of range, exits 2 naming the flag; run on it, the
// tool would print an empty or substituted run with status 0.
func TestBadNumericFlagsRefused(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-ms", []string{"-ms", "-5"}},
		{"-ms", []string{"-ms", "0"}},
		{"-ms", []string{"-ms", "NaN"}},
		{"-ms", []string{"-ms", "1e300"}},
		{"-queues", []string{"-queues", "0", "-ms", "10"}},
		{"-n", []string{"-n", "-3", "-ms", "10"}},
		{"-u", []string{"-n", "5", "-u", "0", "-ms", "10"}},
		{"-div", []string{"-n", "5", "-div", "0", "-ms", "10"}},
	} {
		clitest.Refused(t, "bad "+tc.flag+":", append(tc.args, "-quiet")...)
	}
}
