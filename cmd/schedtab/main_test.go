package main

import (
	"testing"

	"emeralds/internal/cli/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestBadNumericFlagsRefused: a table number that selects nothing, or
// Table 3 parameters that leave a CSD-3 queue empty, exit 2 naming the
// flag; run on them, the tool would print nothing, or negative costs,
// with status 0.
func TestBadNumericFlagsRefused(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-table", []string{"-table", "7"}},
		{"-table", []string{"-table", "-1"}},
		{"-q", []string{"-table", "3", "-q", "-1"}},
		{"-q", []string{"-table", "3", "-q", "0"}},
		{"-r", []string{"-table", "3", "-q", "40", "-r", "10", "-n", "5"}},
		{"-r", []string{"-table", "3", "-q", "5", "-r", "5"}},
		{"-n", []string{"-table", "3", "-q", "4", "-r", "12", "-n", "12"}},
	} {
		clitest.Refused(t, "bad "+tc.flag+":", tc.args...)
	}
}
