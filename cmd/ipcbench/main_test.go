package main

import (
	"strings"
	"testing"

	"emeralds/internal/cli/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestFlagSurface: ipcbench accepts the flags its sweep reads and
// refuses -cpus, -lock, -seed and -txt-out, which it never read: the
// IPC scenarios are fixed single-CPU runs.
func TestFlagSurface(t *testing.T) {
	clitest.Surface(t, []string{"csv", "json", "json-out", "quiet", "readers", "sizes", "workers"},
		"cpus", "lock", "seed", "txt-out")
}

// TestCSVHasEveryTableColumn: the CSV carries one column per column of
// the aligned table, the virtual-link pair included, and one row per
// table row.
func TestCSVHasEveryTableColumn(t *testing.T) {
	args := []string{"-sizes", "8,16", "-readers", "1", "-quiet"}
	table := strings.Split(strings.TrimSpace(clitest.Run(t, args...)), "\n")
	csv := strings.Split(strings.TrimSpace(clitest.Run(t, append(args, "-csv")...)), "\n")
	// The table's header cells hold spaces; its data rows do not.
	rows := table[2:]
	if len(csv)-1 != len(rows) {
		t.Fatalf("CSV has %d rows, the table %d:\n%s", len(csv)-1, len(rows), strings.Join(csv, "\n"))
	}
	header := strings.Split(csv[0], ",")
	for _, want := range []string{"vlink_us_per_msg", "vlink_cs_per_msg"} {
		if !strings.Contains(csv[0], want) {
			t.Errorf("CSV header %q has no %s column", csv[0], want)
		}
	}
	for i, row := range rows {
		cols := len(strings.Fields(row))
		if n := len(strings.Split(csv[i+1], ",")); n != cols || len(header) != cols {
			t.Errorf("row %d: CSV has %d fields under a %d-column header, the table %d columns", i, n, len(header), cols)
		}
	}
}
