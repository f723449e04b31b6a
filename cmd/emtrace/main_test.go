package main

import (
	"os"
	"path/filepath"
	"testing"

	"emeralds/internal/cli/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestExportPassesOwnChecker: the committed emsim -trace-out export,
// which cmd/emsim's TestGoldenExport pins to the exporter's current
// output, satisfies -check-trace, so the CI smoke test can't drift from
// the format.
func TestExportPassesOwnChecker(t *testing.T) {
	stats, err := checkTrace(filepath.Join("..", "emsim", "testdata", "trace_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if stats == "" {
		t.Error("checker returned no summary")
	}
}

// TestCheckTraceRejectsGarbage: the checker actually fails on
// malformed inputs (it guards CI, so it must not be a yes-man).
func TestCheckTraceRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"notjson.json": "{",
		"empty.json":   `{"traceEvents": []}`,
		"negdur.json":  `{"traceEvents": [{"ph":"X","ts":0,"dur":-5}]}`,
		"noflow.json":  `{"traceEvents": [{"ph":"s","id":1,"ts":0}]}`,
	}
	for name, content := range cases {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := checkTrace(p); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestNoCheckFlagRefused: without a -check-* flag there is nothing to
// do; the tool exits 2 and points to the exporter instead of writing a
// trace of its own, and the old export flags are gone.
func TestNoCheckFlagRefused(t *testing.T) {
	clitest.Refused(t, "emsim -trace-out")
	clitest.Refused(t, "flag provided but not defined: -o", "-o", "trace.json")
}
