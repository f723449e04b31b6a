package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emeralds/internal/cli/clitest"
)

var update = flag.Bool("update", false, "rewrite the golden file")

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestBadNumericFlagsRefused: a run length that simulates nothing, or a
// scenario flag out of range, exits 2 naming the flag; run on it, the
// tool would report on an empty or substituted run with status 0.
func TestBadNumericFlagsRefused(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-ms", []string{"-ms", "-1"}},
		{"-ms", []string{"-ms", "0"}},
		{"-ms", []string{"-ms", "Inf"}},
		{"-queues", []string{"-queues", "-1", "-ms", "10"}},
		{"-n", []string{"-n", "-1", "-ms", "10"}},
		{"-u", []string{"-n", "5", "-u", "-1", "-ms", "10"}},
		{"-div", []string{"-n", "5", "-div", "0", "-ms", "10"}},
	} {
		clitest.Refused(t, "bad "+tc.flag+":", append(tc.args, "-quiet")...)
	}
}

// TestFlagSurface: emreport accepts the shared run and simulator flags
// and its own, and refuses -workers, which it never read: its replay
// runs no harness fan-out.
func TestFlagSurface(t *testing.T) {
	clitest.Surface(t, []string{
		"cpus", "csv", "div", "json", "json-out", "lock", "ms", "n", "policy",
		"queues", "quiet", "sample-cap", "sample-us", "seed", "standard-sem",
		"syncheck", "trace", "trace-out", "txt-out", "u",
	}, "workers")
}

// golden is the reference run: RM on the Table 2 workload long enough
// to produce τ₄'s overload misses, so the golden locks the miss
// root-cause rendering too.
var golden = []string{"-policy", "rm", "-ms", "50", "-quiet"}

// TestGoldenReport locks emreport's text output byte-for-byte.
func TestGoldenReport(t *testing.T) {
	got := clitest.Run(t, golden...)
	path := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("report differs from golden (rerun with -update after intentional changes)\ngot:\n%s", got)
	}
}

// TestWorkerIndependence: the report is a pure function of the trace —
// identical bytes whether the process runs on one core or many. No
// worker fan-out enters the replay path.
func TestWorkerIndependence(t *testing.T) {
	t.Setenv("GOMAXPROCS", "1")
	one := clitest.Run(t, golden...)
	t.Setenv("GOMAXPROCS", "8")
	eight := clitest.Run(t, golden...)
	if one != eight {
		t.Error("report bytes differ between GOMAXPROCS=1 and GOMAXPROCS=8")
	}
}

// TestTraceFileRoundTrip: analyzing the Perfetto export of a run, whose
// raw log rides along inside, must produce exactly the report of the
// live in-process replay.
func TestTraceFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	live := clitest.Run(t, append(golden, "-trace-out", path)...)
	fromFile := clitest.Run(t, "-trace", path, "-quiet")
	// The header names the source: the scenario, or the file.
	live = strings.Replace(live, "EMERALDS latency attribution — scenario table2 policy=rm 50ms",
		"EMERALDS latency attribution — "+path, 1)
	if fromFile != live {
		t.Error("trace-file replay differs from live replay")
	}
}

// TestCSVOutput sanity-checks the machine-readable mode.
func TestCSVOutput(t *testing.T) {
	out := clitest.Run(t, append(golden, "-csv")...)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 {
		t.Fatalf("CSV has no data rows:\n%s", out)
	}
	want := len(strings.Split(lines[0], ","))
	for i, l := range lines {
		if got := len(strings.Split(l, ",")); got != want {
			t.Errorf("CSV line %d has %d fields, want %d: %q", i, got, want, l)
		}
	}
}

// TestMalformedTraceFileRefused: -trace on a raw log whose events carry
// a negative cpu or dur fails with an error naming the event, instead
// of panicking in the replay or reporting negative overhead.
func TestMalformedTraceFileRefused(t *testing.T) {
	for name, doc := range map[string]string{
		"negative-cpu": `{"schema":"emeralds.trace/v1","total":2,"dropped":0,"events":[` +
			`{"at":0,"kind":"release","task":"a"},{"at":0,"kind":"dispatch","task":"a","cpu":-1},` +
			`{"at":1000,"kind":"complete","task":"a","cpu":-1}]}`,
		"negative-dur": `{"schema":"emeralds.trace/v1","total":3,"dropped":0,"events":[` +
			`{"at":0,"kind":"release","task":"a"},{"at":0,"kind":"dispatch","task":"a"},` +
			`{"at":1000,"kind":"complete","task":"a","dur":-700}]}`,
	} {
		path := filepath.Join(t.TempDir(), name+".json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		rep, _, err := analyzeFile(path)
		if err == nil {
			t.Errorf("%s: analyzeFile accepted it: %+v", name, rep)
		} else if !strings.Contains(err.Error(), "event ") {
			t.Errorf("%s: error %q does not name the event", name, err)
		}
	}
}
