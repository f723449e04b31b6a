// Package cli is the shared plumbing of the cmd/ experiment tools:
// the common flag set (-workers, -seed, -json, -csv, -quiet),
// comma-separated integer-list parsing, aligned-table and CSV
// rendering, and versioned JSON artifact emission under results/.
// Keeping it here means every tool exposes the same interface and the
// output formats live in exactly one place.
package cli

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"emeralds/internal/attrib"
	"emeralds/internal/harness"
	"emeralds/internal/kernel"
	"emeralds/internal/metrics"
	"emeralds/internal/telemetry"
	"emeralds/internal/vtime"
)

// Common holds the flags shared by every experiment command.
type Common struct {
	Tool string // command name, used in errors and artifact metadata

	Workers int    // -workers: fan-out width, 0 = all CPUs
	Seed    int64  // -seed: base RNG seed
	CPUs    int    // -cpus: simulated processor count (1 = classic single-CPU)
	Lock    string // -lock: simulated lock regime (percpu, perqueue, biglock)
	JSON    bool   // -json: write an artifact to results/<tool>.json
	JSONOut string
	TxtOut  string // -txt-out: mirror the rendered text to this file
	CSV     bool   // -csv: machine-readable stdout
	Quiet   bool   // -quiet: no progress on stderr

	// Diagnostics, when set by the tool before EmitArtifact, is embedded
	// in the artifact's "diagnostics" block (kernel counters + per-task
	// latency summaries).
	Diagnostics *metrics.Diagnostics

	// Attribution, when set by the tool before EmitArtifact, is embedded
	// in the artifact's "attribution" block (response decomposition,
	// miss root causes, inversion windows).
	Attribution *attrib.Report

	// Timeseries, when set by the tool before EmitArtifact, is embedded
	// in the artifact's "timeseries" block (the flight-recorder series
	// rendered by cmd/emstat).
	Timeseries *telemetry.Series

	start time.Time
}

// Register installs the shared flags on the default FlagSet. Call it
// before defining tool-specific flags and before flag.Parse.
func Register(tool string) *Common {
	c := &Common{Tool: tool, start: time.Now()}
	flag.IntVar(&c.Workers, "workers", 0, "parallel worker count (0 = all CPUs); results are identical for any value")
	flag.Int64Var(&c.Seed, "seed", 1, "base RNG seed")
	flag.IntVar(&c.CPUs, "cpus", 1, "simulated processor count (1 = classic single-CPU kernel)")
	flag.StringVar(&c.Lock, "lock", "percpu", "simulated lock granularity on multicore runs: percpu, perqueue, biglock")
	flag.BoolVar(&c.JSON, "json", false, fmt.Sprintf("write a versioned JSON artifact to results/%s.json", tool))
	flag.StringVar(&c.JSONOut, "json-out", "", "artifact path override (implies -json)")
	flag.StringVar(&c.TxtOut, "txt-out", "", "also write the rendered text output to this file")
	flag.BoolVar(&c.CSV, "csv", false, "emit CSV to stdout instead of aligned tables")
	flag.BoolVar(&c.Quiet, "quiet", false, "suppress progress reporting on stderr")
	return c
}

// Parse wraps flag.Parse and resolves flag interactions.
func (c *Common) Parse() {
	flag.Parse()
	if c.JSONOut != "" {
		c.JSON = true
	}
	if c.CPUs < 1 {
		c.Fatalf("bad -cpus: %d (want ≥ 1)", c.CPUs)
	}
	if _, err := kernel.ParseLockRegime(c.Lock); err != nil {
		c.Fatalf("bad -lock: %v", err)
	}
}

// Explicit reports whether the named flag was set on the command line,
// for flags whose default means "pick for me" but whose zero value is
// also a legal explicit choice (cmd/emfuzz's -cpus: default mixes
// M ∈ {1,2,4}, while an explicit -cpus 1 pins single-CPU scenarios).
// Call after Parse.
func Explicit(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// LockRegime returns the parsed -lock flag (validated at Parse).
func (c *Common) LockRegime() kernel.LockRegime {
	r, _ := kernel.ParseLockRegime(c.Lock)
	return r
}

// MulticoreConfig returns the (cpus, lock) pair experiment artifacts
// should record: zero values on a single-CPU run, so pre-multicore
// artifacts stay byte-identical under omitempty.
func (c *Common) MulticoreConfig() (int, string) {
	if c.CPUs <= 1 {
		return 0, ""
	}
	return c.CPUs, c.Lock
}

// Progress returns the writer experiment sweeps should report
// throughput to: stderr, or nil under -quiet.
func (c *Common) Progress() io.Writer {
	if c.Quiet {
		return nil
	}
	return os.Stderr
}

// EffectiveWorkers resolves the -workers flag the way the harness
// does, for recording in artifacts.
func (c *Common) EffectiveWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.NumCPU()
}

// ArtifactPath is where -json writes: -json-out if given, otherwise
// results/<tool>.json.
func (c *Common) ArtifactPath() string {
	if c.JSONOut != "" {
		return c.JSONOut
	}
	return filepath.Join("results", c.Tool+".json")
}

// EmitArtifact writes the tool's versioned artifact if -json was
// given. config must be the deterministic experiment parameters and
// series the deterministic results; volatile metadata (git, wall
// time, workers) goes under the artifact's "run" key. The wall time
// is measured from Register.
func (c *Common) EmitArtifact(config, series any) {
	if !c.JSON {
		return
	}
	a := harness.NewArtifact(c.Tool, config, series, c.EffectiveWorkers(), time.Since(c.start))
	a.Diagnostics = c.Diagnostics
	a.Attribution = c.Attribution
	a.Timeseries = c.Timeseries
	path := c.ArtifactPath()
	if err := a.WriteFile(path); err != nil {
		c.Fatalf("writing artifact: %v", err)
	}
	if !c.Quiet {
		fmt.Fprintf(os.Stderr, "%s: wrote %s\n", c.Tool, path)
	}
}

// EmitText mirrors the tool's rendered text output to the -txt-out
// file (next to the .json artifact, for the results/ pairing), a no-op
// when the flag is unset.
func (c *Common) EmitText(text string) {
	if c.TxtOut == "" {
		return
	}
	if err := os.MkdirAll(filepath.Dir(c.TxtOut), 0o755); err != nil {
		c.Fatalf("writing %s: %v", c.TxtOut, err)
	}
	if err := os.WriteFile(c.TxtOut, []byte(text), 0o644); err != nil {
		c.Fatalf("writing %s: %v", c.TxtOut, err)
	}
	if !c.Quiet {
		fmt.Fprintf(os.Stderr, "%s: wrote %s\n", c.Tool, c.TxtOut)
	}
}

// Fatalf reports a usage or I/O error and exits 2, the convention the
// tools already used for bad flags.
func (c *Common) Fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", c.Tool, fmt.Sprintf(format, args...))
	os.Exit(2)
}

// The range checks below exit 2 on an out-of-range numeric flag, so a
// tool never runs on a silently substituted default, labels its output
// with a value it did not use, or panics deep inside a computation.

// AtLeast exits 2 unless the integer flag name is at least least.
func (c *Common) AtLeast(name string, v, least int) {
	if v < least {
		c.Fatalf("bad -%s: %d (want ≥ %d)", name, v, least)
	}
}

// Positive exits 2 unless the float flag name is positive and finite.
func (c *Common) Positive(name string, v float64) {
	if !(v > 0 && v <= math.MaxFloat64) {
		c.Fatalf("bad -%s: %v (want a positive number)", name, v)
	}
}

// Millis returns the virtual-milliseconds flag name as a duration,
// exiting 2 unless the span is positive and fits a vtime.Duration.
func (c *Common) Millis(name string, ms float64) vtime.Duration {
	d := vtime.Millis(ms)
	if !(ms > 0 && ms < float64(vtime.Forever)/float64(vtime.Millisecond)) || d <= 0 {
		c.Fatalf("bad -%s: %v (want a positive number of milliseconds)", name, ms)
	}
	return d
}

// Ints parses a comma-separated integer list flag, exiting 2 on a bad
// or below-minimum entry.
func (c *Common) Ints(flagName, s string, min int) []int {
	out, err := ParseInts(s, min)
	if err != nil {
		c.Fatalf("bad -%s: %v", flagName, err)
	}
	return out
}

// ParseInts parses "5,10, 15" into []int, requiring each ≥ min.
func ParseInts(s string, min int) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("entry %q is not an integer", f)
		}
		if v < min {
			return nil, fmt.Errorf("entry %d below minimum %d", v, min)
		}
		out = append(out, v)
	}
	return out, nil
}

// Table renders header+rows as aligned columns: the first column
// left-aligned, the rest right-aligned (the repo's table style).
func Table(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len([]rune(h))
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len([]rune(cell)) > widths[i] {
				widths[i] = len([]rune(cell))
			}
		}
	}
	emit := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			pad := strings.Repeat(" ", widths[i]-len([]rune(cell)))
			if i == 0 {
				fmt.Fprint(w, cell, pad)
			} else {
				fmt.Fprint(w, pad, cell)
			}
		}
		fmt.Fprintln(w)
	}
	emit(header)
	for _, r := range rows {
		emit(r)
	}
}

// WriteCSV emits header+rows as comma-separated lines. Cells are
// expected to be plain numbers/identifiers (no quoting dialect —
// none of the tools emit commas or quotes in cells).
func WriteCSV(w io.Writer, header []string, rows [][]string) {
	fmt.Fprintln(w, strings.Join(header, ","))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, ","))
	}
}
