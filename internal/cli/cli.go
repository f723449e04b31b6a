// Package cli is the shared plumbing of the cmd/ experiment tools:
// the shared flags (-json, -json-out and -quiet in every tool; -seed,
// -workers, -csv and -txt-out in the tools that read them; the
// simulator flags of SimFlags and the single-run flags of RunFlags),
// their range checks, comma-separated integer-list parsing,
// aligned-table and CSV rendering, and versioned JSON artifact
// emission under results/. Keeping it here means a flag means the same
// in every tool that takes it, a tool takes only the flags it reads,
// and the output formats live in exactly one place.
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
	"emeralds/internal/metrics"
	"emeralds/internal/telemetry"
	"emeralds/internal/vtime"
)

// Common holds the shared flags of one experiment command.
type Common struct {
	Tool string // command name, used in errors and artifact metadata

	JSON    bool   // -json: write an artifact to results/<tool>.json
	JSONOut string // -json-out: artifact path override
	Quiet   bool   // -quiet: no progress on stderr

	// Optional shared flags, registered only by the tools that name
	// them in Register; the rest keep the zero value.
	Seed    int64  // -seed: base RNG seed
	Workers int    // -workers: fan-out width, 0 = all CPUs
	CSV     bool   // -csv: machine-readable stdout
	TxtOut  string // -txt-out: mirror the rendered text to this file

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

	start  time.Time
	checks []func() // range checks of registered flag groups, run by Parse
}

// Shared names an optional shared flag for Register.
type Shared int

const (
	Seed    Shared = iota // -seed: base RNG seed (default 1)
	Workers               // -workers: harness fan-out width
	CSV                   // -csv: CSV on stdout instead of aligned tables
	TxtOut                // -txt-out: mirror the rendered text to a file
)

// Register installs -json, -json-out and -quiet, which every tool
// reads, and the optional shared flags the tool names, on the default
// FlagSet. Call it before defining tool-specific flags and before
// Parse.
func Register(tool string, shared ...Shared) *Common {
	c := &Common{Tool: tool, start: time.Now()}
	flag.BoolVar(&c.JSON, "json", false, fmt.Sprintf("write a versioned JSON artifact to results/%s.json", tool))
	flag.StringVar(&c.JSONOut, "json-out", "", "artifact path override (implies -json)")
	flag.BoolVar(&c.Quiet, "quiet", false, "suppress progress reporting on stderr")
	for _, s := range shared {
		switch s {
		case Seed:
			flag.Int64Var(&c.Seed, "seed", 1, "base RNG seed")
		case Workers:
			flag.IntVar(&c.Workers, "workers", 0, "parallel worker count (0 = all CPUs); results are identical for any value")
		case CSV:
			flag.BoolVar(&c.CSV, "csv", false, "emit CSV to stdout instead of aligned tables")
		case TxtOut:
			flag.StringVar(&c.TxtOut, "txt-out", "", "also write the rendered text output to this file")
		}
	}
	return c
}

// Parse wraps flag.Parse, resolves flag interactions and runs the range
// checks of the flag groups the tool registered (SimFlags, RunFlags).
func (c *Common) Parse() {
	flag.Parse()
	if c.JSONOut != "" {
		c.JSON = true
	}
	for _, check := range c.checks {
		check()
	}
}

// Explicit reports whether the named flag was set on the command line,
// for flags whose default is also a legal explicit choice (cmd/ablate's
// -cpus and -lock: the defaults leave the full lock-granularity grid,
// while an explicit -cpus 1 pins its single-CPU row). Call after Parse.
func Explicit(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
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
// does, for recording in artifacts. A tool without the flag runs no
// harness fan-out and records 0, which the artifact leaves out.
func (c *Common) EffectiveWorkers() int {
	switch {
	case flag.Lookup("workers") == nil:
		return 0
	case c.Workers > 0:
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

// Cadence exits 2 unless the virtual-microseconds sampling flag name
// is 0 (the tool's default cadence) or at least one virtual nanosecond
// and within a vtime.Duration. A positive value under 0.001 µs would
// round to a zero interval, which the flight recorder refuses mid-run.
func (c *Common) Cadence(name string, us float64) {
	if us != 0 && !(us >= 0.001 && us < float64(vtime.Forever)/float64(vtime.Microsecond)) {
		c.Fatalf("bad -%s: %v (want 0 for the default, or at least 0.001 µs)", name, us)
	}
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
