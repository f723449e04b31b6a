package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"emeralds/internal/attrib"
	"emeralds/internal/metrics"
	"emeralds/internal/telemetry"
)

// ArtifactSchema versions the results/*.json layout. Bump it whenever
// a field changes meaning so downstream plotting scripts can dispatch.
const ArtifactSchema = "emeralds.artifact/v1"

// FuzzSchema versions the cmd/emfuzz campaign artifact, whose series is
// a scenario.CampaignReport rather than an experiment table.
const FuzzSchema = "emeralds.fuzz/v1"

// Artifact is the machine-readable record of one experiment run,
// written next to the human-readable .txt under results/. Everything
// outside Run is a pure function of the experiment's configuration —
// byte-stable across repeated runs and worker counts (encoding/json
// orders struct fields by declaration and map keys lexically). Run
// holds the only volatile metadata (timing, git state), so two
// artifacts can be diffed for determinism with the "run" key deleted.
type Artifact struct {
	Schema string `json:"schema"`
	Tool   string `json:"tool"`
	Config any    `json:"config,omitempty"`
	Series any    `json:"series"`
	// Diagnostics is the observability block: the kernel counter
	// snapshot plus per-task latency summaries, merged across harness
	// jobs. Deterministic like Config/Series; omitted by tools that
	// predate it.
	Diagnostics *metrics.Diagnostics `json:"diagnostics,omitempty"`
	// Attribution is the latency-attribution block: per-task response
	// decomposition, deadline-miss root causes, and priority-inversion
	// windows replayed from the run's trace. Deterministic; omitted by
	// tools that do not capture a trace.
	Attribution *attrib.Report `json:"attribution,omitempty"`
	// Timeseries is the flight-recorder block: the sampled kernel
	// series emitted when telemetry is enabled, consumed by cmd/emstat.
	// Deterministic like the rest; omitted when sampling is off.
	Timeseries *telemetry.Series `json:"timeseries,omitempty"`
	Run        RunInfo           `json:"run"`
}

// RunInfo is the volatile part of an artifact.
type RunInfo struct {
	GitCommit string  `json:"git_commit,omitempty"`
	GitDirty  bool    `json:"git_dirty,omitempty"`
	Workers   int     `json:"workers,omitempty"`
	WallMS    float64 `json:"wall_ms"`
	WrittenAt string  `json:"written_at"` // RFC 3339, UTC
}

// NewArtifact assembles an artifact, stamping git metadata and the
// write time. wall is the experiment's measured wall-clock duration.
func NewArtifact(tool string, config, series any, workers int, wall time.Duration) *Artifact {
	commit, dirty := gitInfo()
	return &Artifact{
		Schema: ArtifactSchema,
		Tool:   tool,
		Config: config,
		Series: series,
		Run: RunInfo{
			GitCommit: commit,
			GitDirty:  dirty,
			Workers:   workers,
			WallMS:    float64(wall.Microseconds()) / 1000,
			WrittenAt: time.Now().UTC().Format(time.RFC3339),
		},
	}
}

// WriteFile writes the artifact as indented JSON, creating the parent
// directory (normally results/) if needed. The write goes through a
// temp file + rename so a crashed run never leaves a truncated
// artifact behind.
func (a *Artifact) WriteFile(path string) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return fmt.Errorf("harness: marshal artifact: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".artifact-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadArtifact loads an artifact without interpreting Config/Series
// (they come back as generic JSON values) and rejects anything that is
// not an experiment artifact (fuzz artifacts need ReadArtifactSchema).
func ReadArtifact(path string) (*Artifact, error) {
	return ReadArtifactSchema(path, ArtifactSchema)
}

// ReadArtifactSchema loads an artifact and requires the given schema
// string, so each consumer dispatches on the layout it understands.
func ReadArtifactSchema(path, schema string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("harness: parse %s: %w", path, err)
	}
	if a.Schema != schema {
		return nil, fmt.Errorf("harness: %s has schema %q, want %q", path, a.Schema, schema)
	}
	return &a, nil
}

var gitOnce = sync.OnceValues(func() (string, bool) {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "", false
	}
	commit := strings.TrimSpace(string(out))
	status, err := exec.Command("git", "status", "--porcelain").Output()
	dirty := err == nil && len(strings.TrimSpace(string(status))) > 0
	return commit, dirty
})

// gitInfo reports the current commit and dirtiness, cached per
// process; both are zero when the binary runs outside a checkout.
func gitInfo() (commit string, dirty bool) {
	return gitOnce()
}
