package main

import (
	"strings"
	"testing"

	"emeralds/internal/cli/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestFlagSurface: emfuzz accepts its campaign flags and refuses
// -sample-cap, which it never read (the campaign's recorder ring is
// fixed at 512 samples).
func TestFlagSurface(t *testing.T) {
	clitest.Surface(t, []string{
		"cpus", "csv", "json", "json-out", "lock", "metrics-addr", "minimize",
		"quiet", "repro-dir", "sample-us", "scenarios", "seed", "trace-out",
		"txt-out", "workers",
	}, "sample-cap")
}

// TestUsageStatesCampaignMeanings: -cpus, -lock, -sample-us and
// -trace-out mean something else in a campaign than in a single run,
// and the usage says what: unset mixes the topologies, 0 keeps the
// per-horizon cadence, and the export is a violation's replay.
func TestUsageStatesCampaignMeanings(t *testing.T) {
	usage := clitest.Usage(t)
	for _, want := range []string{
		"0 = mix M ∈ {1, 2, 4}",
		"empty = mix the regimes",
		"0 = about 256 samples per scenario horizon",
		"the first violation's replay",
	} {
		if !strings.Contains(usage, want) {
			t.Errorf("usage does not say %q:\n%s", want, usage)
		}
	}
}

// TestBadFlagsRefused: a sampling cadence that is negative or rounds to
// a zero interval, a negative CPU count, an unknown lock regime or an
// empty campaign exits 2 naming the flag. Run on -sample-us 0.0001,
// the campaign reported every scenario as an oracle panic and exited 1;
// on -sample-us -5 it silently used the default cadence.
func TestBadFlagsRefused(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-sample-us", []string{"-sample-us", "0.0001"}},
		{"-sample-us", []string{"-sample-us", "-5"}},
		{"-sample-us", []string{"-sample-us", "NaN"}},
		{"-cpus", []string{"-cpus", "-1"}},
		{"-lock", []string{"-lock", "foo"}},
		{"-scenarios", []string{"-scenarios", "0"}},
	} {
		clitest.Refused(t, "bad "+tc.flag+":", append([]string{"-scenarios", "2", "-quiet"}, tc.args...)...)
	}
}
