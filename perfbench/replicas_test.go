package main

import (
	"context"
	"math"
	"reflect"
	"testing"

	"emeralds/internal/experiments"
	"emeralds/internal/scenario"
)

// The traced run's ledger describes the program only while the
// replicas make the same calls as the originals. These tests fail when
// scenario.RunSampled or experiments.BreakdownFigure change what they
// compute without the replicas following.

func TestScenarioReplicaMatchesRun(t *testing.T) {
	base := unitSeed(defaultSeed, timedStream, 0)
	tr := newTracer()
	for i := 0; i < campaignScenarios; i++ {
		want := scenario.Run(scenario.Gen(base, i, 0))
		got := runScenario(tr, scenario.Gen(base, i, 0))
		if !reflect.DeepEqual(got.Findings, want.Findings) || got.Misses != want.Misses ||
			got.Completions != want.Completions || got.Feasible != want.Feasible ||
			!reflect.DeepEqual(got.Anomalies, want.Anomalies) {
			t.Fatalf("scenario %d: replica %+v, scenario.Run %+v", i, got, want)
		}
	}
	if len(tr.open) != 0 {
		t.Fatalf("%d spans left open", len(tr.open))
	}
}

func TestCampaignReplicaMatchesRunCampaign(t *testing.T) {
	base := unitSeed(heldOutSeed, timedStream, 0)
	want, err := scenario.RunCampaign(context.Background(), scenario.CampaignConfig{
		Scenarios: campaignScenarios, BaseSeed: base, Workers: 1, Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := campaignReplica(newTracer(), base); !reflect.DeepEqual(got, want) {
		t.Fatalf("replica report differs from RunCampaign's:\n got %+v\nwant %+v", got, want)
	}
}

func TestBreakdownReplicaMatchesFigure(t *testing.T) {
	for div := 1; div <= 3; div++ {
		seed := unitSeed(defaultSeed, timedStream, div)
		want := experiments.BreakdownFigure(experiments.BreakdownConfig{
			Ns: experiments.DefaultNs, PeriodDiv: div, Workloads: 1, Seed: seed, Par: experiments.Serial})
		got := breakdownReplica(newTracer(), seed, div)
		for si, name := range experiments.BreakdownSchedulers {
			for i, v := range want.Series[name] {
				if math.Float64bits(got[si][i]) != math.Float64bits(v) {
					t.Fatalf("div %d %s n=%d: replica %v, BreakdownFigure %v",
						div, name, experiments.DefaultNs[i], got[si][i], v)
				}
			}
		}
	}
}

// TestGoldens checks the warm-up units and the first timed unit of
// every workload against the goldens of both kept seeds, untraced and
// traced.
func TestGoldens(t *testing.T) {
	for _, w := range append(workloads, fuzzCampaign) {
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			g, err := loadGolden(w.name, seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(g.Warmup) != w.warmup || len(g.Units) == 0 {
				t.Fatalf("%s seed %d: %d warm-up and %d unit goldens", w.name, seed, len(g.Warmup), len(g.Units))
			}
			c := &checker{w: w, seed: seed, golden: g, seen: map[int]string{}}
			for k := 0; k < w.warmup; k++ {
				if err := c.check(runSafe(w, nil, newUnit(seed, warmupStream, k)), warmupStream, k); err != nil {
					t.Errorf("%s seed %d warm-up %d: %v", w.name, seed, k, err)
				}
			}
			u := newUnit(seed, timedStream, 0)
			if err := c.check(runSafe(w, nil, u), timedStream, 0); err != nil {
				t.Errorf("%s seed %d unit 0: %v", w.name, seed, err)
			}
			if err := c.check(runSafe(w, newTracer(), u), timedStream, 0); err != nil {
				t.Errorf("%s seed %d unit 0 traced: %v", w.name, seed, err)
			}
		}
	}
}

func TestLedgerSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "unit", Parent: -1, Start: 0, End: 100},
		{Name: "kernel.boot", Tag: "csd", Parent: 0, Start: 10, End: 50, Alloc: 3000},
		{Name: "telemetry.attach", Parent: 1, Start: 20, End: 30, Alloc: 1000},
		{Name: "kernel.run", Tag: "csd", Parent: 0, Start: 50, End: 96, N: 23},
	}}
	m, coverage := ledger(tr, nil, workloads[0])
	for name, want := range map[string]float64{
		"kernel.boot.self_ms":             30e-6,
		"kernel.boot.alloc_kb":            2,
		"telemetry.attach.share_pct":      10,
		"kernel.run.csd.ns_per_sim_event": 2,
		"kernel.boot.csd.self_ms":         30e-6,
	} {
		if math.Abs(m[name]-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
	if coverage != 86 {
		t.Errorf("coverage %v%%, want 86%%", coverage)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i+1) / 1000
	}
	if ms, pct := tailMs(xs); math.Abs(ms-30) > 1e-9 || pct != 75 {
		t.Errorf("tail of 1..40 ms = %v ms at p%v, want 30 ms at p75", ms, pct)
	}
	if ms, pct := tailMs(xs[:7]); math.Abs(ms-7) > 1e-9 || pct != 100 {
		t.Errorf("tail of 1..7 ms = %v ms at p%v, want the maximum", ms, pct)
	}
}
