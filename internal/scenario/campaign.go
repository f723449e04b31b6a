package scenario

import (
	"context"
	"io"
	"sort"
	"strings"

	"emeralds/internal/harness"
)

// CampaignConfig parameterizes a fuzzing campaign.
type CampaignConfig struct {
	Scenarios int    // number of scenarios to generate and run
	BaseSeed  int64  // campaign seed; scenario i uses workload.SeedFor(BaseSeed, 0, i)
	CPUs      int    // 0 = mix M ∈ {1,2,4}; > 0 pins the CPU count
	Lock      string // "" = mixed regimes on multicore scenarios; else pins one
	Workers   int    // harness fan-out; 0 = all host CPUs
	Minimize  bool   // delta-debug each violating scenario into a repro
	// SampleUs overrides the flight-recorder cadence (virtual µs);
	// 0 keeps the default ~256 samples per horizon.
	SampleUs float64
	Progress io.Writer
	// Scrape, when non-nil, feeds the live OpenMetrics surface:
	// per-worker job throughput from the harness plus each scenario's
	// merged kernel counters. Advisory; never affects the report.
	Scrape *harness.Scrape
}

// Violation pairs a finding with the scenario that produced it and,
// when minimization ran, the reduced repro.
type Violation struct {
	Scenario  *Scenario `json:"scenario"`
	Finding   Finding   `json:"finding"`
	Minimized *Scenario `json:"minimized,omitempty"`
}

// Anomaly is one compact telemetry annotation: which scenario, what the
// flight recorder saw. Advisory — anomalies never fail a campaign.
type Anomaly struct {
	Index  int    `json:"index"` // scenario index
	Kind   string `json:"kind"`  // scenario archetype
	Detail string `json:"detail"`
}

// CampaignReport is the deterministic result of a campaign: identical
// for any worker count, since scenarios are generated from (seed,
// index) alone and results merge in job order.
type CampaignReport struct {
	Scenarios   int            `json:"scenarios"`
	Feasible    int            `json:"feasible"`    // analysis-clean scenarios the analysis admitted
	Clean       int            `json:"clean"`       // scenarios eligible for the differential oracle
	Misses      uint64         `json:"misses"`      // deadline misses across all scenarios
	Completions uint64         `json:"completions"` // job completions across all scenarios
	PerOracle   map[string]int `json:"per_oracle,omitempty"`
	PerKind     map[string]int `json:"per_kind"` // scenarios per archetype
	Violations  []Violation    `json:"violations,omitempty"`
	// Anomalous counts scenarios with at least one telemetry
	// annotation; Anomalies lists them all (advisory).
	Anomalous int       `json:"anomalous,omitempty"`
	Anomalies []Anomaly `json:"anomalies,omitempty"`
}

type campaignJob struct {
	scenario *Scenario
	result   *Result
}

// RunCampaign generates and runs cfg.Scenarios scenarios on the shared
// harness worker pool, checking every oracle and (optionally)
// minimizing each violation. The returned report is independent of
// cfg.Workers.
func RunCampaign(ctx context.Context, cfg CampaignConfig) (*CampaignReport, error) {
	jobs, err := harness.Run(ctx, cfg.Scenarios, harness.Options{
		Workers:  cfg.Workers,
		Label:    "emfuzz",
		Progress: cfg.Progress,
		Scrape:   cfg.Scrape,
	}, func(ctx context.Context, job harness.Job) (campaignJob, error) {
		s := Gen(cfg.BaseSeed, job.Index, cfg.CPUs)
		if cfg.Lock != "" && s.CPUs > 1 {
			s.Lock = cfg.Lock
		}
		res := RunSampled(s, cfg.SampleUs)
		if cfg.Scrape != nil {
			cfg.Scrape.MergeCounters(res.Counters())
		}
		return campaignJob{scenario: s, result: res}, nil
	})
	if err != nil {
		return nil, err
	}

	rep := &CampaignReport{
		Scenarios: cfg.Scenarios,
		PerOracle: map[string]int{},
		PerKind:   map[string]int{},
	}
	for _, j := range jobs {
		rep.PerKind[j.scenario.Name]++
		rep.Misses += j.result.Misses
		rep.Completions += j.result.Completions
		if j.scenario.AnalysisClean() {
			rep.Clean++
			if j.result.Feasible {
				rep.Feasible++
			}
		}
		for _, f := range j.result.Findings {
			rep.PerOracle[f.Oracle]++
			v := Violation{Scenario: j.scenario, Finding: f}
			if cfg.Minimize {
				v.Minimized = Minimize(j.scenario, f.Oracle)
			}
			rep.Violations = append(rep.Violations, v)
		}
		if len(j.result.Anomalies) > 0 {
			rep.Anomalous++
			for _, f := range j.result.Anomalies {
				rep.Anomalies = append(rep.Anomalies,
					Anomaly{Index: j.scenario.Index, Kind: j.scenario.Name, Detail: f.Detail})
			}
		}
	}
	if len(rep.PerOracle) == 0 {
		rep.PerOracle = nil
	}
	return rep, nil
}

// AnomalyClasses buckets the telemetry annotations by their leading
// class token ("slo", "burn-rate", "change-point") for summary tables.
func (r *CampaignReport) AnomalyClasses() map[string]int {
	if len(r.Anomalies) == 0 {
		return nil
	}
	out := map[string]int{}
	for _, a := range r.Anomalies {
		class := a.Detail
		if i := strings.IndexByte(class, ' '); i >= 0 {
			class = class[:i]
		}
		out[class]++
	}
	return out
}

// OracleOrder returns the report's violated-oracle names sorted, for
// deterministic rendering.
func (r *CampaignReport) OracleOrder() []string {
	names := make([]string, 0, len(r.PerOracle))
	for k := range r.PerOracle {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// KindOrder returns the archetype names sorted.
func (r *CampaignReport) KindOrder() []string {
	names := make([]string, 0, len(r.PerKind))
	for k := range r.PerKind {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
