package main

import (
	"fmt"
	"strings"

	"emeralds/internal/analysis"
	"emeralds/internal/attrib"
	"emeralds/internal/costmodel"
	"emeralds/internal/experiments"
	"emeralds/internal/ipc/syncheck"
	"emeralds/internal/metrics"
	"emeralds/internal/scenario"
	"emeralds/internal/telemetry"
	"emeralds/internal/vtime"
	"emeralds/internal/workload"
)

// The traced run cannot put spans inside the program, so it runs
// replicas of the two jobs whose layers sit behind one public call:
// scenario.RunCampaign's per-scenario job and experiments.
// BreakdownFigure's job body. They make the same calls in the same
// order, each wrapped in a span. replicas_test.go pins them to the
// originals, and the traced run checks their digests against the
// untraced run's.

// campaignReplica is scenario.RunCampaign with Workers 1, Minimize on
// and the default telemetry cadence, minus the harness fan-out.
func campaignReplica(t *tracer, base int64) *scenario.CampaignReport {
	type job struct {
		s   *scenario.Scenario
		res *scenario.Result
	}
	jobs := make([]job, campaignScenarios)
	for i := range jobs {
		t.begin("scenario", "")
		t.begin("scenario.gen", "")
		s := scenario.Gen(base, i, 0)
		t.end(0)
		jobs[i] = job{s, runScenario(t, s)}
		t.end(0)
	}

	rep := &scenario.CampaignReport{
		Scenarios: campaignScenarios,
		PerOracle: map[string]int{},
		PerKind:   map[string]int{},
	}
	for _, j := range jobs {
		rep.PerKind[j.s.Name]++
		rep.Misses += j.res.Misses
		rep.Completions += j.res.Completions
		if j.s.AnalysisClean() {
			rep.Clean++
			if j.res.Feasible {
				rep.Feasible++
			}
		}
		for _, f := range j.res.Findings {
			rep.PerOracle[f.Oracle]++
			rep.Violations = append(rep.Violations, scenario.Violation{
				Scenario: j.s, Finding: f, Minimized: scenario.Minimize(j.s, f.Oracle)})
		}
		if len(j.res.Anomalies) > 0 {
			rep.Anomalous++
			for _, f := range j.res.Anomalies {
				rep.Anomalies = append(rep.Anomalies,
					scenario.Anomaly{Index: j.s.Index, Kind: j.s.Name, Detail: f.Detail})
			}
		}
	}
	if len(rep.PerOracle) == 0 {
		rep.PerOracle = nil
	}
	return rep
}

// runScenario is scenario.RunSampled(s, 0) with a span around each
// call into a layer.
func runScenario(t *tracer, s *scenario.Scenario) (res *scenario.Result) {
	res = &scenario.Result{}
	depth := t.depth()
	defer func() {
		if v := recover(); v != nil {
			t.unwind(depth)
			res.Findings = append(res.Findings, scenario.Finding{Oracle: scenario.OraclePanic, Detail: fmt.Sprint(v)})
		}
	}()
	fail := func(oracle, detail string) {
		res.Findings = append(res.Findings, scenario.Finding{Oracle: oracle, Detail: detail})
	}

	t.begin("kernel.build", "")
	sys, aper, err := scenario.Build(s)
	t.end(0)
	if err != nil {
		fail(scenario.OraclePanic, "build: "+err.Error())
		return res
	}
	interval := s.Horizon / 256
	if interval <= 0 {
		interval = vtime.Microsecond
	}
	t.begin("telemetry.attach", "")
	rec, err := telemetry.Attach(sys.Kernel(), telemetry.Config{Interval: interval, Capacity: 512})
	t.end(0)
	if err != nil {
		fail(scenario.OraclePanic, "telemetry: "+err.Error())
		return res
	}
	t.begin("kernel.boot", s.Policy)
	err = sys.Boot()
	t.end(0)
	if err != nil {
		fail(scenario.OraclePanic, "boot: "+err.Error())
		return res
	}

	// kernel.run covers scheduling the aperiodic arrivals as well.
	t.begin("kernel.run", s.Policy)
	eng := sys.Kernel().Engine()
	fired := eng.Fired()
	for i, th := range aper {
		if th == nil {
			continue
		}
		th := th
		for _, at := range s.Tasks[i].Arrivals {
			eng.At(at, "arrival", func() { sys.Kernel().ReleaseAperiodic(th) })
		}
	}
	sys.Run(s.Horizon)
	t.end(eng.Fired() - fired)

	st := sys.Stats()
	res.Misses, res.Completions = st.Misses, st.Completions
	shards := make([]*metrics.Set, sys.Kernel().NumCPUs())
	for c := range shards {
		shards[c] = sys.Kernel().MetricsOn(c)
	}
	_ = metrics.MergeShards(shards) // RunSampled keeps this for the live scrape surface

	slo := telemetry.SLO{}
	for _, tk := range s.Tasks {
		if p := tk.Spec.Period.Micros(); p > slo.P99Us {
			slo.P99Us = p
		}
	}
	t.begin("telemetry.analyze", "")
	for _, msg := range telemetry.Analyze(rec.Series(), slo).Anomalies() {
		res.Anomalies = append(res.Anomalies, scenario.Finding{Oracle: scenario.AnnoTelemetry, Detail: msg})
	}
	t.end(0)

	t.begin("kernel.invariants", "")
	for _, msg := range sys.Kernel().CheckInvariants() {
		fail(scenario.OracleInvariant, msg)
	}
	t.end(0)

	log := sys.Trace()
	t.count("trace.events.count", log.Total())
	if d := log.Dropped(); d > 0 {
		fail(scenario.OracleTruncated, fmt.Sprintf("%d events dropped with capacity %d", d, s.TraceCapacity()))
	} else {
		if len(s.Mailboxes) > 0 || len(s.VLinks) > 0 {
			evs := traceEvents(t, log)
			t.begin("ipc.syncheck", "")
			rep := syncheck.Check(evs)
			t.end(uint64(len(evs)))
			if !rep.OK() {
				detail := fmt.Sprintf("unmatched receives: %d", rep.Unmatched)
				if !rep.Synchronizable {
					detail = "crown: " + strings.Join(rep.Crown, "; ")
				}
				fail(scenario.OracleSync, detail)
			}
		}
		evs := traceEvents(t, log)
		t.begin("attrib.analyze", "")
		an, err := attrib.Analyze(evs, 0)
		if err != nil {
			fail(scenario.OracleResidual, "analyze: "+err.Error())
		} else {
			for i := range an.Activations {
				a := &an.Activations[i]
				if a.Aborted {
					continue
				}
				if r := a.Residual(); r != 0 {
					fail(scenario.OracleResidual, fmt.Sprintf("%s activation %d: residual %v", a.Task, a.Index, r))
				}
			}
			if s.InversionClean() {
				for _, iv := range an.Inversions {
					fail(scenario.OracleInversion, fmt.Sprintf("%s blocked on %s while %s ran [%v, %v]",
						iv.Task, iv.Sem, iv.Runner, iv.From, iv.To))
				}
			}
		}
		t.end(uint64(len(evs)))
	}

	if s.AnalysisClean() {
		t.begin("analysis.feasible", "")
		res.Feasible = scenario.Feasible(s)
		t.end(0)
		if res.Feasible && st.Misses > 0 {
			fail(scenario.OracleFeasibleMiss, fmt.Sprintf("analysis feasible but %d misses in %v", st.Misses, s.Horizon))
		}
	}
	return res
}

// breakdownLayers names the span of each scheduler's breakdown search.
var breakdownLayers = map[string]string{
	"CSD-4": "analysis.breakdown_csd4",
	"CSD-3": "analysis.breakdown_csd3",
	"CSD-2": "analysis.breakdown_csd2",
	"EDF":   "analysis.breakdown_edf",
	"RM":    "analysis.breakdown_rm",
}

// breakdownReplica is experiments.BreakdownFigure over DefaultNs with
// one workload per point, serially, returning the series in
// BreakdownSchedulers order.
func breakdownReplica(t *tracer, seed int64, div int) [][]float64 {
	prof := costmodel.M68040()
	series := make([][]float64, len(experiments.BreakdownSchedulers))
	for si := range series {
		series[si] = make([]float64, len(experiments.DefaultNs))
	}
	for xi, n := range experiments.DefaultNs {
		t.begin("workload.generate", "")
		specs := workload.Generate(workload.Config{
			N:           n,
			PeriodDiv:   div,
			Utilization: 0.5,
			Seed:        workload.SeedFor(seed, n, 0),
		})
		t.end(0)
		for si, name := range experiments.BreakdownSchedulers {
			t.begin(breakdownLayers[name], "")
			var v float64
			switch name {
			case "EDF":
				v = analysis.BreakdownEDF(prof, specs)
			case "RM":
				v = analysis.BreakdownRM(prof, specs)
			case "CSD-2":
				v = analysis.BreakdownCSD(prof, specs, 2)
			case "CSD-3":
				v = analysis.BreakdownCSD(prof, specs, 3)
			case "CSD-4":
				v = analysis.BreakdownCSD(prof, specs, 4)
			default:
				panic("perfbench: no breakdown replica for " + name)
			}
			t.end(0)
			// BreakdownFigure's merge of a point's single workload.
			series[si][xi] = 100 * v
		}
	}
	return series
}
