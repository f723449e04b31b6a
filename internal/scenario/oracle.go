package scenario

import (
	"fmt"
	"strings"

	"emeralds/internal/analysis"
	"emeralds/internal/attrib"
	"emeralds/internal/costmodel"
	"emeralds/internal/ipc/syncheck"
	"emeralds/internal/metrics"
	"emeralds/internal/sched"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/telemetry"
	"emeralds/internal/vtime"
)

// Oracle kinds, in the order the findings report groups them.
const (
	OracleFeasibleMiss = "feasible-miss"   // analysis said schedulable, simulator missed
	OracleResidual     = "attrib-residual" // activation partition did not sum exactly
	OracleInversion    = "inversion"       // priority-inversion window outside the blocking chain
	OracleInvariant    = "invariant"       // kernel quiescent-state audit failed
	OracleSync         = "syncheck"        // observed IPC not synchronizable / non-FIFO
	OracleTruncated    = "truncated"       // trace ring overflowed despite horizon sizing
	OraclePanic        = "panic"           // the simulation itself panicked
)

// AnnoTelemetry is the fifth, advisory channel: flight-recorder SLO
// failures, burn-rate alerts, and change points. Telemetry anomalies
// annotate findings — they localize *when* a run went wrong — but are
// not oracle violations: an anomalous-but-correct run (an infeasible
// set missing deadlines, exactly as analysis predicts) must not fail
// the campaign.
const AnnoTelemetry = "telemetry-anomaly"

// Finding is one oracle violation.
type Finding struct {
	Oracle string `json:"oracle"`
	Detail string `json:"detail"`
}

// Result is the outcome of running one scenario.
type Result struct {
	Findings    []Finding `json:"findings,omitempty"`
	Misses      uint64    `json:"misses"`
	Completions uint64    `json:"completions"`
	// Feasible is the analysis verdict; meaningful only when the
	// scenario is analysis-clean.
	Feasible bool `json:"feasible"`
	// Anomalies are AnnoTelemetry annotations from the flight recorder:
	// advisory, never counted as violations.
	Anomalies []Finding `json:"anomalies,omitempty"`

	// counters is the merged per-CPU kernel counter set, fed to the live
	// scrape surface during campaigns.
	counters *metrics.Set
}

// Counters returns the run's merged kernel counters (nil before Run).
func (r *Result) Counters() *metrics.Set { return r.counters }

// Run executes the scenario and checks every applicable oracle. It
// never panics: a panic anywhere in build/boot/simulate surfaces as an
// OraclePanic finding so the campaign keeps going and the scenario can
// be minimized like any other violation.
func Run(s *Scenario) *Result { return RunSampled(s, 0) }

// RunSampled is Run with the flight-recorder cadence overridable: a
// positive sampleUs (virtual microseconds, the emfuzz -sample-us flag)
// replaces the default ~256-samples-per-horizon interval. The recorder
// only reads kernel state, so the cadence never affects the oracles —
// only the telemetry annotations' resolution.
func RunSampled(s *Scenario, sampleUs float64) (res *Result) {
	res = &Result{}
	defer func() {
		if v := recover(); v != nil {
			res.Findings = append(res.Findings, Finding{OraclePanic, fmt.Sprint(v)})
		}
	}()

	// Flight recorder: ~256 samples across the horizon.
	interval := s.Horizon / 256
	if interval <= 0 {
		interval = vtime.Microsecond
	}
	if sampleUs > 0 {
		interval = vtime.Duration(sampleUs * 1000)
	}
	sys, rec, err := replay(s, &telemetry.Config{Interval: interval, Capacity: 512})
	if err != nil {
		res.Findings = append(res.Findings, Finding{OraclePanic, err.Error()})
		return res
	}

	st := sys.Stats()
	res.Misses, res.Completions = st.Misses, st.Completions

	shards := make([]*metrics.Set, sys.Kernel().NumCPUs())
	for c := range shards {
		shards[c] = sys.Kernel().MetricsOn(c)
	}
	res.counters = metrics.MergeShards(shards)

	// (e) telemetry annotations: SLO failures, burn-rate alerts, and
	// change points over the sampled series. The p99 objective scales
	// with the task set — a response beyond the longest period is
	// pathological for any workload, while judging a 500 ms-period set
	// against the stock 10 ms target would flag every slow-but-healthy
	// scenario.
	slo := telemetry.SLO{}
	for _, t := range s.Tasks {
		if p := t.Spec.Period.Micros(); p > slo.P99Us {
			slo.P99Us = p
		}
	}
	for _, msg := range telemetry.Analyze(rec.Series(), slo).Anomalies() {
		res.Anomalies = append(res.Anomalies, Finding{AnnoTelemetry, msg})
	}

	// (d) kernel invariants.
	for _, msg := range sys.Kernel().CheckInvariants() {
		res.Findings = append(res.Findings, Finding{OracleInvariant, msg})
	}

	// (b)/(c) need the trace; the ring was sized from the horizon, so an
	// overflow here is itself a finding (the sizing formula is part of
	// the campaign's contract with attrib's truncation refusal).
	log := sys.Trace()
	if d := log.Dropped(); d > 0 {
		res.Findings = append(res.Findings, Finding{OracleTruncated,
			fmt.Sprintf("%d events dropped with capacity %d", d, s.TraceCapacity())})
	} else {
		// One copy of the ring serves both trace oracles.
		events := log.Events()
		// (f) synchronizability: every generated communication topology
		// is a DAG (pipelines, fans), which is provably crown-free — so
		// any crown in the observed send/receive order, or a receive
		// that FIFO matching cannot pair with an earlier send, is a
		// kernel bug, not a workload property. Applies to any scenario
		// with queues.
		if len(s.Mailboxes) > 0 || len(s.VLinks) > 0 {
			if rep := syncheck.Check(events); !rep.OK() {
				detail := fmt.Sprintf("unmatched receives: %d", rep.Unmatched)
				if !rep.Synchronizable {
					detail = "crown: " + strings.Join(rep.Crown, "; ")
				}
				res.Findings = append(res.Findings, Finding{OracleSync, detail})
			}
		}
		an, err := attrib.Analyze(events, 0)
		if err != nil {
			res.Findings = append(res.Findings, Finding{OracleResidual, "analyze: " + err.Error()})
		} else {
			for i := range an.Activations {
				a := &an.Activations[i]
				if a.Aborted {
					continue
				}
				if r := a.Residual(); r != 0 {
					res.Findings = append(res.Findings, Finding{OracleResidual,
						fmt.Sprintf("%s activation %d: residual %v", a.Task, a.Index, r)})
				}
			}
			if s.InversionClean() {
				for _, iv := range an.Inversions {
					res.Findings = append(res.Findings, Finding{OracleInversion,
						fmt.Sprintf("%s blocked on %s while %s ran [%v, %v]",
							iv.Task, iv.Sem, iv.Runner, iv.From, iv.To)})
				}
			}
		}
	}

	// (a) differential oracle, only where the analysis is exact.
	if s.AnalysisClean() {
		res.Feasible = Feasible(s)
		if res.Feasible && st.Misses > 0 {
			res.Findings = append(res.Findings, Finding{OracleFeasibleMiss,
				fmt.Sprintf("analysis feasible but %d misses in %v", st.Misses, s.Horizon)})
		}
	}
	return res
}

// Feasible runs the schedulability analysis the simulator's Boot
// implicitly claims: the policy's feasibility test per CPU over the
// placement Boot makes (one CPU holding the whole set when M = 1). For
// CSD the claim is "some partition passes §5.5.3's search" — when none
// does, the kernel degrades to the all-DP split without claiming
// schedulability, so no claim is made here either.
func Feasible(s *Scenario) bool {
	prof := s.Profile()
	for _, cpuTasks := range placement(s) {
		specs := make([]task.Spec, len(cpuTasks))
		for i, t := range cpuTasks {
			specs[i] = t.Spec
		}
		if !feasibleOn(s.Policy, prof, specs) {
			return false
		}
	}
	return true
}

// placement is the per-CPU split Boot makes of the scenario's tasks:
// sched.AssignCPUs, a pure function of the specs in admission order.
func placement(s *Scenario) [][]*task.TCB {
	tcbs := make([]*task.TCB, len(s.Tasks))
	for i, t := range s.Tasks {
		tcbs[i] = task.New(i, t.Spec)
	}
	return sched.AssignCPUs(tcbs, s.CPUs)
}

func feasibleOn(policy string, prof *costmodel.Profile, specs []task.Spec) bool {
	if len(specs) == 0 {
		return true
	}
	switch policy {
	case sim.PolicyEDF:
		return analysis.FeasibleEDF(prof, specs)
	case sim.PolicyRM:
		return analysis.FeasibleRM(prof, specs)
	case sim.PolicyRMHeap:
		return analysis.FeasibleRMHeap(prof, specs)
	case sim.PolicyCSD:
		_, _, ok := analysis.BestPartition(prof, analysis.SortRM(specs), 3)
		return ok
	}
	return false
}
