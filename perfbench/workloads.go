package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"hash/crc32"
	"math"

	"emeralds/internal/attrib"
	"emeralds/internal/experiments"
	"emeralds/internal/kernel"
	"emeralds/internal/scenario"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/telemetry"
	"emeralds/internal/trace"
	"emeralds/internal/vtime"
	"emeralds/internal/workload"
)

// unit is one unit's inputs: its index in the run and the seed all of
// its inputs derive from.
type unit struct {
	index int
	seed  int64
}

// output is what one unit produced. digest reduces it to the hex
// digest compared with the goldens and reports the first check it
// fails (an oracle violation, a dropped trace event, a non-zero
// attribution residual, an implausible statistic); the digest is ""
// only when the unit produced nothing to digest. Checking runs outside
// the timed window.
type output interface {
	digest() (string, error)
}

// workloadDef is one closed-loop job: a single client runs units back to
// back, each unit doing the same mix of work.
type workloadDef struct {
	name string
	// warmup is the number of untimed units each set-up runs, enough
	// to pay first-touch memory and heap growth.
	warmup int
	// perUnit is the number of ledger items in a unit: the per-layer
	// stats of fuzz-campaign are per scenario, the others per unit.
	perUnit int
	// layers are the ledger's named layers on this workload.
	layers []string
	run    func(t *tracer, u unit) output
}

// workloads are the workloads BENCHMARK.json lists, in its order.
var workloads = []*workloadDef{
	{name: "breakdown-sweep", warmup: 1, perUnit: 1, layers: layers, run: breakdownSweep},
	{name: "emsim-long", warmup: 12, perUnit: 1, layers: layers, run: emsimLong},
	{name: "emsim-traced", warmup: 8, perUnit: 1, layers: layers, run: emsimTraced},
}

// fuzzCampaign is not in BENCHMARK.json, whose workloads must run
// without a failed unit: the program fails about one campaign in forty
// (README.md, "Known failing units"). It runs by name, for its ledger
// and to check a fix of those failures.
var fuzzCampaign = &workloadDef{name: "fuzz-campaign", warmup: 1, perUnit: campaignScenarios,
	layers: append(append([]string(nil), layers...), campaignLayers...), run: runCampaign}

func lookup(name string) *workloadDef {
	for _, w := range append(workloads, fuzzCampaign) {
		if w.name == name {
			return w
		}
	}
	return nil
}

// splitmix is the SplitMix64 finalizer. The benchmark derives its unit
// seeds itself so they do not move when the program's seeding does.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// Seed streams: warm-up units and timed units never share inputs.
const (
	timedStream  = 0
	warmupStream = 1
)

func unitSeed(seed int64, stream, i int) int64 {
	return int64(splitmix(splitmix(uint64(seed))^uint64(stream)<<40^uint64(i)) >> 1)
}

func newUnit(seed int64, stream, i int) unit {
	return unit{index: i, seed: unitSeed(seed, stream, i)}
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:8]) }

// jsonHash feeds v's JSON encoding to h.
func jsonHash(h hash.Hash, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	h.Write(data)
	return nil
}

// errOutput is a unit that failed before producing anything to check.
type errOutput struct{ err error }

func (o errOutput) digest() (string, error) { return "", o.err }

// ---- fuzz-campaign -------------------------------------------------

// campaignScenarios is one full period of the scenario generator's
// policy × scheme × M∈{1,2,4} × 11-archetype product, so every unit
// runs the same mix.
const campaignScenarios = 264

type campaignOutput struct{ rep *scenario.CampaignReport }

func runCampaign(t *tracer, u unit) output {
	if t != nil {
		return campaignOutput{campaignReplica(t, u.seed)}
	}
	rep, err := scenario.RunCampaign(context.Background(), scenario.CampaignConfig{
		Scenarios: campaignScenarios,
		BaseSeed:  u.seed,
		Workers:   1,
		Minimize:  true,
	})
	if err != nil {
		return errOutput{err}
	}
	return campaignOutput{rep}
}

func (o campaignOutput) digest() (string, error) {
	r := o.rep
	h := sha256.New()
	if err := jsonHash(h, r); err != nil {
		return "", err
	}
	d := hexSum(h)
	if n := len(r.Violations); n > 0 {
		v := r.Violations[0]
		return d, fmt.Errorf("%d oracle violations, first: scenario %d (%s, %s) %s: %s",
			n, v.Scenario.Index, v.Scenario.Name, v.Scenario.Policy, v.Finding.Oracle, v.Finding.Detail)
	}
	kinds := 0
	for _, n := range r.PerKind {
		kinds += n
	}
	if r.Scenarios != campaignScenarios || kinds != campaignScenarios || r.Completions == 0 {
		return d, fmt.Errorf("campaign report covers %d scenarios (%d by kind), %d completions",
			r.Scenarios, kinds, r.Completions)
	}
	return d, nil
}

// ---- breakdown-sweep -----------------------------------------------

// breakdownOutput holds one figure's series, in
// experiments.BreakdownSchedulers order.
type breakdownOutput struct{ series [][]float64 }

// breakdownDiv cycles the period divisor over Figures 3, 4 and 5.
func breakdownDiv(index int) int { return 1 + index%3 }

func breakdownSweep(t *tracer, u unit) output {
	div := breakdownDiv(u.index)
	if t != nil {
		return breakdownOutput{breakdownReplica(t, u.seed, div)}
	}
	res := experiments.BreakdownFigure(experiments.BreakdownConfig{
		Ns:        experiments.DefaultNs,
		PeriodDiv: div,
		Workloads: 1,
		Seed:      u.seed,
		Par:       experiments.Serial,
	})
	var out breakdownOutput
	for _, name := range experiments.BreakdownSchedulers {
		out.series = append(out.series, res.Series[name])
	}
	return out
}

func (o breakdownOutput) digest() (string, error) {
	if len(o.series) != len(experiments.BreakdownSchedulers) {
		return "", fmt.Errorf("%d series, want %d", len(o.series), len(experiments.BreakdownSchedulers))
	}
	h := sha256.New()
	var b [8]byte
	var bad error
	for si, s := range o.series {
		if len(s) != len(experiments.DefaultNs) {
			return "", fmt.Errorf("%s: %d points, want %d",
				experiments.BreakdownSchedulers[si], len(s), len(experiments.DefaultNs))
		}
		for i, v := range s {
			if (math.IsNaN(v) || v <= 0 || v > 100) && bad == nil {
				bad = fmt.Errorf("%s at n=%d: breakdown %v%% outside (0, 100]",
					experiments.BreakdownSchedulers[si], experiments.DefaultNs[i], v)
			}
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hexSum(h), bad
}

// ---- emsim-long / emsim-traced ---------------------------------------

// emsimPolicies are the five run-queue structures emsim-long cycles
// through, as `emsim -policy <p>` names them.
var emsimPolicies = []string{sim.PolicyCSD, sim.PolicyEDF, sim.PolicyRM, sim.PolicyRMHeap, sim.PolicyFP}

// emsimConfig is what `emsim -policy <p>` builds with the default
// -cpus/-lock/-queues flags.
func emsimConfig(policy string, traceCap int) sim.Config {
	return sim.Config{CPUs: 1, Lock: "percpu", Policy: policy, Queues: 3,
		RecordResponses: true, TraceCapacity: traceCap}
}

// emsimSpecs is `emsim -n 30 -u 0.7`'s task set for the unit.
func emsimSpecs(t *tracer, u unit) []task.Spec {
	t.begin("workload.generate", "")
	specs := workload.Generate(workload.Config{N: 30, Utilization: 0.7, PeriodDiv: 1, Seed: u.seed})
	t.end(0)
	return specs
}

// bootRun boots specs under cfg (attach, when non-nil, runs inside the
// boot set-up as emsim's flight-recorder wiring does) and runs it for
// ms virtual milliseconds.
func bootRun(t *tracer, cfg sim.Config, specs []task.Spec, ms float64, attach func(*kernel.Node) error) (*kernel.Node, error) {
	t.begin("kernel.boot", cfg.Policy)
	sys, err := kernel.Boot(cfg, func(n *kernel.Node) error {
		for _, s := range specs {
			n.AddTask(s)
		}
		if attach != nil {
			return attach(n)
		}
		return nil
	})
	t.end(0)
	if err != nil {
		return nil, err
	}
	t.begin("kernel.run", cfg.Policy)
	eng := sys.Kernel().Engine()
	fired := eng.Fired()
	sys.Run(vtime.Millis(ms))
	t.end(eng.Fired() - fired)
	return sys, nil
}

type statsOutput struct{ stats []kernel.Stats }

// emsimLong runs one 30-task set for 10 virtual seconds under each
// policy, untraced, as `emsim -n 30 -u 0.7 -ms 10000 -policy <p>`.
func emsimLong(t *tracer, u unit) output {
	specs := emsimSpecs(t, u)
	var out statsOutput
	for _, p := range emsimPolicies {
		// Untraced emsim still keeps a one-event trace ring.
		sys, err := bootRun(t, emsimConfig(p, 1), specs, 10000, nil)
		if err != nil {
			return errOutput{fmt.Errorf("%s: boot: %w", p, err)}
		}
		out.stats = append(out.stats, sys.Stats())
	}
	return out
}

// check feeds the stats to h and reports the first policy whose run
// completed nothing or more than it released.
func (o statsOutput) check(h hash.Hash) error {
	if err := jsonHash(h, o.stats); err != nil {
		return err
	}
	for i, st := range o.stats {
		if st.Completions == 0 || st.Completions > st.Releases {
			return fmt.Errorf("%s: %d completions of %d releases",
				emsimPolicies[i], st.Completions, st.Releases)
		}
	}
	return nil
}

func (o statsOutput) digest() (string, error) {
	h := sha256.New()
	err := o.check(h)
	return hexSum(h), err
}

// perfettoSink stands in for emsim's -trace-out file: it keeps a
// CRC-32C and a byte count of the export instead of writing to disk.
type perfettoSink struct {
	crc   uint32
	bytes uint64
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (s *perfettoSink) Write(p []byte) (int, error) {
	s.crc = crc32.Update(s.crc, castagnoli, p)
	s.bytes += uint64(len(p))
	return len(p), nil
}

type tracedOutput struct {
	statsOutput
	dropped   uint64
	sink      perfettoSink
	an        *attrib.Analysis
	report    *attrib.Report
	anomalies []string
}

// emsimTracedMs is the virtual run length of one emsim-traced unit.
const emsimTracedMs = 2000

// emsimTraced runs one 30-task set under csd for 2 virtual seconds with
// the settings of `emsim -trace-out -attrib -telemetry`, then exports
// the trace, analyzes the flight-recorder series and attributes every
// activation.
func emsimTraced(t *tracer, u unit) output {
	specs := emsimSpecs(t, u)
	// -trace-out and -attrib both ask for a 1<<20-event ring;
	// -telemetry samples 512 times across the run.
	sampleUs := float64(emsimTracedMs) * 1000 / 512
	var rec *telemetry.Recorder
	sys, err := bootRun(t, emsimConfig(sim.PolicyCSD, 1<<20), specs, emsimTracedMs, func(n *kernel.Node) error {
		t.begin("telemetry.attach", "")
		r, err := telemetry.Attach(n.Kernel(), telemetry.Config{Interval: vtime.Duration(sampleUs * 1000)})
		t.end(0)
		rec = r
		return err
	})
	if err != nil {
		return errOutput{fmt.Errorf("boot: %w", err)}
	}
	out := tracedOutput{statsOutput: statsOutput{stats: []kernel.Stats{sys.Stats()}}}
	log := sys.Trace()
	out.dropped = log.Dropped()

	t.begin("trace.export_perfetto", "")
	err = log.ExportPerfetto(&out.sink)
	t.end(log.Total())
	if err != nil {
		return errOutput{fmt.Errorf("export: %w", err)}
	}

	t.begin("telemetry.analyze", "")
	out.anomalies = telemetry.Analyze(rec.Series(), telemetry.SLO{}).Anomalies()
	t.end(0)

	evs := traceEvents(t, log)
	t.begin("attrib.analyze", "")
	an, err := attrib.Analyze(evs, log.Dropped())
	if err == nil {
		out.an, out.report = an, an.Report()
	}
	t.end(uint64(len(evs)))
	if err != nil {
		return errOutput{fmt.Errorf("attribution: %w", err)}
	}
	t.count("trace.events.count", log.Total())
	t.count("trace.export_perfetto.bytes", out.sink.bytes)
	return out
}

// traceEvents materializes a trace ring as one span.
func traceEvents(t *tracer, log *trace.Log) []trace.Event {
	t.begin("trace.events", "")
	evs := log.Events()
	t.end(uint64(len(evs)))
	return evs
}

func (o tracedOutput) digest() (string, error) {
	h := sha256.New()
	bad := o.check(h)
	fmt.Fprintf(h, "perfetto %d %08x\n", o.sink.bytes, o.sink.crc)
	if err := jsonHash(h, o.report); err != nil {
		return "", err
	}
	if err := jsonHash(h, o.anomalies); err != nil {
		return "", err
	}
	if bad == nil && o.dropped > 0 {
		bad = fmt.Errorf("trace ring dropped %d events", o.dropped)
	}
	for i := range o.an.Activations {
		a := &o.an.Activations[i]
		if r := a.Residual(); bad == nil && !a.Aborted && r != 0 {
			bad = fmt.Errorf("%s activation %d: attribution residual %v", a.Task, a.Index, r)
		}
	}
	if bad == nil && o.sink.bytes == 0 {
		bad = fmt.Errorf("empty Perfetto export")
	}
	return hexSum(h), bad
}
