package main

// layers are the named layers of the ledger over the workloads
// BENCHMARK.json lists. A workload that never calls into a layer
// reports it as zero.
var layers = []string{
	"workload.generate",
	"kernel.boot",
	"telemetry.attach",
	"kernel.run",
	"trace.export_perfetto",
	"telemetry.analyze",
	"trace.events",
	"attrib.analyze",
	"analysis.breakdown_csd4",
	"analysis.breakdown_csd3",
	"analysis.breakdown_csd2",
	"analysis.breakdown_edf",
	"analysis.breakdown_rm",
}

// campaignLayers are the layers only fuzz-campaign calls into; its
// ledger reports them after the others.
var campaignLayers = []string{
	"scenario.gen",
	"kernel.build",
	"kernel.invariants",
	"ipc.syncheck",
	"analysis.feasible",
}

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"units_per_s", "1/s"},
	{"unit_ms_p50", "ms"},
	{"alloc_mb_per_unit", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists w's ledger metrics in report order.
func perLayer(w *workloadDef) []metricDef {
	var defs []metricDef
	for _, l := range w.layers {
		defs = append(defs, metricDef{l + ".self_ms", "ms"}, metricDef{l + ".share_pct", "%"},
			metricDef{l + ".alloc_kb", "kB"})
	}
	for _, p := range emsimPolicies {
		defs = append(defs, metricDef{"kernel.boot." + p + ".self_ms", "ms"},
			metricDef{"kernel.run." + p + ".self_ms", "ms"},
			metricDef{"kernel.run." + p + ".ns_per_sim_event", "ns"})
	}
	return append(defs,
		metricDef{"kernel.run.sim_events", "count"},
		metricDef{"kernel.run.ns_per_sim_event", "ns"},
		metricDef{"trace.events.count", "count"},
		metricDef{"attrib.analyze.ns_per_trace_event", "ns"},
		metricDef{"trace.export_perfetto.bytes", "B"},
		metricDef{"trace.export_perfetto.ns_per_event", "ns"},
		metricDef{"unit_ms_tail", "ms"},
		metricDef{"unit_ms_tail.pct", "%"},
		metricDef{"unit_ms_tail.samples", "count"},
		metricDef{"tracing_overhead_pct", "%"},
		metricDef{"span_coverage_pct", "%"},
	)
}

// agg sums spans of one name (or name and tag).
type agg struct {
	selfNs, allocB, n uint64
}

// ratio is a/b, or 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ledger reduces a traced run's spans to the per-layer metrics,
// leaving out the failed units. A layer's self time (and self
// allocation) is its span's minus the part its child spans cover.
// Stats are means per ledger item, w.perUnit items to a unit: per
// scenario for fuzz-campaign, per unit otherwise. It also returns the
// smallest share of a unit span that the named layers cover.
func ledger(t *tracer, failed map[int]bool, w *workloadDef) (map[string]float64, float64) {
	isLayer := map[string]bool{}
	for _, l := range w.layers {
		isLayer[l] = true
	}
	childNs := make([]int64, len(t.spans))
	childAlloc := make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.End - s.Start
			childAlloc[s.Parent] += s.Alloc
		}
	}
	byName := map[string]*agg{}
	add := func(key string, selfNs int64, alloc, n uint64) {
		a := byName[key]
		if a == nil {
			a = &agg{}
			byName[key] = a
		}
		a.selfNs += uint64(selfNs)
		a.allocB += alloc
		a.n += n
	}
	var unitNs float64
	unitDur := map[int]int64{}
	covered := map[int]int64{}
	for i, s := range t.spans {
		if failed[s.Unit] {
			continue
		}
		if s.Parent < 0 {
			unitNs += float64(s.End - s.Start)
			unitDur[s.Unit] = s.End - s.Start
			continue
		}
		if !isLayer[s.Name] {
			continue
		}
		self := s.End - s.Start - childNs[i]
		alloc := s.Alloc - childAlloc[i]
		covered[s.Unit] += self
		add(s.Name, self, alloc, s.N)
		if s.Tag != "" {
			add(s.Name+"."+s.Tag, self, alloc, s.N)
		}
	}

	counts := map[string]uint64{}
	for u, c := range t.counts {
		for name, v := range c {
			if !failed[u] {
				counts[name] += v
			}
		}
	}
	m := map[string]float64{}
	per := float64(len(unitDur) * w.perUnit)
	get := func(key string) agg {
		if a := byName[key]; a != nil {
			return *a
		}
		return agg{}
	}
	for _, l := range w.layers {
		a := get(l)
		m[l+".self_ms"] = ratio(float64(a.selfNs)/1e6, per)
		m[l+".share_pct"] = 100 * ratio(float64(a.selfNs), unitNs)
		m[l+".alloc_kb"] = ratio(float64(a.allocB)/1e3, per)
	}
	for _, p := range emsimPolicies {
		boot, run := get("kernel.boot."+p), get("kernel.run."+p)
		m["kernel.boot."+p+".self_ms"] = ratio(float64(boot.selfNs)/1e6, per)
		m["kernel.run."+p+".self_ms"] = ratio(float64(run.selfNs)/1e6, per)
		m["kernel.run."+p+".ns_per_sim_event"] = ratio(float64(run.selfNs), float64(run.n))
	}
	run, an, exp := get("kernel.run"), get("attrib.analyze"), get("trace.export_perfetto")
	m["kernel.run.sim_events"] = ratio(float64(run.n), per)
	m["kernel.run.ns_per_sim_event"] = ratio(float64(run.selfNs), float64(run.n))
	m["trace.events.count"] = ratio(float64(counts["trace.events.count"]), per)
	m["attrib.analyze.ns_per_trace_event"] = ratio(float64(an.selfNs), float64(an.n))
	m["trace.export_perfetto.bytes"] = ratio(float64(counts["trace.export_perfetto.bytes"]), per)
	m["trace.export_perfetto.ns_per_event"] = ratio(float64(exp.selfNs), float64(exp.n))

	coverage := 100.0
	for u, d := range unitDur {
		if c := 100 * ratio(float64(covered[u]), float64(d)); c < coverage {
			coverage = c
		}
	}
	return m, coverage
}
