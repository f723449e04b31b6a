package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSON keeps BENCHMARK.json, which tells readers and tools
// what a run reports, in step with what the code reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricJSON struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricJSON `json:"end_to_end"`
		PerLayer  []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []metricJSON, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the code", len(got), kind, len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d: %s (%s) in BENCHMARK.json, %s (%s) in the code",
					kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end-to-end", doc.EndToEnd, endToEnd)
	for _, w := range workloads {
		same("per-layer", doc.PerLayer, perLayer(w))
	}
}
