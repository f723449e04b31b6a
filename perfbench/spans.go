package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call site. Spans of one unit share Unit; Parent is the
// index of the enclosing span (-1 for the unit span itself).
type span struct {
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"` // scheduler policy for kernel.boot / kernel.run
	Unit   int    `json:"unit"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"` // heap bytes allocated inside the span
	// N is the span's work count: simulated events fired (kernel.run),
	// trace events handled (trace.events, trace.export_perfetto,
	// attrib.analyze).
	N uint64 `json:"n,omitempty"`
}

// tracer keeps spans in memory for one traced run. A nil *tracer
// records nothing, so the untraced run calls the same code.
type tracer struct {
	t0     time.Time
	unit   int
	spans  []span
	open   []int
	counts map[int]map[string]uint64 // per unit
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		t0:     time.Now(),
		spans:  make([]span, 0, 1<<16),
		counts: map[int]map[string]uint64{},
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// begin opens a span nested in the innermost open one. The allocation
// counter is read before the clock so the read is not charged to the
// span.
func (t *tracer) begin(name, tag string) {
	if t == nil {
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	alloc := heapAllocs(t.sample)
	t.spans = append(t.spans, span{Name: name, Tag: tag, Unit: t.unit, ID: len(t.spans),
		Parent: parent, Alloc: alloc, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span with work count n.
func (t *tracer) end(n uint64) {
	if t == nil {
		return
	}
	s := &t.spans[t.open[len(t.open)-1]]
	s.End = int64(time.Since(t.t0))
	s.Alloc = heapAllocs(t.sample) - s.Alloc
	s.N = n
	t.open = t.open[:len(t.open)-1]
}

// unwind closes every span opened above depth, after a panic skipped
// their end calls.
func (t *tracer) unwind(depth int) {
	for t != nil && len(t.open) > depth {
		t.end(0)
	}
}

func (t *tracer) depth() int {
	if t == nil {
		return 0
	}
	return len(t.open)
}

// count adds v to the current unit's named counter.
func (t *tracer) count(name string, v uint64) {
	if t == nil {
		return
	}
	if t.counts[t.unit] == nil {
		t.counts[t.unit] = map[string]uint64{}
	}
	t.counts[t.unit][name] += v
}

// write saves the spans as JSON lines, followed by one line holding
// the per-unit counters.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(map[string]any{"counters": t.counts}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
