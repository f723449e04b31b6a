package telemetry

import (
	"encoding/json"
	"runtime"
	"slices"
	"testing"

	"emeralds/internal/kernel"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/vtime"
)

// sampledRun boots a small periodic workload with a recorder attached
// and returns the recorder plus the system.
func sampledRun(t *testing.T, cfg Config, cpus int, horizon vtime.Duration) (*Recorder, *kernel.Node) {
	t.Helper()
	sys := kernel.NewNode(sim.Config{Policy: sim.PolicyEDF, CPUs: cpus})
	sys.AddTask(task.Spec{Name: "a", Period: 10 * vtime.Millisecond, WCET: 2 * vtime.Millisecond})
	sys.AddTask(task.Spec{Name: "b", Period: 25 * vtime.Millisecond, WCET: 5 * vtime.Millisecond})
	sys.AddTask(task.Spec{Name: "c", Period: 50 * vtime.Millisecond, WCET: 8 * vtime.Millisecond})
	rec, err := Attach(sys.Kernel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Boot(); err != nil {
		t.Fatal(err)
	}
	sys.Run(horizon)
	return rec, sys
}

func TestSeriesShape(t *testing.T) {
	rec, sys := sampledRun(t, Config{Interval: vtime.Millisecond}, 1, 100*vtime.Millisecond)
	s := rec.Series()
	if s.Schema != Schema {
		t.Errorf("schema = %q", s.Schema)
	}
	if s.Samples != 100 || s.Dropped != 0 {
		t.Errorf("samples = %d dropped = %d, want 100/0", s.Samples, s.Dropped)
	}
	if s.StartNs != int64(vtime.Millisecond) {
		t.Errorf("start = %d", s.StartNs)
	}
	for _, c := range s.Columns {
		if len(c.Vals) != s.Samples {
			t.Fatalf("column %s has %d vals", c.Name, len(c.Vals))
		}
	}
	// The final sample of each cumulative counter matches kernel stats.
	st := sys.Stats()
	last := func(name string) uint64 {
		c := s.Col(name)
		if c == nil {
			t.Fatalf("missing column %s", name)
		}
		return c.Vals[len(c.Vals)-1]
	}
	if got := last("completions"); got != st.Completions {
		t.Errorf("completions column = %d, stats say %d", got, st.Completions)
	}
	if got := last("releases"); got != st.Releases {
		t.Errorf("releases column = %d, stats say %d", got, st.Releases)
	}
	// Response buckets account for every completion.
	var resp uint64
	for b := 0; b < RespBuckets; b++ {
		resp += last(RespColName(b))
	}
	if resp != st.Completions {
		t.Errorf("response buckets sum to %d, completions = %d", resp, st.Completions)
	}
	// Busy time is positive and bounded by wall time × CPUs.
	busy := last("busy_ns")
	if busy == 0 || busy > uint64(100*vtime.Millisecond) {
		t.Errorf("busy_ns = %d", busy)
	}
}

func TestRingOverwrite(t *testing.T) {
	rec, _ := sampledRun(t, Config{Interval: vtime.Millisecond, Capacity: 16}, 1, 100*vtime.Millisecond)
	s := rec.Series()
	if s.Samples != 16 || s.Dropped != 84 {
		t.Fatalf("samples = %d dropped = %d, want 16/84", s.Samples, s.Dropped)
	}
	// Oldest retained sample is tick 85 (1-based), at 85 ms.
	if s.StartNs != int64(85*vtime.Millisecond) {
		t.Errorf("start = %d", s.StartNs)
	}
	// Counters remain monotone across the unrolled ring.
	c := s.Col("releases")
	for i := 1; i < len(c.Vals); i++ {
		if c.Vals[i] < c.Vals[i-1] {
			t.Fatalf("releases not monotone at %d: %d < %d", i, c.Vals[i], c.Vals[i-1])
		}
	}
}

// TestRingGrowthKeepsTail: a ring that grows on demand keeps every
// sample it takes (the releases column matches a count worked out from
// the periods), and once it wraps it retains exactly the newest samples
// of a run that never wraps, with the start instant and dropped count
// that imply, at capacities below, at and across the growth steps.
func TestRingGrowthKeepsTail(t *testing.T) {
	const ticks = 1100
	// No tick coincides with a release at a multiple of 1 ms, so a
	// sample counts exactly the releases before it.
	interval := 999 * vtime.Microsecond
	horizon := ticks * interval
	full, _ := sampledRun(t, Config{Interval: interval, Capacity: 4096}, 2, horizon)
	all := full.Series()
	if all.Samples != ticks || all.Dropped != 0 {
		t.Fatalf("unwrapped run: samples = %d dropped = %d, want %d/0", all.Samples, all.Dropped, ticks)
	}
	for i, got := range all.Col("releases").Vals {
		at := vtime.Duration(i+1) * interval
		var want uint64
		for _, p := range []vtime.Duration{10, 25, 50} { // sampledRun's periods
			want += uint64(at/(p*vtime.Millisecond)) + 1
		}
		if got != want {
			t.Fatalf("sample %d: releases = %d, want %d", i, got, want)
		}
	}
	for _, capacity := range []int{2, 16, firstSamples - 1, firstSamples, firstSamples + 1, 300, 2 * firstSamples, 1024, ticks, 2048} {
		rec, _ := sampledRun(t, Config{Interval: interval, Capacity: capacity}, 2, horizon)
		s := rec.Series()
		kept := min(capacity, ticks)
		start := all.StartNs + int64(ticks-kept)*all.IntervalNs
		if s.Samples != kept || s.Dropped != ticks-kept || s.StartNs != start {
			t.Errorf("capacity %d: samples %d dropped %d start %d, want %d/%d/%d", capacity,
				s.Samples, s.Dropped, s.StartNs, kept, ticks-kept, start)
			continue
		}
		for i, c := range s.Columns {
			if c.Name != all.Columns[i].Name || !slices.Equal(c.Vals, all.Columns[i].Vals[ticks-kept:]) {
				t.Errorf("capacity %d: column %s differs from the unwrapped run's newest %d samples", capacity, c.Name, kept)
				break
			}
		}
	}
}

// TestSampleZeroAllocWhenFull: once the ring is full, a tick writes in
// place and allocates nothing.
func TestSampleZeroAllocWhenFull(t *testing.T) {
	rec, _ := sampledRun(t, Config{Interval: vtime.Millisecond, Capacity: 16}, 2, 100*vtime.Millisecond)
	if allocs := testing.AllocsPerRun(100, rec.sample); allocs != 0 {
		t.Errorf("a tick into a full ring allocates %v times, want 0", allocs)
	}
}

// TestSamplingDoesNotPerturb verifies the recorder is a pure observer:
// kernel stats with and without sampling are identical.
func TestSamplingDoesNotPerturb(t *testing.T) {
	run := func(sample bool) interface{} {
		sys := kernel.NewNode(sim.Config{Policy: sim.PolicyEDF, CPUs: 2})
		sys.AddTask(task.Spec{Name: "a", Period: 10 * vtime.Millisecond, WCET: 2 * vtime.Millisecond})
		sys.AddTask(task.Spec{Name: "b", Period: 25 * vtime.Millisecond, WCET: 5 * vtime.Millisecond})
		if sample {
			if _, err := Attach(sys.Kernel(), Config{Interval: 500 * vtime.Microsecond}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.Boot(); err != nil {
			t.Fatal(err)
		}
		sys.Run(200 * vtime.Millisecond)
		return sys.Stats()
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("sampling perturbed the run:\n  off: %+v\n  on:  %+v", a, b)
	}
}

// TestSeriesDeterministic locks byte-identical series across repeated
// runs and GOMAXPROCS settings.
func TestSeriesDeterministic(t *testing.T) {
	gen := func() []byte {
		rec, _ := sampledRun(t, Config{Interval: vtime.Millisecond}, 2, 100*vtime.Millisecond)
		b, err := json.Marshal(rec.Series())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := gen()
	prev := runtime.GOMAXPROCS(1)
	b := gen()
	runtime.GOMAXPROCS(prev)
	if string(a) != string(b) {
		t.Error("series bytes differ across GOMAXPROCS")
	}
	if string(a) != string(gen()) {
		t.Error("series bytes differ across repeated runs")
	}
}

func TestAttachRejectsBadConfig(t *testing.T) {
	sys := kernel.NewNode(sim.Config{})
	if _, err := Attach(sys.Kernel(), Config{}); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := Attach(sys.Kernel(), Config{Interval: vtime.Millisecond, Capacity: 1}); err == nil {
		t.Error("capacity 1 accepted")
	}
}

func TestRespBucketOf(t *testing.T) {
	cases := []struct {
		d    vtime.Duration
		want int
	}{
		{0, 0},
		{vtime.Microsecond, 0},
		{vtime.Microsecond + 1, 1},
		{10 * vtime.Microsecond, 2},
		{vtime.Millisecond, 6},
		{vtime.Second, RespBuckets - 1},
		{10 * vtime.Second, RespBuckets - 1},
	}
	for _, c := range cases {
		if got := RespBucketOf(c.d); got != c.want {
			t.Errorf("RespBucketOf(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestDeltas(t *testing.T) {
	s := &Series{
		IntervalNs: int64(vtime.Millisecond),
		StartNs:    int64(vtime.Millisecond),
		Samples:    4,
		Columns: []Column{
			{Name: "releases", Kind: KindCounter, Vals: []uint64{2, 5, 5, 9}},
			{Name: "ready", Kind: KindGauge, Vals: []uint64{1, 0, 3, 2}},
		},
	}
	got := s.Deltas("releases")
	want := []float64{2, 3, 0, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delta[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	g := s.Deltas("ready")
	if g[2] != 3 {
		t.Errorf("gauge passthrough broken: %v", g)
	}
	if s.Deltas("nope") != nil {
		t.Error("missing column should yield nil")
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline([]float64{0, 0, 0}, 3); got != "   " {
		t.Errorf("all-zero sparkline = %q", got)
	}
	got := Sparkline([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 8)
	if len([]rune(got)) != 8 {
		t.Fatalf("width = %d", len([]rune(got)))
	}
	runes := []rune(got)
	if runes[0] == runes[7] {
		t.Errorf("flat rendering of a ramp: %q", got)
	}
	if Sparkline(nil, 10) != "" {
		t.Error("nil series should render empty")
	}
}
