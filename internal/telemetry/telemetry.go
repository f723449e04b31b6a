// Package telemetry is the kernel's flight recorder: a sampler that
// snapshots kernel state on a fixed simulated-time cadence into a
// compact columnar ring, and the analysis layer that turns those series
// into sliding-window SLO verdicts, multi-window burn-rate alerts, and
// CUSUM change points.
//
// The recorder applies the same always-on, low-overhead monitoring
// discipline EMERALDS applies to its own kernel overheads: the ring is
// bounded and allocation-free in steady state (the columns grow by
// doubling up to the capacity, so a short run pays only for the
// samples it takes; once they are full, a tick writes one slot per
// column and allocates nothing), and the sampler only *reads* kernel
// state, so attaching it never perturbs the simulation — an artifact
// produced with sampling on is byte-identical for any worker count or
// GOMAXPROCS because the sample instants and the sampled state are both
// pure functions of the scenario.
//
// Series are exported as a versioned emeralds.timeseries/v1 block
// inside emeralds.artifact/v1 JSON artifacts and rendered by cmd/emstat
// (tables, sparklines, SLO verdicts) or watched live through the
// harness's OpenMetrics scrape surface.
package telemetry

import (
	"fmt"

	"emeralds/internal/kernel"
	"emeralds/internal/metrics"
	"emeralds/internal/vtime"
)

// Schema versions the timeseries block layout. Bump on any change to
// column meaning so downstream consumers can dispatch.
const Schema = "emeralds.timeseries/v1"

// Column kinds.
const (
	KindCounter = "counter" // cumulative; consumers diff adjacent samples
	KindGauge   = "gauge"   // instantaneous
)

// RespBuckets is the number of response-time log buckets recorded as
// columns: half-decade bounds from 1 µs up, with the last bucket open.
const RespBuckets = 12

// respBoundNs[i] is the upper bound (inclusive, in ns) of response
// bucket i; the final bucket is unbounded. Half-decade spacing gives
// ~3.2× resolution — coarse, but enough to localize a windowed p99.
var respBoundNs = [RespBuckets - 1]int64{
	1_000, 3_162, 10_000, 31_623, 100_000, 316_228,
	1_000_000, 3_162_278, 10_000_000, 31_622_777, 100_000_000,
}

// RespBucketOf returns the bucket index for a response duration.
func RespBucketOf(d vtime.Duration) int {
	for i, b := range respBoundNs {
		if int64(d) <= b {
			return i
		}
	}
	return RespBuckets - 1
}

// RespColName names the column carrying response bucket b.
func RespColName(b int) string { return fmt.Sprintf("resp_b%d", b) }

// RespBoundUs returns the upper bound of bucket i in µs (the last
// bucket reports one second, the histogram's ceiling).
func RespBoundUs(i int) float64 {
	if i < 0 {
		i = 0
	}
	if i >= RespBuckets-1 {
		return 1e6
	}
	return float64(respBoundNs[i]) / 1e3
}

// Config parameterizes a Recorder.
type Config struct {
	// Interval is the sampling cadence in simulated time. Required.
	Interval vtime.Duration
	// Capacity bounds the ring in samples; once full, the oldest
	// samples are overwritten (and counted in Series.Dropped). 0 means
	// 4096.
	Capacity int
}

// Recorder samples one kernel into a columnar ring. Attach wires it;
// the engine drives it; Series extracts the result.
type Recorder struct {
	k        *kernel.Kernel
	interval vtime.Duration
	capacity int
	base     vtime.Time // attach instant; tick t fires at base + t*interval

	names []string
	kinds []string
	vals  [][]uint64 // [column] ring, indexed ticks % capacity; grows to capacity

	ticks int // total samples taken (>= retained)
	resp  [RespBuckets]uint64
}

// Attach wires a recorder to the kernel: job completions feed the
// response buckets (chaining any OnJobComplete hook already installed),
// and the first sample is scheduled at Interval on the kernel's engine.
// Call between New and Run; sampling then rides the simulation with no
// further intervention.
func Attach(k *kernel.Kernel, cfg Config) (*Recorder, error) {
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("telemetry: non-positive sampling interval %v", cfg.Interval)
	}
	capacity := cfg.Capacity
	if capacity == 0 {
		capacity = 4096
	}
	if capacity < 2 {
		return nil, fmt.Errorf("telemetry: ring capacity %d below minimum 2", capacity)
	}
	r := &Recorder{k: k, interval: cfg.Interval, capacity: capacity, base: k.Now()}
	r.layout()

	prev := k.OnJobComplete
	k.OnJobComplete = func(th *kernel.Thread) {
		if prev != nil {
			prev(th)
		}
		r.resp[RespBucketOf(k.Now().Sub(th.TCB.ReleasedAt))]++
	}

	var tick func()
	tick = func() {
		r.sample()
		k.Engine().At(k.Now().Add(r.interval), "telemetry:tick", tick)
	}
	k.Engine().At(r.base.Add(r.interval), "telemetry:tick", tick)
	return r, nil
}

// layout fixes the column set: kernel-wide counters, per-CPU busy/depth
// series, instantaneous gauges, then the response buckets. The order is
// part of the emeralds.timeseries/v1 contract only insofar as columns
// are looked up by name; it is fixed here so artifacts are byte-stable.
func (r *Recorder) layout() {
	add := func(name, kind string) {
		r.names = append(r.names, name)
		r.kinds = append(r.kinds, kind)
	}
	add("releases", KindCounter)
	add("completions", KindCounter)
	add("misses", KindCounter)
	add("overruns", KindCounter)
	add("preemptions", KindCounter)
	add("ctx_switches", KindCounter)
	add("sem_blocks", KindCounter)
	add("migrations", KindCounter)
	add("ipis", KindCounter)
	add("lock_contentions", KindCounter)
	add("useful_ns", KindCounter)
	add("overhead_ns", KindCounter)
	add("lock_ns", KindCounter)
	add("busy_ns", KindCounter)
	for c := 0; c < r.k.NumCPUs(); c++ {
		add(fmt.Sprintf("cpu%d_busy_ns", c), KindCounter)
		add(fmt.Sprintf("cpu%d_ready", c), KindGauge)
	}
	add("ready", KindGauge)
	add("running", KindGauge)
	add("mailbox_queued", KindGauge)
	for b := 0; b < RespBuckets; b++ {
		add(RespColName(b), KindCounter)
	}
	r.vals = make([][]uint64, len(r.names))
}

// firstSamples is the column length the recorder allocates at its first
// tick; each time the columns fill, they double, up to the capacity.
const firstSamples = 256

// grow doubles every column, from firstSamples up to the capacity, in
// one backing array.
func (r *Recorder) grow() {
	size := min(max(2*len(r.vals[0]), firstSamples), r.capacity)
	back := make([]uint64, size*len(r.vals))
	for i, col := range r.vals {
		r.vals[i] = back[i*size : (i+1)*size : (i+1)*size]
		copy(r.vals[i], col)
	}
}

// sample records one tick. Once the ring is full it is allocation-free:
// it writes one ring slot per column.
func (r *Recorder) sample() {
	k := r.k
	if r.ticks == len(r.vals[0]) && r.ticks < r.capacity {
		r.grow()
	}
	slot := r.ticks % r.capacity
	col := 0
	put := func(v uint64) {
		r.vals[col][slot] = v
		col++
	}
	st := k.Stats()
	put(st.Releases)
	put(st.Completions)
	put(st.Misses)
	put(st.Overruns)
	put(st.Preemptions)
	put(st.ContextSwitches)
	put(st.SemContended)
	var migs, ipis, lockc uint64
	for c := 0; c < k.NumCPUs(); c++ {
		sh := k.MetricsOn(c)
		migs += sh.Get(metrics.Migrations)
		ipis += sh.Get(metrics.IPIs)
		lockc += sh.Get(metrics.LockContentions)
	}
	put(migs)
	put(ipis)
	put(lockc)
	put(uint64(st.UsefulCompute))
	put(uint64(st.TotalOverhead()))
	put(uint64(st.LockCharge))
	var busy vtime.Duration
	var ready, running int
	for c := 0; c < k.NumCPUs(); c++ {
		busy += k.BusyOn(c)
	}
	put(uint64(busy))
	for c := 0; c < k.NumCPUs(); c++ {
		put(uint64(k.BusyOn(c)))
		rc := k.ReadyCountOn(c)
		put(uint64(rc))
		ready += rc
		if k.CurrentOn(c) != nil {
			running++
		}
	}
	put(uint64(ready))
	put(uint64(running))
	put(uint64(k.QueuedMessages()))
	for b := 0; b < RespBuckets; b++ {
		put(r.resp[b])
	}
	r.ticks++
}

// Ticks reports how many samples have been taken in total (including
// any the ring has since overwritten).
func (r *Recorder) Ticks() int { return r.ticks }

// Column is one named series of the block, sample-aligned with every
// other column.
type Column struct {
	Name string   `json:"name"`
	Kind string   `json:"kind"` // "counter" or "gauge"
	Vals []uint64 `json:"vals"`
}

// Series is the versioned timeseries block embedded in artifacts.
// Sample i (0-based) was taken at simulated instant
// StartNs + i*IntervalNs; fixed cadence makes an explicit time column
// redundant.
type Series struct {
	Schema     string   `json:"schema"`
	IntervalNs int64    `json:"interval_ns"`
	StartNs    int64    `json:"start_ns"` // instant of the first retained sample
	CPUs       int      `json:"cpus"`
	Samples    int      `json:"samples"`
	Dropped    int      `json:"dropped,omitempty"` // samples overwritten by the ring
	Columns    []Column `json:"columns"`
}

// Series unrolls the ring into an export block, oldest retained sample
// first.
func (r *Recorder) Series() *Series {
	retained := r.ticks
	if retained > r.capacity {
		retained = r.capacity
	}
	dropped := r.ticks - retained
	s := &Series{
		Schema:     Schema,
		IntervalNs: int64(r.interval),
		StartNs:    int64(r.base) + int64(r.interval)*int64(dropped+1),
		CPUs:       r.k.NumCPUs(),
		Samples:    retained,
		Dropped:    dropped,
		Columns:    make([]Column, len(r.names)),
	}
	first := r.ticks - retained // global index of oldest retained tick
	for i := range r.names {
		vals := make([]uint64, retained)
		for j := 0; j < retained; j++ {
			vals[j] = r.vals[i][(first+j)%r.capacity]
		}
		s.Columns[i] = Column{Name: r.names[i], Kind: r.kinds[i], Vals: vals}
	}
	return s
}

// Col returns the named column, nil when absent.
func (s *Series) Col(name string) *Column {
	for i := range s.Columns {
		if s.Columns[i].Name == name {
			return &s.Columns[i]
		}
	}
	return nil
}

// TimeAt reports the simulated instant of sample i.
func (s *Series) TimeAt(i int) vtime.Time {
	return vtime.Time(s.StartNs + int64(i)*s.IntervalNs)
}

// Span reports the simulated span the retained samples cover, from the
// instant before the first retained sample (its delta window opens
// there) to the last sample.
func (s *Series) Span() vtime.Duration {
	if s.Samples == 0 {
		return 0
	}
	return vtime.Duration(int64(s.Samples) * s.IntervalNs)
}

// Deltas returns the per-tick increments of a counter column (length
// Samples, first entry measured against zero when the series starts at
// the run's beginning, against the overwritten prefix otherwise — the
// first retained delta is simply dropped then). Gauges are returned
// as-is, converted to float64.
func (s *Series) Deltas(name string) []float64 {
	c := s.Col(name)
	if c == nil {
		return nil
	}
	out := make([]float64, len(c.Vals))
	if c.Kind == KindGauge {
		for i, v := range c.Vals {
			out[i] = float64(v)
		}
		return out
	}
	var prev uint64
	for i, v := range c.Vals {
		if i == 0 && s.Dropped > 0 {
			// The baseline was overwritten; the first delta is unknown.
			out[i] = 0
			prev = v
			continue
		}
		out[i] = float64(v - prev)
		prev = v
	}
	return out
}
