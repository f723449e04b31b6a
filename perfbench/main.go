// Command perfbench is the repository's benchmark: one closed-loop
// client runs units of one workload back to back for a fixed wall
// time, checks every unit's output, and prints the end-to-end metrics
// (untraced) or the per-layer ledger (traced). See README.md.
//
//	bash perfbench/run.sh --workload emsim-long --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run sets up: once in this process and
// once in each of setupReps-1 fresh child processes, so every set-up
// pays the cold costs. setup_s is their median.
const setupReps = 9

func main() {
	// One P: the harness fan-out and a second vCPU would measure the
	// neighbours as much as the program.
	runtime.GOMAXPROCS(1)
	name := flag.String("workload", "", "workload: breakdown-sweep, emsim-long, emsim-traced, or fuzz-campaign (not in BENCHMARK.json)")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("workload seed; goldens exist for %d and the held-out %d", defaultSeed, heldOutSeed))
	seconds := flag.Int("seconds", 20, "wall seconds of timed units")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer ledger from a traced run")
	setupOnly := flag.Bool("setup-only", false, "set up once, print the set-up time and exit (used for the repeated set-ups)")
	writeN := flag.Int("write-goldens", 0, "compute the digests of the warm-up units and the first N timed units for -seed and store them in perfbench/goldens")
	flag.Parse()

	w := lookup(*name)
	if w == nil {
		fail("unknown -workload %q", *name)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fail("want -seconds ≥ 1 and -trace 0 or 1")
	}
	var err error
	switch {
	case *setupOnly:
		var secs float64
		var bad int
		if secs, bad, _, err = setup(w, *seed); err == nil {
			fmt.Printf("%v %d\n", secs, bad)
		}
	case *writeN > 0:
		err = writeGoldens(w, *seed, *writeN)
	default:
		spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		err = bench(w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, spans)
	}
	if err != nil {
		fail("%v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// runSafe runs one unit, turning a panic into a failed output.
func runSafe(w *workloadDef, t *tracer, u unit) (out output) {
	depth := t.depth()
	defer func() {
		if v := recover(); v != nil {
			t.unwind(depth)
			out = errOutput{fmt.Errorf("panic: %v", v)}
		}
	}()
	return w.run(t, u)
}

// checker compares unit digests with the goldens and, for units run
// twice in one process, with each other.
type checker struct {
	w      *workloadDef
	seed   int64
	golden golden
	seen   map[int]string
}

// check fails a unit on any failed output check, on a digest that
// differs from its golden, or on a digest that differs from an earlier
// run of the same unit.
func (c *checker) check(out output, stream, i int) error {
	d, err := out.digest()
	if d == "" {
		return err
	}
	want := c.golden.Units
	if stream == warmupStream {
		want = c.golden.Warmup
	}
	if i < len(want) && d != want[i] {
		err = errors.Join(fmt.Errorf("digest %s, golden %s", d, want[i]), err)
	}
	if stream == timedStream {
		if prev, ok := c.seen[i]; ok && prev != d {
			err = errors.Join(fmt.Errorf("digest %s, earlier run of the same unit %s", d, prev), err)
		}
		c.seen[i] = d
	}
	return err
}

func (c *checker) report(stream, i int, err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d unit %d (stream %d, unit seed %d) failed: %v\n",
		c.w.name, c.seed, i, stream, unitSeed(c.seed, stream, i), err)
}

// setup is one set-up: load the goldens and run the untimed warm-up
// units. It returns its wall time, the number of warm-up units that
// failed their checks, and the checker for the timed units.
func setup(w *workloadDef, seed int64) (float64, int, *checker, error) {
	start := time.Now()
	g, err := loadGolden(w.name, seed)
	if err != nil {
		return 0, 0, nil, err
	}
	c := &checker{w: w, seed: seed, golden: g, seen: map[int]string{}}
	bad := 0
	for k := 0; k < w.warmup; k++ {
		if err := c.check(runSafe(w, nil, newUnit(seed, warmupStream, k)), warmupStream, k); err != nil {
			c.report(warmupStream, k, err)
			bad++
		}
	}
	return time.Since(start).Seconds(), bad, c, nil
}

// setups runs the child set-ups, then this process's own.
func setups(w *workloadDef, seed int64) ([]float64, int, *checker, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, nil, err
	}
	var times []float64
	bad := 0
	for k := 0; k < setupReps-1; k++ {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-setup-only")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, 0, nil, fmt.Errorf("set-up process %d: %w", k, err)
		}
		var secs float64
		var n int
		if _, err := fmt.Sscan(string(out), &secs, &n); err != nil {
			return nil, 0, nil, fmt.Errorf("set-up process %d printed %q: %w", k, out, err)
		}
		times = append(times, secs)
		bad += n
	}
	secs, n, c, err := setup(w, seed)
	if err != nil {
		return nil, 0, nil, err
	}
	return append(times, secs), bad + n, c, nil
}

// phase is the outcome of one kind of timed unit in a run.
type phase struct {
	times     []float64 // seconds, successful units only
	allocB    uint64    // heap bytes allocated by the successful units
	attempted int
	failed    map[int]bool // indices of the units that failed
}

// measure runs timed units 0, 1, 2, … until d has passed. With a
// tracer, each unit runs twice in a row, untraced and then traced, so
// both see the same machine.
func measure(w *workloadDef, seed int64, d time.Duration, t *tracer, c *checker) (plain, traced phase) {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		u := newUnit(seed, timedStream, i)
		plain.run(w, nil, c, u, sample)
		if t != nil {
			t.unit = i
			traced.run(w, t, c, u, sample)
		}
	}
	return plain, traced
}

// run times one unit alone and checks it after its timed window.
// Failed units stay out of the timings.
func (p *phase) run(w *workloadDef, t *tracer, c *checker, u unit, sample []metrics.Sample) {
	t.begin("unit", "")
	a0 := heapAllocs(sample)
	t0 := time.Now()
	out := runSafe(w, t, u)
	el := time.Since(t0)
	a1 := heapAllocs(sample)
	t.end(0)
	p.attempted++
	if err := c.check(out, timedStream, u.index); err != nil {
		c.report(timedStream, u.index, err)
		if p.failed == nil {
			p.failed = map[int]bool{}
		}
		p.failed[u.index] = true
		return
	}
	p.times = append(p.times, el.Seconds())
	p.allocB += a1 - a0
}

// endToEndMetrics are a phase's user-visible numbers.
func endToEndMetrics(p phase, setupS []float64) map[string]float64 {
	total := 0.0
	for _, s := range p.times {
		total += s
	}
	return map[string]float64{
		"setup_s":           median(setupS),
		"units_per_s":       ratio(float64(len(p.times)), total),
		"unit_ms_p50":       1000 * median(p.times),
		"alloc_mb_per_unit": ratio(float64(p.allocB)/1e6, float64(len(p.times))),
		"peak_rss_mb":       peakRSSMB(),
	}
}

func bench(w *workloadDef, seed int64, d time.Duration, traced bool, spansPath string) error {
	setupS, bad, c, err := setups(w, seed)
	if err != nil {
		return err
	}
	res := result{Correct: bad == 0}
	var t *tracer
	if traced {
		t = newTracer()
	}
	plain, tr := measure(w, seed, d, t, c)
	res.add(plain)
	e2e := endToEndMetrics(plain, setupS)
	if !traced {
		res.Metrics = withUnits(e2e, endToEnd)
		return res.print()
	}

	res.add(tr)
	m, coverage := ledger(t, tr.failed, w)
	tail, pct := tailMs(plain.times)
	m["unit_ms_tail"], m["unit_ms_tail.pct"] = tail, pct
	m["unit_ms_tail.samples"] = float64(len(plain.times))
	m["tracing_overhead_pct"] = 100 * (ratio(median(tr.times), median(plain.times)) - 1)
	m["span_coverage_pct"] = coverage
	if err := t.write(spansPath); err != nil {
		return err
	}

	fmt.Printf("%s seed %d: %d untraced and %d traced units; spans in %s\n",
		w.name, seed, plain.attempted, tr.attempted, spansPath)
	for _, def := range endToEnd {
		fmt.Printf("  %-40s %14.4f %s\n", def.name, e2e[def.name], def.unit)
	}
	defs := perLayer(w)
	for _, def := range defs {
		fmt.Printf("  %-40s %14.4f %s\n", def.name, m[def.name], def.unit)
	}
	if coverage < 95 {
		fmt.Fprintf(os.Stderr, "perfbench: WARNING: named layers cover only %.1f%% of a unit span\n", coverage)
	}
	res.Metrics = withUnits(m, defs)
	return res.print()
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) add(p phase) {
	r.Attempted += p.attempted
	r.Failed += len(p.failed)
	r.Correct = r.Correct && len(p.failed) == 0
}

func withUnits(vals map[string]float64, defs []metricDef) map[string]metric {
	out := map[string]metric{}
	for _, def := range defs {
		out[def.name] = metric{vals[def.name], def.unit}
	}
	return out
}

func (r *result) print() error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// median of xs, 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailMs is the highest percentile of xs (seconds) with at least ten
// samples beyond it, in ms, and that percentile. With ten samples or
// fewer it is the maximum, reported as the 100th percentile.
func tailMs(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= 10 {
		return 1000 * s[n-1], 100
	}
	return 1000 * s[n-11], 100 * float64(n-10) / float64(n)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return math.NaN()
}
