package cli

import (
	"flag"
	"fmt"
	"os"

	"emeralds/internal/kernel"
	"emeralds/internal/sim"
	"emeralds/internal/task"
	"emeralds/internal/telemetry"
	"emeralds/internal/vtime"
	"emeralds/internal/workload"
)

// SimFlags is the simulator flag surface of the tools that boot a
// kernel on a topology they are told: the CPU topology (-cpus, -lock)
// and the observability knobs (-trace-out, -sample-us, -sample-cap),
// declared once so they behave identically across emsim, emreport and
// ablate, each of which reads every one of them. (emfuzz declares its
// own -cpus, -lock, -sample-us and -trace-out: a campaign mixes
// topologies and exports a violation's replay, so its flags mean
// something else.)
//
// Lifecycle: register with Common.SimFlags before Parse, which checks
// the values; seed the tool's sim.Config from Config; pass Observe as
// (or inside) the kernel.Boot setup callback so the flight recorder
// attaches before the system boots; call Finish after the run to embed
// the sampled series in the artifact and write the -trace-out export.
type SimFlags struct {
	CPUs      int     // -cpus: simulated processor count (1 = classic single-CPU)
	Lock      string  // -lock: simulated lock regime (percpu, perqueue, biglock)
	TraceOut  string  // -trace-out: Perfetto trace-event JSON path
	SampleUs  float64 // -sample-us: flight-recorder cadence in virtual µs (0 = off)
	SampleCap int     // -sample-cap: recorder ring capacity (0 = 4096)

	c   *Common
	rec *telemetry.Recorder
}

// SimFlags registers the simulator flags on the default FlagSet. Call
// before Parse.
func (c *Common) SimFlags() *SimFlags {
	f := &SimFlags{c: c}
	flag.IntVar(&f.CPUs, "cpus", 1, "simulated processor count (1 = classic single-CPU kernel)")
	flag.StringVar(&f.Lock, "lock", "percpu", "simulated lock granularity on multicore runs: percpu, perqueue, biglock")
	flag.StringVar(&f.TraceOut, "trace-out", "", "write the run's full trace as Chrome/Perfetto trace-event JSON")
	flag.Float64Var(&f.SampleUs, "sample-us", 0, "flight-recorder sampling cadence in virtual microseconds (0 = off)")
	flag.IntVar(&f.SampleCap, "sample-cap", 0, "flight-recorder ring capacity in samples (0 = 4096)")
	c.checks = append(c.checks, f.check)
	return f
}

// check exits 2 on a topology or sampling flag the run could not use.
func (f *SimFlags) check() {
	f.c.AtLeast("cpus", f.CPUs, 1)
	if _, err := kernel.ParseLockRegime(f.Lock); err != nil {
		f.c.Fatalf("bad -lock: %v", err)
	}
	f.c.Cadence("sample-us", f.SampleUs)
	if f.SampleCap < 0 || f.SampleCap == 1 {
		f.c.Fatalf("bad -sample-cap: %d (want 0 for 4096, or at least 2)", f.SampleCap)
	}
}

// Config yields the base sim.Config these flags select: the CPU
// topology from -cpus/-lock, and a trace ring large enough for a full
// export when -trace-out is set. Tools fill in policy and workload.
func (f *SimFlags) Config() sim.Config {
	cfg := sim.Config{CPUs: f.CPUs, Lock: f.Lock}
	if f.TraceOut != "" {
		cfg.TraceCapacity = 1 << 20
	}
	return cfg
}

// MulticoreConfig returns the (cpus, lock) pair experiment artifacts
// should record: zero values on a single-CPU run, so pre-multicore
// artifacts stay byte-identical under omitempty.
func (f *SimFlags) MulticoreConfig() (int, string) {
	if f.CPUs <= 1 {
		return 0, ""
	}
	return f.CPUs, f.Lock
}

// Observing reports whether any observability flag asks for work.
func (f *SimFlags) Observing() bool { return f.TraceOut != "" || f.SampleUs > 0 }

// Observe attaches the flight recorder to the node when -sample-us is
// set. Call before Boot (telemetry imports kernel, so the builder
// cannot attach recorders itself — this is where that wiring lives).
func (f *SimFlags) Observe(n *kernel.Node) error {
	if f.SampleUs <= 0 {
		return nil
	}
	rec, err := telemetry.Attach(n.Kernel(), telemetry.Config{
		Interval: vtime.Duration(f.SampleUs * 1000),
		Capacity: f.SampleCap,
	})
	if err != nil {
		return err
	}
	f.rec = rec
	return nil
}

// Finish harvests observability after the run: the recorder's series
// goes into the artifact's timeseries block, and the trace ring is
// written to -trace-out as Perfetto trace-event JSON, with a warning on
// stderr when the ring dropped events (the export is then truncated).
// Safe to call unconditionally.
func (f *SimFlags) Finish(n *kernel.Node) error {
	if f.rec != nil {
		f.c.Timeseries = f.rec.Series()
	}
	if f.TraceOut == "" {
		return nil
	}
	log := n.Trace()
	if log == nil {
		return fmt.Errorf("-trace-out: node has no trace ring (TraceCapacity 0)")
	}
	if d := log.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "%s: WARNING: trace ring dropped %d events; the export is truncated\n", f.c.Tool, d)
	}
	w, err := os.Create(f.TraceOut)
	if err != nil {
		return err
	}
	if err := log.ExportPerfetto(w); err != nil {
		w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	if !f.c.Quiet {
		fmt.Fprintf(os.Stderr, "%s: wrote %s (%d events)\n", f.c.Tool, f.TraceOut, log.Total())
	}
	return nil
}

// RunFlags is the flag surface of the tools that boot one node on one
// workload and run it, emsim and emreport: the simulator flags plus the
// policy (-policy, -queues, -standard-sem), the workload (the Table 2
// set, or -n random tasks at utilization -u with periods divided by
// -div, drawn from the tool's -seed) and the run length (-ms).
type RunFlags struct {
	*SimFlags
	Policy      string  // -policy: scheduler
	Queues      int     // -queues: CSD queue count
	N           int     // -n: random workload size, 0 = the Table 2 workload
	U           float64 // -u: random workload utilization
	Div         int     // -div: period divisor
	Ms          float64 // -ms: virtual milliseconds to run
	StandardSem bool    // -standard-sem: the standard §6.1 semaphore scheme
}

// RunFlags registers the simulator and run flags on the default
// FlagSet, with -ms defaulting to ms. The tool must also register
// -seed, which seeds the random workload. Call before Parse.
func (c *Common) RunFlags(ms float64) *RunFlags {
	r := &RunFlags{SimFlags: c.SimFlags()}
	flag.StringVar(&r.Policy, "policy", "csd", "scheduler: csd, edf, rm, rm-heap, fp")
	flag.IntVar(&r.Queues, "queues", 3, "CSD queue count")
	flag.IntVar(&r.N, "n", 0, "random workload size (0 = use the Table 2 workload)")
	flag.Float64Var(&r.U, "u", 0.7, "random workload utilization")
	flag.IntVar(&r.Div, "div", 1, "period divisor")
	flag.Float64Var(&r.Ms, "ms", ms, "virtual milliseconds to run")
	flag.BoolVar(&r.StandardSem, "standard-sem", false, "use the standard §6.1 semaphore scheme")
	c.checks = append(c.checks, r.check)
	return r
}

// check exits 2 on a workload or run length the tool could only
// substitute or run empty.
func (r *RunFlags) check() {
	c := r.c
	c.AtLeast("queues", r.Queues, 1)
	c.AtLeast("n", r.N, 0)
	c.Positive("u", r.U)
	c.AtLeast("div", r.Div, 1)
	c.Millis("ms", r.Ms)
}

// Run boots the flagged workload under the flagged policy on cfg (the
// tool's Config with its trace settings), with the flight recorder
// attached before boot when -sample-us asks for it, and runs it for -ms
// of virtual time. The run is a pure function of cfg and the flags.
func (r *RunFlags) Run(cfg sim.Config) (*kernel.Node, error) {
	cfg.Policy, cfg.Queues, cfg.StandardSem = r.Policy, r.Queues, r.StandardSem
	var specs []task.Spec
	if r.N > 0 {
		specs = workload.Generate(workload.Config{N: r.N, Utilization: r.U, PeriodDiv: r.Div, Seed: r.c.Seed})
	} else {
		specs = workload.Table2()
	}
	n, err := kernel.Boot(cfg, func(n *kernel.Node) error {
		for _, s := range specs {
			n.AddTask(s)
		}
		return r.Observe(n)
	})
	if err != nil {
		return nil, err
	}
	n.Run(vtime.Millis(r.Ms))
	return n, nil
}
