package experiments

import (
	"fmt"
	"strings"

	"emeralds/internal/analysis"
	"emeralds/internal/costmodel"
	"emeralds/internal/harness"
	"emeralds/internal/task"
	"emeralds/internal/workload"
)

// This file regenerates Figures 3–5 (§5.7): average breakdown
// utilization versus number of tasks, for RM, EDF, CSD-2, CSD-3 and
// CSD-4, at three period scalings (base, ÷2, ÷3). The paper averages
// 500 random workloads per point; Workloads configures that (the cmd
// defaults to 100, the benchmarks use fewer; the shapes stabilize well
// before 100).

// BreakdownConfig parameterizes the experiment.
type BreakdownConfig struct {
	Ns        []int // task counts (paper: 5..50)
	PeriodDiv int   // 1 (Figure 3), 2 (Figure 4), 3 (Figure 5)
	Workloads int   // workloads per point (paper: 500)
	Seed      int64
	Profile   *costmodel.Profile
	// Schedulers to include; nil = the paper's five.
	Schedulers []string
	// Par controls the fan-out; the zero value uses every CPU. The
	// series are identical for any worker count (see workload.SeedFor).
	Par Par
}

// DefaultNs is the paper's x-axis.
var DefaultNs = []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}

// BreakdownSchedulers is the paper's scheduler set, in legend order.
var BreakdownSchedulers = []string{"CSD-4", "CSD-3", "CSD-2", "EDF", "RM"}

// BreakdownResult holds one figure's series: Series[scheduler][i] is
// the average breakdown utilization (%) at Ns[i].
type BreakdownResult struct {
	Cfg    BreakdownConfig
	Ns     []int
	Series map[string][]float64
}

// BreakdownFigure runs the experiment. The (point, workload) grid is
// flattened into one harness job per workload — the sweep is
// embarrassingly parallel — and each job regenerates its task set from
// workload.SeedFor(Seed, n, i), so the series are bit-identical for
// every worker count: the merge sums each point's workloads in index
// order after all jobs return.
func BreakdownFigure(cfg BreakdownConfig) *BreakdownResult {
	if len(cfg.Ns) == 0 {
		cfg.Ns = DefaultNs
	}
	if cfg.PeriodDiv <= 0 {
		cfg.PeriodDiv = 1
	}
	if cfg.Workloads <= 0 {
		cfg.Workloads = 100
	}
	if cfg.Profile == nil {
		cfg.Profile = m68040
	}
	if len(cfg.Schedulers) == 0 {
		cfg.Schedulers = BreakdownSchedulers
	}
	res := &BreakdownResult{Cfg: cfg, Ns: cfg.Ns, Series: map[string][]float64{}}
	for _, name := range cfg.Schedulers {
		res.Series[name] = make([]float64, len(cfg.Ns))
	}

	// One job per (task count, workload); the job returns the breakdown
	// of every scheduler on that workload, in cfg.Schedulers order.
	label := fmt.Sprintf("breakdown div%d", cfg.PeriodDiv)
	cells := parRun(cfg.Par, label, len(cfg.Ns)*cfg.Workloads,
		func(j harness.Job) ([]float64, error) {
			n := cfg.Ns[j.Index/cfg.Workloads]
			specs := workload.Generate(workload.Config{
				N:           n,
				PeriodDiv:   cfg.PeriodDiv,
				Utilization: 0.5,
				Seed:        workload.SeedFor(cfg.Seed, n, j.Index%cfg.Workloads),
			})
			vals := make([]float64, len(cfg.Schedulers))
			for si, name := range cfg.Schedulers {
				vals[si] = breakdownFor(cfg.Profile, name, specs)
			}
			return vals, nil
		})

	for xi := range cfg.Ns {
		sums := make([]float64, len(cfg.Schedulers))
		for wi := 0; wi < cfg.Workloads; wi++ {
			for si, v := range cells[xi*cfg.Workloads+wi] {
				sums[si] += v
			}
		}
		for si, name := range cfg.Schedulers {
			res.Series[name][xi] = 100 * sums[si] / float64(cfg.Workloads)
		}
	}
	return res
}

func breakdownFor(p *costmodel.Profile, name string, specs []task.Spec) float64 {
	switch name {
	case "EDF":
		return analysis.BreakdownEDF(p, specs)
	case "RM":
		return analysis.BreakdownRM(p, specs)
	case "CSD-2":
		return analysis.BreakdownCSD(p, specs, 2)
	case "CSD-3":
		return analysis.BreakdownCSD(p, specs, 3)
	case "CSD-4":
		return analysis.BreakdownCSD(p, specs, 4)
	default:
		panic(fmt.Sprintf("experiments: unknown scheduler %q", name))
	}
}

// Render prints the figure as an aligned text table (one row per n).
func (r *BreakdownResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Breakdown utilization (%%), periods ÷%d, %d workloads/point\n",
		r.Cfg.PeriodDiv, r.Cfg.Workloads)
	fmt.Fprintf(&b, "%6s", "n")
	for _, s := range r.Cfg.Schedulers {
		fmt.Fprintf(&b, "%9s", s)
	}
	b.WriteString("\n")
	for i, n := range r.Ns {
		fmt.Fprintf(&b, "%6d", n)
		for _, s := range r.Cfg.Schedulers {
			fmt.Fprintf(&b, "%9.1f", r.Series[s][i])
		}
		b.WriteString("\n")
	}
	return b.String()
}
