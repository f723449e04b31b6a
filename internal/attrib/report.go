package attrib

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"emeralds/internal/metrics"
	"emeralds/internal/stats"
	"emeralds/internal/vtime"
)

// Report is the digested attribution block embedded in
// emeralds.artifact/v1 artifacts under the "attribution" key, and the
// data behind emreport's text rendering. Every field is a deterministic
// function of the trace, so artifacts stay byte-stable across runs and
// worker counts.
type Report struct {
	Tasks      []TaskReport      `json:"tasks"`
	Misses     []MissReport      `json:"misses,omitempty"`
	Inversions []InversionReport `json:"inversions,omitempty"`
	// TraceDropped is non-zero when the trace ring overflowed: the
	// analysis covers a truncated window and must be read as such.
	TraceDropped    uint64 `json:"trace_dropped,omitempty"`
	OpenActivations int    `json:"open_activations,omitempty"`
}

// TaskReport is one task's attribution summary.
type TaskReport struct {
	Task        string  `json:"task"`
	Prio        int     `json:"prio"`
	PeriodUs    float64 `json:"period_us,omitempty"`
	DeadlineUs  float64 `json:"deadline_us,omitempty"`
	Activations int     `json:"activations"` // completed (non-aborted)
	Misses      int     `json:"misses"`
	Overruns    int     `json:"overruns,omitempty"`
	Aborted     int     `json:"aborted,omitempty"`
	// TotalUs sums each component (and "response") over completed
	// activations — the task's time budget ledger.
	TotalUs map[string]float64 `json:"total_us"`
	// Components carries per-component quantiles (metric: "response",
	// "running", "preempted", "blocked", "overhead").
	Components []metrics.TaskSummary `json:"components,omitempty"`
	Worst      *WorstActivation      `json:"worst,omitempty"`
}

// WorstActivation is the breakdown of the task's slowest activation.
type WorstActivation struct {
	Index       int     `json:"index"`
	ReleasedUs  float64 `json:"released_us"`
	ResponseUs  float64 `json:"response_us"`
	RunningUs   float64 `json:"running_us"`
	PreemptedUs float64 `json:"preempted_us"`
	BlockedUs   float64 `json:"blocked_us"`
	OverheadUs  float64 `json:"overhead_us"`
	// MigrationUs appears only on multicore traces (omitted while zero,
	// keeping single-CPU reports byte-identical).
	MigrationUs float64 `json:"migration_us,omitempty"`
}

// MissReport is the root-cause record of one deadline miss.
type MissReport struct {
	Task  string `json:"task"`
	Index int    `json:"index"` // activation index; -1 for a lost release
	// Cause is "latency" (the job retired past its deadline) or
	// "overrun" (the release was lost because the previous job was
	// still in flight).
	Cause       string  `json:"cause"`
	ReleasedUs  float64 `json:"released_us"`
	DeadlineUs  float64 `json:"deadline_us"`
	CompletedUs float64 `json:"completed_us,omitempty"`
	LatenessUs  float64 `json:"lateness_us,omitempty"`
	// CriticalPath lists the intervals that consumed the slack: the
	// largest non-running slices whose removal would have met the
	// deadline, in chronological order. Never empty.
	CriticalPath []CulpritInterval `json:"critical_path"`
}

// CulpritInterval names one slice of consumed slack.
type CulpritInterval struct {
	FromUs    float64  `json:"from_us"`
	ToUs      float64  `json:"to_us"`
	Component string   `json:"component"`
	Culprit   string   `json:"culprit,omitempty"`
	Sem       string   `json:"sem,omitempty"`
	Chain     []string `json:"chain,omitempty"`
}

// InversionReport is one merged priority-inversion window.
type InversionReport struct {
	Task       string  `json:"task"`
	Sem        string  `json:"sem"`
	Runner     string  `json:"runner"`
	FromUs     float64 `json:"from_us"`
	ToUs       float64 `json:"to_us"`
	DurationUs float64 `json:"duration_us"`
}

func us(d vtime.Duration) float64 { return float64(d) / 1e3 }

// Report digests the analysis for artifacts and text rendering. Tasks
// are ordered by priority (highest first), then name.
func (an *Analysis) Report() *Report {
	rep := &Report{TraceDropped: an.Dropped}
	for _, n := range an.Open {
		rep.OpenActivations += n
	}

	byTask := map[string][]*Activation{}
	for i := range an.Activations {
		a := &an.Activations[i]
		byTask[a.Task] = append(byTask[a.Task], a)
	}
	overruns := map[string]int{}
	for _, o := range an.Overruns {
		overruns[o.Task]++
	}

	infos := append([]TaskInfo(nil), an.Tasks...)
	sort.SliceStable(infos, func(i, j int) bool {
		a, b := infos[i], infos[j]
		if a.Prio != b.Prio {
			// Unknown priorities (-1) sort last, not first.
			if a.Prio < 0 || b.Prio < 0 {
				return b.Prio < 0
			}
			return a.Prio < b.Prio
		}
		return a.Name < b.Name
	})

	for _, ti := range infos {
		acts := byTask[ti.Name]
		tr := TaskReport{
			Task:       ti.Name,
			Prio:       ti.Prio,
			PeriodUs:   us(ti.Period),
			DeadlineUs: us(ti.Deadline),
			Overruns:   overruns[ti.Name],
			TotalUs:    map[string]float64{},
		}
		var hists [NumComponents + 1]stats.Histogram // components + response
		var totals [NumComponents + 1]vtime.Duration
		var worst *Activation
		for _, a := range acts {
			if a.Aborted {
				tr.Aborted++
				continue
			}
			tr.Activations++
			if a.Missed {
				tr.Misses++
			}
			for c := Component(0); c < NumComponents; c++ {
				hists[c].Add(a.Comp[c])
				totals[c] += a.Comp[c]
			}
			hists[NumComponents].Add(a.Response)
			totals[NumComponents] += a.Response
			if worst == nil || a.Response > worst.Response {
				worst = a
			}
		}
		if len(acts) == 0 && tr.Overruns == 0 {
			continue // never released inside the trace window
		}
		for c := Component(0); c < NumComponents; c++ {
			if c == Migration && totals[c] == 0 {
				// Single-CPU traces (and tasks that never migrated) omit
				// the migration component entirely, keeping pre-multicore
				// reports byte-identical.
				continue
			}
			tr.TotalUs[c.String()] = us(totals[c])
		}
		tr.TotalUs["response"] = us(totals[NumComponents])
		if tr.Activations > 0 {
			tr.Components = append(tr.Components,
				metrics.Summarize(ti.Name, "response", &hists[NumComponents]))
			for c := Component(0); c < NumComponents; c++ {
				if c == Migration && totals[c] == 0 {
					continue
				}
				tr.Components = append(tr.Components,
					metrics.Summarize(ti.Name, c.String(), &hists[c]))
			}
		}
		if worst != nil {
			tr.Worst = &WorstActivation{
				Index:       worst.Index,
				ReleasedUs:  us(vtime.Duration(worst.ReleasedAt)),
				ResponseUs:  us(worst.Response),
				RunningUs:   us(worst.Comp[Running]),
				PreemptedUs: us(worst.Comp[Preempted]),
				BlockedUs:   us(worst.Comp[Blocked]),
				OverheadUs:  us(worst.Comp[Overhead]),
				MigrationUs: us(worst.Comp[Migration]),
			}
		}
		rep.Tasks = append(rep.Tasks, tr)
	}

	rep.Misses = buildMisses(an, byTask)
	for _, iv := range an.Inversions {
		rep.Inversions = append(rep.Inversions, InversionReport{
			Task:       iv.Task,
			Sem:        iv.Sem,
			Runner:     iv.Runner,
			FromUs:     us(vtime.Duration(iv.From)),
			ToUs:       us(vtime.Duration(iv.To)),
			DurationUs: us(iv.Dur()),
		})
	}
	return rep
}

// buildMisses assembles root-cause entries for every miss — late
// activations and lost releases — in chronological order.
func buildMisses(an *Analysis, byTask map[string][]*Activation) []MissReport {
	type timed struct {
		at vtime.Time
		mr MissReport
	}
	var out []timed
	for i := range an.Activations {
		a := &an.Activations[i]
		if !a.Missed {
			continue
		}
		lateness := a.EndAt.Sub(a.Deadline)
		out = append(out, timed{a.EndAt, MissReport{
			Task:         a.Task,
			Index:        a.Index,
			Cause:        "latency",
			ReleasedUs:   us(vtime.Duration(a.ReleasedAt)),
			DeadlineUs:   us(vtime.Duration(a.Deadline)),
			CompletedUs:  us(vtime.Duration(a.EndAt)),
			LatenessUs:   us(lateness),
			CriticalPath: criticalPath(a, lateness),
		}})
	}
	for _, o := range an.Overruns {
		mr := MissReport{
			Task:       o.Task,
			Index:      -1,
			Cause:      "overrun",
			ReleasedUs: us(vtime.Duration(o.At)),
		}
		// The culprit is the previous job of the same task, still in
		// flight at the lost release: charge the slack it consumed.
		if prev := activationAt(byTask[o.Task], o.At); prev != nil {
			mr.DeadlineUs = us(vtime.Duration(o.At))
			mr.CriticalPath = criticalPath(prev, prev.EndAt.Sub(o.At))
		}
		if len(mr.CriticalPath) == 0 {
			mr.CriticalPath = []CulpritInterval{{
				FromUs: us(vtime.Duration(o.At)), ToUs: us(vtime.Duration(o.At)),
				Component: "overrun", Culprit: o.Task,
			}}
		}
		out = append(out, timed{o.At, mr})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].at != out[j].at {
			return out[i].at < out[j].at
		}
		return out[i].mr.Task < out[j].mr.Task
	})
	misses := make([]MissReport, 0, len(out))
	for _, t := range out {
		misses = append(misses, t.mr)
	}
	return misses
}

// activationAt finds the task activation spanning instant at (acts are
// in index order per task).
func activationAt(acts []*Activation, at vtime.Time) *Activation {
	for _, a := range acts {
		if !a.ReleasedAt.After(at) && a.EndAt.After(at) {
			return a
		}
	}
	return nil
}

// criticalPath selects the intervals that consumed the activation's
// slack: the largest non-running slices whose cumulative length covers
// the lateness (so removing them would have met the deadline),
// reported chronologically. A miss with no non-running time — the job
// simply computes past its deadline — names the task itself.
func criticalPath(a *Activation, lateness vtime.Duration) []CulpritInterval {
	ivs := a.Intervals()
	idx := make([]int, 0, len(ivs))
	for i, iv := range ivs {
		if iv.Comp != Running && iv.Dur() > 0 {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(x, y int) bool {
		dx, dy := ivs[idx[x]].Dur(), ivs[idx[y]].Dur()
		if dx != dy {
			return dx > dy
		}
		return ivs[idx[x]].From < ivs[idx[y]].From
	})
	var chosen []int
	var cum vtime.Duration
	for _, i := range idx {
		if cum >= lateness && len(chosen) > 0 {
			break
		}
		chosen = append(chosen, i)
		cum += ivs[i].Dur()
	}
	sort.Ints(chosen)
	out := make([]CulpritInterval, 0, len(chosen))
	for _, i := range chosen {
		iv := ivs[i]
		culprit := iv.Culprit
		if iv.Comp == Overhead {
			culprit = "kernel"
		}
		out = append(out, CulpritInterval{
			FromUs:    us(vtime.Duration(iv.From)),
			ToUs:      us(vtime.Duration(iv.To)),
			Component: iv.Comp.String(),
			Culprit:   culprit,
			Sem:       iv.Sem,
			Chain:     iv.Chain,
		})
	}
	if len(out) == 0 {
		out = []CulpritInterval{{
			FromUs:    us(vtime.Duration(a.ReleasedAt)),
			ToUs:      us(vtime.Duration(a.EndAt)),
			Component: "running",
			Culprit:   a.Task,
		}}
	}
	return out
}

// RenderText writes the report as the deterministic human-readable
// emreport output.
func (r *Report) RenderText(w io.Writer, source string) {
	fmt.Fprintf(w, "EMERALDS latency attribution — %s\n", source)
	if r.TraceDropped > 0 {
		fmt.Fprintf(w, "\nWARNING: trace ring dropped %d events — this analysis covers a TRUNCATED window\n", r.TraceDropped)
	}
	if r.OpenActivations > 0 {
		fmt.Fprintf(w, "note: %d activation(s) still in flight at end of trace (excluded from summaries)\n", r.OpenActivations)
	}

	fmt.Fprintf(w, "\nper-task response decomposition (totals over completed activations, µs)\n")
	// The migration column appears only when some task migrated, so
	// single-CPU renderings are unchanged.
	hasMigration := false
	for _, t := range r.Tasks {
		if _, ok := t.TotalUs["migration"]; ok {
			hasMigration = true
			break
		}
	}
	header := []string{"task", "prio", "acts", "miss", "over", "response", "running", "preempted", "blocked", "overhead"}
	if hasMigration {
		header = append(header, "migration")
	}
	rows := make([][]string, 0, len(r.Tasks))
	for _, t := range r.Tasks {
		row := []string{
			t.Task, itoa(t.Prio), itoa(t.Activations), itoa(t.Misses), itoa(t.Overruns),
			f3(t.TotalUs["response"]), f3(t.TotalUs["running"]),
			f3(t.TotalUs["preempted"]), f3(t.TotalUs["blocked"]), f3(t.TotalUs["overhead"]),
		}
		if hasMigration {
			row = append(row, f3(t.TotalUs["migration"]))
		}
		rows = append(rows, row)
	}
	table(w, header, rows)

	fmt.Fprintf(w, "\nresponse-time quantiles (µs)\n")
	header = []string{"task", "metric", "n", "p50", "p95", "p99", "max"}
	rows = rows[:0]
	for _, t := range r.Tasks {
		for _, c := range t.Components {
			rows = append(rows, []string{
				c.Task, c.Metric, fmt.Sprint(c.N),
				f3(c.P50Us), f3(c.P95Us), f3(c.P99Us), f3(c.MaxUs),
			})
		}
	}
	table(w, header, rows)

	fmt.Fprintf(w, "\nworst activation per task (µs)\n")
	header = []string{"task", "index", "released", "response", "running", "preempted", "blocked", "overhead"}
	rows = rows[:0]
	for _, t := range r.Tasks {
		if t.Worst == nil {
			continue
		}
		wa := t.Worst
		rows = append(rows, []string{
			t.Task, itoa(wa.Index), f3(wa.ReleasedUs), f3(wa.ResponseUs),
			f3(wa.RunningUs), f3(wa.PreemptedUs), f3(wa.BlockedUs), f3(wa.OverheadUs),
		})
	}
	table(w, header, rows)

	if len(r.Misses) == 0 {
		fmt.Fprintf(w, "\ndeadline misses: none\n")
	} else {
		fmt.Fprintf(w, "\ndeadline misses: %d\n", len(r.Misses))
		for _, m := range r.Misses {
			if m.Cause == "overrun" {
				fmt.Fprintf(w, "  %s lost release at %.3fµs (previous job still running)\n", m.Task, m.ReleasedUs)
			} else {
				fmt.Fprintf(w, "  %s activation %d released %.3fµs deadline %.3fµs completed %.3fµs (late by %.3fµs)\n",
					m.Task, m.Index, m.ReleasedUs, m.DeadlineUs, m.CompletedUs, m.LatenessUs)
			}
			fmt.Fprintf(w, "    slack consumed by:\n")
			for _, ci := range m.CriticalPath {
				line := fmt.Sprintf("      %.3f–%.3fµs %s %.3fµs", ci.FromUs, ci.ToUs, ci.Component, ci.ToUs-ci.FromUs)
				if ci.Culprit != "" {
					line += " ← " + ci.Culprit
				}
				if ci.Sem != "" {
					line += " (sem " + ci.Sem
					if len(ci.Chain) > 1 {
						line += ", chain " + strings.Join(ci.Chain, "→")
					}
					line += ")"
				}
				fmt.Fprintln(w, line)
			}
		}
	}

	if len(r.Inversions) == 0 {
		fmt.Fprintf(w, "\npriority-inversion windows: none\n")
	} else {
		fmt.Fprintf(w, "\npriority-inversion windows: %d\n", len(r.Inversions))
		for _, iv := range r.Inversions {
			fmt.Fprintf(w, "  %s blocked on %s while lower-priority %s ran: %.3f–%.3fµs (%.3fµs)\n",
				iv.Task, iv.Sem, iv.Runner, iv.FromUs, iv.ToUs, iv.DurationUs)
		}
	}
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// table renders aligned columns, first column left-aligned — the
// repo's table style (kept local to avoid importing the CLI plumbing).
func table(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	emit := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			pad := strings.Repeat(" ", widths[i]-len(cell))
			if i == 0 {
				fmt.Fprint(w, cell, pad)
			} else {
				fmt.Fprint(w, pad, cell)
			}
		}
		fmt.Fprintln(w)
	}
	emit(header)
	for _, r := range rows {
		emit(r)
	}
}
