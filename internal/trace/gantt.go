package trace

import (
	"fmt"
	"sort"
	"strings"

	"emeralds/internal/vtime"
)

// Gantt renders a retained trace window as an ASCII timeline, one row
// per task — the quickest way to *see* a schedule: preemptions,
// priority inversions, the idle gaps a polling server lives off.
//
//	servo-loop  ██████░░··████··········██████
//	supervisor  ······██··░░░░██████████······
//	            0ms                        3ms
//
// █ running, ░ preempted (ready but not running), · not runnable.

// GanttConfig controls rendering.
type GanttConfig struct {
	From, To vtime.Time // window; zero To = last event
	Width    int        // columns for the timeline (default 72)
}

type ganttRow struct {
	name  string
	cells []byte
}

// Gantt renders the dispatch/preempt/block structure of the retained
// events. It reconstructs intervals from Dispatch / Preempt / BlockEv /
// Complete / Miss / Release / UnblockEv events, so any trace produced
// by the kernel works. When the ring has dropped the events at the
// window's start, it says so instead of drawing rows it cannot fill.
func (l *Log) Gantt(cfg GanttConfig) string {
	segs := l.segments()
	if len(segs) == 0 {
		return "(no events)\n"
	}
	oldest := segs[0][0].At
	if d := l.Dropped(); d > 0 && oldest > cfg.From {
		return fmt.Sprintf("(window starts at %v, but the trace ring dropped its %d oldest events: the oldest retained one is at %v)\n",
			cfg.From, d, oldest)
	}
	if cfg.To == 0 {
		newest := segs[len(segs)-1]
		cfg.To = newest[len(newest)-1].At
	}
	if cfg.Width <= 0 {
		cfg.Width = 72
	}
	if cfg.To <= cfg.From {
		return "(empty window)\n"
	}
	span := cfg.To.Sub(cfg.From)
	col := func(at vtime.Time) int {
		c := int(int64(at.Sub(cfg.From)) * int64(cfg.Width) / int64(span))
		if c < 0 {
			c = 0
		}
		if c >= cfg.Width {
			c = cfg.Width - 1
		}
		return c
	}

	// Reconstruct per-task state over time.
	const (
		stateOff = iota
		stateReady
		stateRunning
	)
	rows := map[string]*ganttRow{}
	state := map[string]int{}
	lastCol := map[string]int{}
	var order []string
	row := func(name string) *ganttRow {
		r, ok := rows[name]
		if !ok {
			cells := make([]byte, cfg.Width)
			for i := range cells {
				cells[i] = 0
			}
			r = &ganttRow{name: name, cells: cells}
			rows[name] = r
			order = append(order, name)
		}
		return r
	}
	// paint fills [fromCol, toCol) with the glyph for st, never
	// downgrading a cell already marked running.
	paint := func(name string, fromCol, toCol, st int) {
		r := row(name)
		if toCol <= fromCol {
			toCol = fromCol + 1
		}
		for c := fromCol; c < toCol && c < cfg.Width; c++ {
			var g byte
			switch st {
			case stateRunning:
				g = 2
			case stateReady:
				g = 1
			default:
				g = 0
			}
			if g > r.cells[c] {
				r.cells[c] = g
			}
		}
	}
	transition := func(name string, at vtime.Time, newState int) {
		c := col(at)
		if old, ok := state[name]; ok {
			paint(name, lastCol[name], c, old)
		} else {
			row(name)
		}
		state[name] = newState
		lastCol[name] = c
	}

	var running string
	for _, seg := range segs {
		for i := range seg {
			e := &seg[i]
			if e.At < cfg.From || e.At > cfg.To {
				continue
			}
			switch e.Kind {
			case Dispatch:
				if running != "" && running != e.Task {
					transition(running, e.At, stateReady)
				}
				running = e.Task
				transition(e.Task, e.At, stateRunning)
			case Preempt:
				transition(e.Task, e.At, stateReady)
				if running == e.Task {
					running = ""
				}
			case Release, UnblockEv:
				if state[e.Task] != stateRunning {
					transition(e.Task, e.At, stateReady)
				}
			case BlockEv, Complete, Miss:
				transition(e.Task, e.At, stateOff)
				if running == e.Task {
					running = ""
				}
			case Idle:
				if running != "" {
					transition(running, e.At, stateOff)
					running = ""
				}
			}
		}
	}
	for name := range state {
		paint(name, lastCol[name], cfg.Width, state[name])
	}

	sort.Strings(order)
	width := 0
	for _, n := range order {
		if len(n) > width {
			width = len(n)
		}
	}
	var b strings.Builder
	for _, n := range order {
		r := rows[n]
		fmt.Fprintf(&b, "%-*s  ", width, n)
		for _, c := range r.cells {
			switch c {
			case 2:
				b.WriteRune('█')
			case 1:
				b.WriteRune('░')
			default:
				b.WriteRune('·')
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-*s  %v%s%v\n", width, "", cfg.From,
		strings.Repeat(" ", maxInt(1, cfg.Width-len(cfg.From.String())-len(cfg.To.String()))),
		cfg.To)
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
