package experiments

import (
	"sort"

	"emeralds/internal/kernel"
	"emeralds/internal/metrics"
	"emeralds/internal/stats"
)

// diagCollector builds the diagnostics block of a sweep whose harness
// jobs each run several scenario kernels: the kernels' counters summed,
// and one histogram per scenario task, keyed "prefix/thread" where the
// prefix names the scenario. hist reads the histogram from a thread;
// metric ("blocking" or "response") names it in the block.
type diagCollector struct {
	hist   func(*kernel.Thread) *stats.Histogram
	metric string
}

// diagShare is one job's part of the block.
type diagShare struct {
	met   metrics.Set
	hists map[string]*stats.Histogram
}

// diagJob is one harness job's result with its part of the block.
type diagJob[T any] struct {
	val T
	diagShare
}

// add folds k's counters into s, and under prefix each of k's threads'
// histograms that holds a sample.
func (c diagCollector) add(s *diagShare, prefix string, k *kernel.Kernel) {
	s.met.Merge(k.Metrics())
	for _, th := range k.Threads() {
		if h := c.hist(th); h != nil && h.Count() > 0 {
			s.merge(prefix+"/"+th.Name(), h)
		}
	}
}

func (s *diagShare) merge(key string, h *stats.Histogram) {
	if s.hists == nil {
		s.hists = map[string]*stats.Histogram{}
	}
	if s.hists[key] == nil {
		s.hists[key] = &stats.Histogram{}
	}
	s.hists[key].Merge(h)
}

// fold merges the jobs' parts in job order, so the block is identical
// for any worker count, and returns the jobs' values with the block,
// its task summaries sorted by key.
func fold[T any](c diagCollector, jobs []diagJob[T]) ([]T, *metrics.Diagnostics) {
	vals := make([]T, len(jobs))
	var all diagShare
	for i := range jobs {
		vals[i] = jobs[i].val
		all.met.Merge(&jobs[i].met)
		for key, h := range jobs[i].hists {
			all.merge(key, h)
		}
	}
	d := &metrics.Diagnostics{Counters: all.met.Snapshot()}
	keys := make([]string, 0, len(all.hists))
	for key := range all.hists {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		d.Tasks = append(d.Tasks, metrics.Summarize(key, c.metric, all.hists[key]))
	}
	return vals, d
}
