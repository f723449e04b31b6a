package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"emeralds/internal/vtime"
)

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram should report zeros")
	}
	if h.Summary() != "n=0" {
		t.Errorf("summary = %q", h.Summary())
	}
	if h.Sparkline(20) != "" {
		t.Error("empty sparkline should be empty")
	}
}

func TestBasicStats(t *testing.T) {
	var h Histogram
	for _, us := range []float64{100, 200, 300, 400} {
		h.Add(vtime.Micros(us))
	}
	if h.Count() != 4 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Min() != vtime.Micros(100) || h.Max() != vtime.Micros(400) {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	if h.Mean() != vtime.Micros(250) {
		t.Errorf("mean = %v", h.Mean())
	}
}

func TestQuantileAccuracy(t *testing.T) {
	// 10k lognormal-ish samples: every quantile must be within the
	// bucket resolution (~8%) of the exact order statistic.
	rng := rand.New(rand.NewSource(1))
	var h Histogram
	var samples []float64
	for i := 0; i < 10000; i++ {
		us := 50 * (1 + 40*rng.Float64()*rng.Float64())
		samples = append(samples, us)
		h.Add(vtime.Micros(us))
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := samples[int(q*float64(len(samples)))-1]
		got := h.Quantile(q).Micros()
		if got < exact*0.92 || got > exact*1.10 {
			t.Errorf("q%.2f = %.1fµs, exact %.1fµs", q, got, exact)
		}
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			h.Add(vtime.Duration(v) * vtime.Microsecond)
		}
		last := vtime.Duration(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < last {
				return false
			}
			last = v
		}
		return h.Quantile(1) == h.Max() && h.Quantile(0) == h.Min()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuantileBounds(t *testing.T) {
	var h Histogram
	h.Add(vtime.Micros(500))
	for _, q := range []float64{0.01, 0.5, 0.999} {
		if got := h.Quantile(q); got != vtime.Micros(500) {
			t.Errorf("single sample q%.3f = %v", q, got)
		}
	}
}

func TestMerge(t *testing.T) {
	var a, b Histogram
	a.Add(vtime.Micros(10))
	a.Add(vtime.Micros(20))
	b.Add(vtime.Micros(1000))
	a.Merge(&b)
	if a.Count() != 3 {
		t.Errorf("count = %d", a.Count())
	}
	if a.Min() != vtime.Micros(10) || a.Max() != vtime.Micros(1000) {
		t.Errorf("min/max = %v/%v", a.Min(), a.Max())
	}
	var empty Histogram
	a.Merge(&empty) // no-op
	if a.Count() != 3 {
		t.Error("merging empty changed counts")
	}
}

func TestExtremeSamples(t *testing.T) {
	var h Histogram
	h.Add(0)                  // below the first bucket
	h.Add(10 * vtime.Second)  // beyond the last bucket
	h.Add(-vtime.Microsecond) // clamped to 0
	if h.Count() != 3 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Quantile(1) != 10*vtime.Second {
		t.Errorf("max = %v", h.Quantile(1))
	}
}

func TestSummaryAndSparkline(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Add(vtime.Micros(float64(100 + i)))
	}
	s := h.Summary()
	for _, frag := range []string{"n=100", "p50=", "p99=", "max="} {
		if !strings.Contains(s, frag) {
			t.Errorf("summary %q missing %q", s, frag)
		}
	}
	spark := h.Sparkline(16)
	if len([]rune(spark)) != 16 {
		t.Errorf("sparkline width = %d", len([]rune(spark)))
	}
	if !strings.ContainsRune(spark, '█') {
		t.Errorf("sparkline has no peak: %q", spark)
	}
}

// TestBucketOfMatchesLogFormula holds the table lookup to the
// logarithm formula it was built from: on every duration within 2 µs
// of a bucket edge, on the first and last duration of every cell, and
// on random durations spread evenly in log space up to 2^40 ns.
func TestBucketOfMatchesLogFormula(t *testing.T) {
	check := func(d vtime.Duration) {
		if got, want := bucketOf(d), logBucket(d); got != want {
			t.Fatalf("bucketOf(%d ns) = %d, logarithm formula gives %d", int64(d), got, want)
		}
	}
	for b := 1; b < numBuckets; b++ {
		for d := bucketStart[b] - 2000; d <= bucketStart[b]+2000; d++ {
			check(d)
		}
	}
	for p := cellBits; p < 63; p++ {
		for m := uint64(0); m < 1<<cellBits; m++ {
			first := (1<<cellBits | m) << (p - cellBits)
			check(vtime.Duration(first))
			check(vtime.Duration(first + 1<<(p-cellBits) - 1))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		check(vtime.Duration(math.Exp2(40 * rng.Float64())))
	}
	for _, d := range []vtime.Duration{-1, 0, 1, 999, 1000, 1 << 62, 1<<63 - 1} {
		check(d)
	}
}
