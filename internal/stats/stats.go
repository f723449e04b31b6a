// Package stats provides the response-time histogram used by the
// kernel's optional per-task latency recording. Real-time evaluation
// cares about tails, not means — a task with a fine average and a fat
// p99 is a task that misses deadlines — so the histogram keeps
// logarithmic buckets from 1 µs to ~1 s with ~8% resolution, constant
// memory, and O(1) insert: the footprint discipline of a small-memory
// kernel applied to its own instrumentation.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"emeralds/internal/vtime"
)

// bucketsPerDecade gives ~8% relative resolution (30 buckets per ×10).
const bucketsPerDecade = 30

// numBuckets spans 1 µs … 10⁶ µs (1 s) in log space, plus an overflow
// bucket.
const numBuckets = 6*bucketsPerDecade + 1

// Histogram is a fixed-size log-bucketed latency histogram. The zero
// value is ready to use.
type Histogram struct {
	counts [numBuckets]uint64
	n      uint64
	min    vtime.Duration
	max    vtime.Duration
	sum    vtime.Duration
}

// logBucket is the bucket formula: ⌊30·log₁₀(µs)⌋, clamped to the
// bucket range. bucketOf computes the same function without the
// logarithm; the tables below are built from this one.
func logBucket(d vtime.Duration) int {
	us := d.Micros()
	if us < 1 {
		return 0
	}
	b := int(math.Log10(us) * bucketsPerDecade)
	if b < 0 {
		b = 0
	}
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

// cellBits is the number of mantissa bits after the leading one that
// select a cell: a cell spans a ratio of at most 1+1/16, narrower than
// a bucket's 10^(1/30) ≈ 1.08, so it meets at most two buckets.
const cellBits = 4

var (
	// bucketStart[b] is the shortest duration logBucket puts in bucket
	// b or later; bucketStart[0] is 0.
	bucketStart [numBuckets]vtime.Duration
	// cellBucket[p<<cellBits | m] is logBucket of the first duration
	// whose leading one is bit p and whose next cellBits bits are m.
	cellBucket [64 << cellBits]uint8
)

func init() {
	for b := 1; b < numBuckets; b++ {
		// Start from the closed form and step to the exact edge.
		d := bucketLow(b)
		for logBucket(d) >= b {
			d--
		}
		for logBucket(d) < b {
			d++
		}
		bucketStart[b] = d
	}
	for p := cellBits; p < 63; p++ {
		for m := 0; m < 1<<cellBits; m++ {
			first := vtime.Duration(uint64(1<<cellBits|m) << (p - cellBits))
			cellBucket[p<<cellBits|m] = uint8(logBucket(first))
		}
	}
}

// bucketOf is logBucket without the logarithm: the duration's cell
// gives the lower of the two buckets the cell can meet, and one compare
// with the next bucket's first duration decides between them.
func bucketOf(d vtime.Duration) int {
	if d < bucketStart[1] {
		return 0
	}
	if d >= bucketStart[numBuckets-1] {
		return numBuckets - 1
	}
	p := bits.Len64(uint64(d)) - 1
	b := int(cellBucket[p<<cellBits|int(uint64(d)>>(p-cellBits))&(1<<cellBits-1)])
	if d >= bucketStart[b+1] {
		b++
	}
	return b
}

// bucketLow returns the lower bound of bucket b.
func bucketLow(b int) vtime.Duration {
	return vtime.Micros(math.Pow(10, float64(b)/bucketsPerDecade))
}

// Add records one sample.
func (h *Histogram) Add(d vtime.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(d)]++
	h.n++
	h.sum += d
	if h.n == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count reports the number of samples.
func (h *Histogram) Count() uint64 { return h.n }

// Min reports the smallest sample.
func (h *Histogram) Min() vtime.Duration { return h.min }

// Max reports the largest sample (exact, not bucketed).
func (h *Histogram) Max() vtime.Duration { return h.max }

// Mean reports the arithmetic mean.
func (h *Histogram) Mean() vtime.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / vtime.Duration(h.n)
}

// Quantile reports an upper bound on the q-quantile (0 < q ≤ 1) with
// the bucket resolution (~8%); the extremes are exact.
func (h *Histogram) Quantile(q float64) vtime.Duration {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(math.Ceil(q * float64(h.n)))
	var cum uint64
	for b := 0; b < numBuckets; b++ {
		cum += h.counts[b]
		if cum >= target {
			up := bucketLow(b + 1)
			if up > h.max {
				up = h.max
			}
			if up < h.min {
				up = h.min
			}
			return up
		}
	}
	return h.max
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.n == 0 {
		return
	}
	for b := range h.counts {
		h.counts[b] += other.counts[b]
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.n += other.n
	h.sum += other.sum
}

// Summary renders "n=… min=… p50=… p95=… p99=… max=…".
func (h *Histogram) Summary() string {
	if h.n == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d min=%v p50=%v p95=%v p99=%v max=%v",
		h.n, h.min, h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99), h.max)
}

// Sparkline renders the distribution as a compact unicode bar strip
// over the occupied bucket range.
func (h *Histogram) Sparkline(width int) string {
	if h.n == 0 || width <= 0 {
		return ""
	}
	lo, hi := bucketOf(h.min), bucketOf(h.max)+1
	if hi <= lo {
		hi = lo + 1
	}
	bars := []rune("▁▂▃▄▅▆▇█")
	var peak uint64
	cells := make([]uint64, width)
	for b := lo; b < hi; b++ {
		c := (b - lo) * width / (hi - lo)
		cells[c] += h.counts[b]
	}
	for _, v := range cells {
		if v > peak {
			peak = v
		}
	}
	var sb strings.Builder
	for _, v := range cells {
		if v == 0 {
			sb.WriteRune(' ')
			continue
		}
		idx := int(v * uint64(len(bars)-1) / peak)
		sb.WriteRune(bars[idx])
	}
	return sb.String()
}
