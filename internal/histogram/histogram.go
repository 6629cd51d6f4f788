// Package histogram records latency samples in logarithmic buckets and
// reports percentiles and CDF series, the measurement instrument behind the
// paper's Figures 11/13/16 and Tables 2/3.
//
// Buckets have ~3% relative width (16 sub-buckets per power of two), which is
// plenty for the two-significant-figure latencies the paper reports, and
// recording is a single atomic increment so the instrument does not perturb
// the virtual-time measurements.
package histogram

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
)

const (
	subBucketBits = 4
	subBuckets    = 1 << subBucketBits // 16 sub-buckets per octave
	octaves       = 44                 // covers up to ~2^44 ns (~4.8 hours)
	numBuckets    = octaves * subBuckets
)

// Histogram is a fixed-size log-bucketed histogram of non-negative int64
// samples (nanoseconds). The zero value is ready to use. Safe for concurrent
// recording.
type Histogram struct {
	counts [numBuckets]atomic.Int64
	total  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

func bucketIndex(v int64) int {
	if v < subBuckets {
		return int(v) // exact buckets for tiny values
	}
	exp := 63 - bits.LeadingZeros64(uint64(v)) // floor(log2 v), >= subBucketBits
	sub := int(v>>(uint(exp)-subBucketBits)) & (subBuckets - 1)
	idx := (exp-subBucketBits+1)*subBuckets + sub
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

// bucketValue returns a representative (upper-edge) value for bucket i.
func bucketValue(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	exp := i/subBuckets + subBucketBits - 1
	sub := i % subBuckets
	return (int64(subBuckets+sub) + 1) << (uint(exp) - subBucketBits)
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Mean returns the average sample, or 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Sum returns the total of all recorded samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest recorded sample.
func (h *Histogram) Max() int64 { return h.max.Load() }

// Percentile returns the value at quantile q in [0, 100].
func (h *Histogram) Percentile(q float64) int64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var seen int64
	for i := 0; i < numBuckets; i++ {
		seen += h.counts[i].Load()
		if seen >= rank {
			v := bucketValue(i)
			if m := h.max.Load(); v > m {
				v = m
			}
			return v
		}
	}
	return h.max.Load()
}

// Tail is the standard set of tail percentiles used by Tables 2 and 3.
type Tail struct {
	P50, P99, P999, P9999, Max int64
}

// Tails returns P50/P99/P99.9/P99.99/Max.
func (h *Histogram) Tails() Tail {
	return Tail{
		P50:   h.Percentile(50),
		P99:   h.Percentile(99),
		P999:  h.Percentile(99.9),
		P9999: h.Percentile(99.99),
		Max:   h.Max(),
	}
}

func (t Tail) String() string {
	return fmt.Sprintf("p50=%d p99=%d p99.9=%d p99.99=%d max=%d", t.P50, t.P99, t.P999, t.P9999, t.Max)
}

// CDFPoint is one point of a cumulative distribution series.
type CDFPoint struct {
	Value    int64   // latency (ns)
	Fraction float64 // cumulative fraction of samples <= Value
}

// CDF returns the cumulative distribution over non-empty buckets, suitable
// for plotting the paper's latency CDF figures.
func (h *Histogram) CDF() []CDFPoint {
	n := h.total.Load()
	if n == 0 {
		return nil
	}
	var pts []CDFPoint
	var seen int64
	for i := 0; i < numBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		seen += c
		pts = append(pts, CDFPoint{Value: bucketValue(i), Fraction: float64(seen) / float64(n)})
	}
	return pts
}

// Merge adds every sample of other into h. Not atomic with respect to
// concurrent recording on other.
func (h *Histogram) Merge(other *Histogram) {
	for i := 0; i < numBuckets; i++ {
		if c := other.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.total.Add(other.total.Load())
	h.sum.Add(other.sum.Load())
	for {
		m, o := h.max.Load(), other.max.Load()
		if o <= m || h.max.CompareAndSwap(m, o) {
			break
		}
	}
}

// Reset clears the histogram. Not safe concurrently with Record.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.total.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}

func percentileOf(sorted []int64, q float64) int64 {
	n := len(sorted)
	rank := int(math.Ceil(q/100*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}

// AtomicWindowed tracks a percentile over recent samples — the spike
// detector behind ChameleonDB's dynamic Get-Protect Mode (Section 2.4): a
// lock-free ring shared by many recording goroutines. Record is a fetch-add
// plus one atomic store, so it is safe on the lock-free get path. Percentile
// copies the ring and sorts; samples recorded concurrently with a Percentile
// may or may not be included, which is fine for a spike detector.
type AtomicWindowed struct {
	ring []atomic.Int64
	n    atomic.Int64
}

// NewAtomicWindowed creates a concurrent window of n samples.
func NewAtomicWindowed(n int) *AtomicWindowed {
	if n < 8 {
		n = 8
	}
	return &AtomicWindowed{ring: make([]atomic.Int64, n)}
}

// Record adds a sample. Safe for concurrent use.
func (w *AtomicWindowed) Record(v int64) {
	i := w.n.Add(1) - 1
	w.ring[i%int64(len(w.ring))].Store(v)
}

// Len returns the number of valid samples in the window.
func (w *AtomicWindowed) Len() int {
	n := w.n.Load()
	if n > int64(len(w.ring)) {
		return len(w.ring)
	}
	return int(n)
}

// Percentile returns quantile q in [0,100] over the window, or 0 if empty.
// It allocates a copy of the window; callers invoke it rarely (once per
// sampling epoch), never per operation.
func (w *AtomicWindowed) Percentile(q float64) int64 {
	n := w.Len()
	if n == 0 {
		return 0
	}
	s := make([]int64, n)
	for i := range s {
		s[i] = w.ring[i].Load()
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return percentileOf(s, q)
}

// Reset clears the window. Not safe concurrently with Record.
func (w *AtomicWindowed) Reset() {
	for i := range w.ring {
		w.ring[i].Store(0)
	}
	w.n.Store(0)
}
