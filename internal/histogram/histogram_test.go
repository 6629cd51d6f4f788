package histogram

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if h.CDF() != nil {
		t.Fatal("empty histogram CDF should be nil")
	}
}

func TestExactSmallValues(t *testing.T) {
	var h Histogram
	for v := int64(0); v < 16; v++ {
		h.Record(v)
	}
	if h.Count() != 16 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Max() != 15 {
		t.Fatalf("Max = %d", h.Max())
	}
	if got := h.Percentile(100); got != 15 {
		t.Fatalf("P100 = %d, want 15", got)
	}
}

func TestPercentileAccuracy(t *testing.T) {
	var h Histogram
	// Uniform 1..10000: P50 ~ 5000, P99 ~ 9900 within bucket error (~7%).
	for v := int64(1); v <= 10000; v++ {
		h.Record(v)
	}
	checks := []struct {
		q    float64
		want int64
	}{{50, 5000}, {90, 9000}, {99, 9900}}
	for _, c := range checks {
		got := h.Percentile(c.q)
		if got < c.want*92/100 || got > c.want*108/100 {
			t.Errorf("P%.0f = %d, want ~%d", c.q, got, c.want)
		}
	}
	mean := h.Mean()
	if mean < 4800 || mean > 5200 {
		t.Errorf("Mean = %v, want ~5000", mean)
	}
}

func TestNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5)
	if h.Count() != 1 || h.Max() != 0 {
		t.Fatal("negative samples should clamp to 0")
	}
}

func TestCDFMonotonic(t *testing.T) {
	var h Histogram
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		h.Record(r.Int63n(1_000_000))
	}
	cdf := h.CDF()
	if len(cdf) == 0 {
		t.Fatal("empty CDF")
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Value <= cdf[i-1].Value {
			t.Fatalf("CDF values not increasing at %d", i)
		}
		if cdf[i].Fraction < cdf[i-1].Fraction {
			t.Fatalf("CDF fractions not monotone at %d", i)
		}
	}
	last := cdf[len(cdf)-1].Fraction
	if last < 0.9999 || last > 1.0001 {
		t.Fatalf("CDF should end at 1.0, got %v", last)
	}
}

func TestMerge(t *testing.T) {
	var a, b Histogram
	for i := int64(0); i < 100; i++ {
		a.Record(100)
		b.Record(10000)
	}
	a.Merge(&b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Max() != 10000 {
		t.Fatalf("merged max = %d", a.Max())
	}
	p50 := a.Percentile(50)
	if p50 > 200 {
		t.Fatalf("merged P50 = %d, want ~100", p50)
	}
}

func TestConcurrentRecord(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 10000; i++ {
				h.Record(r.Int63n(1 << 30))
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != 80000 {
		t.Fatalf("Count = %d, want 80000", h.Count())
	}
}

func TestTails(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Record(i)
	}
	tl := h.Tails()
	if tl.P50 > tl.P99 || tl.P99 > tl.P999 || tl.P999 > tl.P9999 || tl.P9999 > tl.Max {
		t.Fatalf("tails not monotone: %+v", tl)
	}
	if tl.Max != 1000 {
		t.Fatalf("Max = %d", tl.Max)
	}
	if tl.String() == "" {
		t.Fatal("empty Tail string")
	}
}

func TestReset(t *testing.T) {
	var h Histogram
	h.Record(55)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear histogram")
	}
}

// Property: percentile bucket error is bounded by one sub-bucket (~1/16
// relative) for any sample value.
func TestBucketRelativeError(t *testing.T) {
	f := func(v int64) bool {
		if v < 0 {
			v = -v
		}
		v %= 1 << 40
		var h Histogram
		h.Record(v)
		got := h.Percentile(50)
		if v < 16 {
			return got == v
		}
		diff := got - v
		if diff < 0 {
			diff = -diff
		}
		return float64(diff) <= float64(v)/8 // generous 2-sub-bucket bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWindowedPercentile(t *testing.T) {
	w := NewAtomicWindowed(100)
	if w.Percentile(99) != 0 {
		t.Fatal("empty window should report 0")
	}
	for i := int64(1); i <= 50; i++ {
		w.Record(i)
	}
	if got := w.Percentile(100); got != 50 {
		t.Fatalf("P100 = %d, want 50", got)
	}
	if got := w.Percentile(50); got < 24 || got > 26 {
		t.Fatalf("P50 = %d, want ~25", got)
	}
	// Overflow the ring: old samples must be evicted.
	for i := int64(1000); i < 1100; i++ {
		w.Record(i)
	}
	if got := w.Percentile(1); got < 1000 {
		t.Fatalf("old samples not evicted: P1 = %d", got)
	}
	if w.Len() != 100 {
		t.Fatalf("Len = %d, want 100", w.Len())
	}
}

func TestWindowedMinSize(t *testing.T) {
	w := NewAtomicWindowed(1)
	for i := int64(0); i < 20; i++ {
		w.Record(i)
	}
	if w.Len() != 8 {
		t.Fatalf("minimum window size should be 8, got %d", w.Len())
	}
}
