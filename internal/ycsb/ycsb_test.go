package ycsb

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestLoadInsertsDisjointStrided(t *testing.T) {
	const workers = 4
	seen := map[string]int{}
	for w := 0; w < workers; w++ {
		g := NewGenerator(Load, 100, w, workers, 7)
		for i := 0; i < 50; i++ {
			op := g.Next()
			if op.Kind != OpInsert {
				t.Fatalf("LOAD produced %v", op.Kind)
			}
			seen[string(op.Key)]++
		}
	}
	for k, n := range seen {
		if n > 1 {
			t.Fatalf("key %q inserted %d times across workers", k, n)
		}
	}
	if len(seen) != workers*50 {
		t.Fatalf("expected %d distinct keys, got %d", workers*50, len(seen))
	}
}

func TestKeyFormat(t *testing.T) {
	k := Key(255)
	if len(k) != 8 {
		t.Fatalf("key length %d, want 8 (paper's 8 B keys)", len(k))
	}
	if string(Key(1)) == string(Key(2)) {
		t.Fatal("distinct indices produced equal keys")
	}
}

func TestMixRatios(t *testing.T) {
	const n = 100000
	cases := []struct {
		w         Workload
		wantReads float64
		wantRMW   float64
		tol       float64
	}{
		{A, 0.50, 0, 0.02},
		{B, 0.95, 0, 0.02},
		{C, 1.00, 0, 0},
		{F, 0.50, 0.50, 0.02},
	}
	for _, tc := range cases {
		g := NewGenerator(tc.w, 10000, 0, 1, 42)
		var reads, updates, rmw int
		for i := 0; i < n; i++ {
			switch g.Next().Kind {
			case OpRead:
				reads++
			case OpUpdate:
				updates++
			case OpReadModifyWrite:
				rmw++
			case OpInsert:
				t.Fatalf("%s produced an insert", tc.w)
			}
		}
		if r := float64(reads) / n; math.Abs(r-tc.wantReads) > tc.tol {
			t.Errorf("%s read ratio = %v, want ~%v", tc.w, r, tc.wantReads)
		}
		if r := float64(rmw) / n; math.Abs(r-tc.wantRMW) > tc.tol {
			t.Errorf("%s rmw ratio = %v, want ~%v", tc.w, r, tc.wantRMW)
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	g := NewGenerator(C, 100000, 0, 1, 1)
	counts := map[int64]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		op := g.Next()
		_ = op
	}
	z := g.zipf
	for i := 0; i < n; i++ {
		counts[z.next()]++
	}
	// Zipf 0.99: rank 0 should dominate; the top-10 ranks should carry a
	// large share.
	top := 0
	for r := int64(0); r < 10; r++ {
		top += counts[r]
	}
	if float64(top)/n < 0.15 {
		t.Fatalf("top-10 share %v too small for zipf(0.99)", float64(top)/n)
	}
	if counts[0] < counts[1000] {
		t.Fatal("rank 0 less popular than rank 1000")
	}
}

func TestZipfianBounds(t *testing.T) {
	g := NewGenerator(C, 1000, 0, 1, 3)
	for i := 0; i < 100000; i++ {
		k := g.zipf.next()
		if k < 0 || k >= 1000 {
			t.Fatalf("zipfian out of range: %d", k)
		}
	}
}

func TestLatestSkewsRecent(t *testing.T) {
	g := NewGenerator(D, 100000, 0, 1, 5)
	const n = 100000
	var reads, inserts int
	for i := 0; i < n; i++ {
		switch op := g.Next(); op.Kind {
		case OpRead:
			reads++
		case OpInsert:
			inserts++
		default:
			t.Fatalf("D produced %v", op.Kind)
		}
	}
	if r := float64(inserts) / n; math.Abs(r-0.05) > 0.01 {
		t.Fatalf("D insert ratio = %v, want ~0.05 (YCSB D: 95%% read-latest / 5%% insert)", r)
	}
	// Sample the underlying latest distribution directly. The recency
	// frontier has advanced past the preload by this worker's own inserts;
	// latest() must never name a key beyond it (it would not exist yet).
	recent := 0
	frontier := g.next // next key to insert; everything below exists
	for i := 0; i < n; i++ {
		k := g.latest()
		if k < 0 || k >= frontier {
			t.Fatalf("latest key out of range: %d (frontier %d)", k, frontier)
		}
		if frontier-k <= frontier/100 {
			recent++
		}
	}
	if float64(recent)/n < 0.2 {
		t.Fatalf("latest distribution not recent-skewed: %v in newest 1%%", float64(recent)/n)
	}
}

func TestLatestNeverReadsForeignUninsertedKeys(t *testing.T) {
	// With multiple strided workers, a worker's recency frontier includes
	// only its OWN inserts above the preload — peers' stripes may lag. Every
	// latest() pick must be preloaded or one of this worker's own inserts.
	const inserted, workers, worker = 5000, 4, 2
	g := NewGenerator(D, inserted, worker, workers, 13)
	for i := 0; i < 50000; i++ {
		g.Next() // interleave inserts so the frontier moves
		k := g.latest()
		if k < inserted {
			continue
		}
		if k >= g.next || (k-inserted-int64(worker))%int64(workers) != 0 {
			t.Fatalf("latest picked key %d: not preloaded, not worker %d's stripe (next=%d)",
				k, worker, g.next)
		}
	}
}

// TestZipfianShapeMatchesTheory checks the incremental generator against the
// true zipfian PMF p(r) = (r+1)^-θ / ζ(n,θ): exact head ranks, then
// cumulative mass at several prefixes (the continuous approximation for
// mid-tail ranks is only faithful cumulatively).
func TestZipfianShapeMatchesTheory(t *testing.T) {
	const (
		nKeys   = 10000
		samples = 1000000
		theta   = 0.99
	)
	z := newZipfian(nKeys, theta, rand.New(rand.NewSource(11)))
	counts := make([]int, nKeys)
	for i := 0; i < samples; i++ {
		counts[z.next()]++
	}
	zn := zeta(nKeys, theta)
	// Ranks 0 and 1 have closed forms in the generator; they must be tight.
	for r, tol := range []float64{0.03, 0.05} {
		want := math.Pow(float64(r+1), -theta) / zn
		got := float64(counts[r]) / samples
		if math.Abs(got-want)/want > tol {
			t.Errorf("rank %d: empirical %.5f vs theoretical %.5f", r, got, want)
		}
	}
	// Cumulative head mass: top-10, top-100, top-1000 within 10% of theory.
	cum := 0.0
	cdf := make([]float64, nKeys)
	for r := 0; r < nKeys; r++ {
		cum += math.Pow(float64(r+1), -theta) / zn
		cdf[r] = cum
	}
	for _, prefix := range []int{10, 100, 1000} {
		got := 0
		for r := 0; r < prefix; r++ {
			got += counts[r]
		}
		emp := float64(got) / samples
		want := cdf[prefix-1]
		if math.Abs(emp-want)/want > 0.10 {
			t.Errorf("top-%d mass: empirical %.4f vs theoretical %.4f", prefix, emp, want)
		}
	}
	// The hot head must actually be hot: rank 0 alone beats the entire
	// bottom half of the key space combined.
	bottom := 0
	for r := nKeys / 2; r < nKeys; r++ {
		bottom += counts[r]
	}
	if counts[0] <= bottom {
		t.Errorf("rank 0 (%d) not hotter than bottom half combined (%d)", counts[0], bottom)
	}
}

// TestScrambledZipfianSpreadsHotHead proves existing()'s FNV remap: the
// zipfian head keeps its mass but lands on pseudo-random keys spread across
// the key space, and the mapping is seed-independent so all workers hammer
// the same hot set.
func TestScrambledZipfianSpreadsHotHead(t *testing.T) {
	const nKeys = 100000
	const n = 300000
	g := NewGenerator(C, nKeys, 0, 1, 9)
	counts := map[int64]int{}
	for i := 0; i < n; i++ {
		k := g.existing()
		if k < 0 || k >= nKeys {
			t.Fatalf("scrambled key out of range: %d", k)
		}
		counts[k]++
	}
	type kc struct {
		k int64
		c int
	}
	all := make([]kc, 0, len(counts))
	for k, c := range counts {
		all = append(all, kc{k, c})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].c > all[j].c })
	mass := 0
	lo, hi := all[0].k, all[0].k
	for _, e := range all[:10] {
		mass += e.c
		if e.k < lo {
			lo = e.k
		}
		if e.k > hi {
			hi = e.k
		}
	}
	if float64(mass)/n < 0.15 {
		t.Fatalf("top-10 key mass %v: scramble destroyed the zipfian head", float64(mass)/n)
	}
	if hi < nKeys/10 {
		t.Fatalf("hot keys all in the first tenth of the key space (%d..%d): not scrambled", lo, hi)
	}
	if hi-lo < nKeys/10 {
		t.Fatalf("hot keys clustered (%d..%d): scramble not spreading", lo, hi)
	}
	// Seed independence: a differently seeded worker agrees on the hottest
	// key (the remap depends only on rank, so the hot set is shared).
	g2 := NewGenerator(C, nKeys, 3, 8, 777)
	counts2 := map[int64]int{}
	for i := 0; i < n; i++ {
		counts2[g2.existing()]++
	}
	best2, bestc := int64(-1), 0
	for k, c := range counts2 {
		if c > bestc {
			best2, bestc = k, c
		}
	}
	if best2 != all[0].k {
		t.Fatalf("hottest key differs across workers: %d vs %d", best2, all[0].k)
	}
}

func TestZetaApproximationContinuity(t *testing.T) {
	// The integral approximation must be close to the exact sum around the
	// cutoff.
	exact := zeta(1<<20, 0.99)
	approx := zeta(1<<20+1000, 0.99)
	if approx <= exact {
		t.Fatal("zeta not increasing across cutoff")
	}
	if (approx-exact)/exact > 0.001 {
		t.Fatalf("zeta discontinuity too large: %v vs %v", exact, approx)
	}
}
