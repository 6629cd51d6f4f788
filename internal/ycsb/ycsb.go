// Package ycsb implements the Yahoo Cloud Serving Benchmark workload
// generators used in the paper's Section 3.4 (Table 5): LOAD, A, B, C, D,
// and F. Workload E (range scan) is excluded, as in the paper, because the
// stores are organized by hashed keys.
//
// Key choosers follow the YCSB reference: scrambled zipfian (theta 0.99,
// FNV-remapped over the inserted keyspace) for A/B/C/F, and a "latest"
// distribution skewed toward recently inserted keys for D's 95% reads, with
// the remaining 5% inserting new keys that advance the recency frontier.
package ycsb

import (
	"math"
	"math/rand"
)

// OpKind is the type of one generated operation.
type OpKind int

const (
	// OpInsert adds a new key.
	OpInsert OpKind = iota
	// OpRead fetches an existing key.
	OpRead
	// OpUpdate overwrites an existing key.
	OpUpdate
	// OpReadModifyWrite reads then writes one key.
	OpReadModifyWrite
)

// Op is one generated operation.
type Op struct {
	Kind OpKind
	Key  []byte
}

// Workload identifies one of the paper's YCSB workloads.
type Workload string

// The paper's Table 5 workloads.
const (
	Load Workload = "YCSB_LOAD" // 100% insert
	A    Workload = "YCSB_A"    // 50% read / 50% update
	B    Workload = "YCSB_B"    // 95% read / 5% update
	C    Workload = "YCSB_C"    // 100% read
	D    Workload = "YCSB_D"    // 95% read latest / 5% insert
	F    Workload = "YCSB_F"    // 50% read / 50% read-modify-write
)

// Workloads lists the paper's six workloads in presentation order.
var Workloads = []Workload{Load, A, B, C, D, F}

// Generator produces operations for one worker. Not safe for concurrent
// use; give each worker its own (seeded differently).
type Generator struct {
	workload   Workload
	rng        *rand.Rand
	zipf       *zipfian
	inserted   int64 // keys already in the store (shared keyspace bound)
	next       int64 // next key index this worker inserts
	stride     int64
	ownInserts int64 // inserts this worker has issued (D's latest() frontier)
}

// NewGenerator creates a generator for the given workload over a store
// preloaded with `inserted` keys. Workers insert disjoint keys by (worker,
// stride) striding.
func NewGenerator(w Workload, inserted int64, worker, workers int, seed int64) *Generator {
	g := &Generator{
		workload: w,
		rng:      rand.New(rand.NewSource(seed ^ int64(worker)*0x5851F42D4C957F2D)),
		inserted: inserted,
		next:     inserted + int64(worker),
		stride:   int64(workers),
	}
	if inserted > 0 {
		g.zipf = newZipfian(inserted, 0.99, g.rng)
	}
	return g
}

// Key renders key index i in the fixed 8-byte format the paper evaluates
// (Section 3.2: 8 B keys): the index as eight lowercase hex digits, exactly
// fmt.Sprintf("%08x", uint32(i)) without the formatter on the driver's hot
// path.
func Key(i int64) []byte {
	const digits = "0123456789abcdef"
	b := make([]byte, 8)
	v := uint32(i)
	for j := 7; j >= 0; j-- {
		b[j] = digits[v&0xf]
		v >>= 4
	}
	return b
}

// Next returns the next operation.
func (g *Generator) Next() Op {
	switch g.workload {
	case Load:
		return g.insert()
	case A:
		if g.rng.Intn(100) < 50 {
			return g.read()
		}
		return g.update()
	case B:
		if g.rng.Intn(100) < 95 {
			return g.read()
		}
		return g.update()
	case C:
		return g.read()
	case D:
		if g.rng.Intn(100) < 95 {
			return Op{Kind: OpRead, Key: Key(g.latest())}
		}
		return g.insert()
	case F:
		if g.rng.Intn(100) < 50 {
			return g.read()
		}
		return Op{Kind: OpReadModifyWrite, Key: Key(g.existing())}
	default:
		return g.read()
	}
}

func (g *Generator) insert() Op {
	k := g.next
	g.next += g.stride
	g.ownInserts++
	return Op{Kind: OpInsert, Key: Key(k)}
}

func (g *Generator) read() Op   { return Op{Kind: OpRead, Key: Key(g.existing())} }
func (g *Generator) update() Op { return Op{Kind: OpUpdate, Key: Key(g.existing())} }

// existing picks an existing key: a zipfian rank remapped over the key space
// the way YCSB's ScrambledZipfianGenerator does (FNV hash of the rank, mod
// key count). Without the remap, rank r is key r — the hot head would be the
// first-inserted keys in index order, correlating popularity with insertion
// order and key bytes; scrambling spreads the hot set uniformly over the key
// space while preserving the zipfian popularity SHAPE (some key gets rank
// 0's mass, but which key is pseudo-random). The remap is seedless: every
// worker agrees on which keys are hot.
func (g *Generator) existing() int64 {
	if g.zipf == nil {
		return 0
	}
	return int64(fnv64(uint64(g.zipf.next())) % uint64(g.inserted))
}

// fnv64 is YCSB's FNVhash64: FNV-1a folded over the integer's 8 low-order
// octets.
func fnv64(v uint64) uint64 {
	const (
		offset = 0xCBF29CE484222325
		prime  = 0x100000001B3
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		v >>= 8
		h *= prime
	}
	return h
}

// latest picks a recently inserted key: zipfian distance back from the
// newest key this worker KNOWS exists — its own inserts (newest first), then
// the preloaded key space. Distances are deliberately not scrambled
// (YCSB SkewedLatestGenerator): "latest" means recency order, and remapping
// would destroy exactly the recency correlation the workload models.
func (g *Generator) latest() int64 {
	if g.zipf == nil {
		return 0
	}
	d := g.zipf.next()
	if d < g.ownInserts {
		return g.next - g.stride*(d+1)
	}
	k := g.inserted - 1 - (d - g.ownInserts)
	if k < 0 {
		k = 0
	}
	return k
}

// zipfian implements the Gray et al. incremental zipfian generator used by
// the YCSB reference implementation.
type zipfian struct {
	n       int64
	theta   float64
	alpha   float64
	zetan   float64
	eta     float64
	halfPow float64 // math.Pow(0.5, theta), hoisted off the per-draw path
	rng     *rand.Rand
}

func newZipfian(n int64, theta float64, rng *rand.Rand) *zipfian {
	z := &zipfian{n: n, theta: theta, rng: rng}
	z.zetan = zeta(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	z.halfPow = math.Pow(0.5, theta)
	return z
}

func zeta(n int64, theta float64) float64 {
	// Exact up to a cutoff, then the integral approximation: the generators
	// are created per worker per phase, so an O(n) sum at the paper's
	// billion-key scale would dominate runtime.
	const cutoff = 1 << 20
	if n <= cutoff {
		var sum float64
		for i := int64(1); i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	sum := zeta(cutoff, theta)
	// integral of x^-theta from cutoff to n
	sum += (math.Pow(float64(n), 1-theta) - math.Pow(float64(cutoff), 1-theta)) / (1 - theta)
	return sum
}

func (z *zipfian) next() int64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+z.halfPow {
		return 1
	}
	idx := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if idx >= z.n {
		idx = z.n - 1
	}
	if idx < 0 {
		idx = 0
	}
	return idx
}
