package main

import (
	"encoding/binary"
	"math"
)

// The load generator is a private copy (not internal/ycsb): later changes to
// that package must not be able to move the instrument. Everything the
// program under test sees is derived from --seed here.

// rng is splitmix64: tiny, seedable, and good enough for key choice.
type rng struct{ s uint64 }

func newRng(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform integer in [0, n).
func (r *rng) intn(n uint32) uint32 { return uint32((r.next() >> 32) * uint64(n) >> 32) }

// zipfian is the Gray et al. generator YCSB uses: rank 0 is the hottest.
type zipfian struct {
	n       float64
	alpha   float64
	zetan   float64
	eta     float64
	halfPow float64
}

const zipfTheta = 0.99

func newZipfian(n int) *zipfian {
	zeta := func(n int) float64 {
		var sum float64
		for i := 1; i <= n; i++ {
			sum += 1 / math.Pow(float64(i), zipfTheta)
		}
		return sum
	}
	z := &zipfian{n: float64(n), zetan: zeta(n)}
	z.alpha = 1 / (1 - zipfTheta)
	z.eta = (1 - math.Pow(2/z.n, 1-zipfTheta)) / (1 - zeta(2)/z.zetan)
	z.halfPow = math.Pow(0.5, zipfTheta)
	return z
}

// rank draws a popularity rank in [0, n).
func (z *zipfian) rank(r *rng) uint32 {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.halfPow {
		return 1
	}
	idx := z.n * math.Pow(z.eta*u-z.eta+1, z.alpha)
	if idx >= z.n {
		idx = z.n - 1
	}
	return uint32(idx)
}

// scramble spreads ranks over the keyspace (YCSB's ScrambledZipfian): the
// popularity shape is kept, the hot keys are not neighbours.
func scramble(rank uint32, keys int) uint32 {
	h := uint64(14695981039346656037)
	for i := 0; i < 4; i++ {
		h ^= uint64(rank >> (8 * i) & 0xff)
		h *= 1099511628211
	}
	return uint32(h % uint64(keys))
}

// opWrite marks a write in an op stream; the low 31 bits are the key index.
const opWrite = 1 << 31

// genOps pre-generates one client's op stream as compact uint32s, so the
// generator's heap is 4 bytes per op and holds no pointers for the server's
// GC to trace. A write by client w only targets keys = w (mod clients): each
// key has one writer, which makes the final state exact.
func genOps(spec *workloadSpec, n int, seed uint64, client int, z *zipfian) []uint32 {
	r := newRng(seed)
	ops := make([]uint32, n)
	for i := range ops {
		var k uint32
		if spec.Zipfian {
			k = scramble(z.rank(r), spec.Keys)
		} else {
			k = r.intn(uint32(spec.Keys))
		}
		if spec.WritePerMille > 0 && int(r.intn(1000)) < spec.WritePerMille {
			k -= k % clients
			k += uint32(client)
			if int(k) >= spec.Keys {
				k -= clients
			}
			k |= opWrite
		}
		ops[i] = k
	}
	return ops
}

// putKey renders key index i as eight lowercase hex digits into dst[:8].
func putKey(dst []byte, i uint32) {
	const digits = "0123456789abcdef"
	for j := keyLen - 1; j >= 0; j-- {
		dst[j] = digits[i&0xf]
		i >>= 4
	}
}

// putValue encodes the 8-byte value: key index then per-key version.
func putValue(dst []byte, i, version uint32) {
	binary.LittleEndian.PutUint32(dst[0:4], i)
	binary.LittleEndian.PutUint32(dst[4:8], version)
}

// valueParts decodes a value; ok is false when it is not 8 bytes.
func valueParts(v []byte) (i, version uint32, ok bool) {
	if len(v) != valLen {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint32(v[0:4]), binary.LittleEndian.Uint32(v[4:8]), true
}
