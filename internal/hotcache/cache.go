// Package hotcache is a DRAM front-end read cache for the persistent-memory
// engine: a sharded, byte-capacity-bounded key→value cache with TinyLFU-style
// frequency admission (count-min sketch behind a doorkeeper bloom) over
// segmented-LRU eviction, and strict invalidation on write.
//
// The design target is the zipfian head of a skewed workload ("Observations
// on Porting In-memory KV stores to Persistent Memory", PAPERS.md): PM reads
// are several times slower than DRAM, so absorbing the hottest few percent of
// keys in DRAM removes most of the engine's read work. Admission control is
// what makes a small cache effective under scans and one-hit-wonder floods:
// a key only displaces a resident victim when its estimated access frequency
// is higher, so the hot head cannot be churned out by the cold tail.
//
// Correctness contract: a cache hit must be indistinguishable from an engine
// read ordered at some point since the key's last local write. Two rules
// enforce it:
//
//   - Every write path that can change a key invalidates it AFTER the engine
//     write has been applied (so a later miss re-reads the new value), and
//     before the write is acknowledged to the client.
//   - A miss-fill is version-gated: Get returns a per-shard version token
//     captured before the engine read, and Add admits only if no invalidation
//     touched the shard in between. A concurrent writer can therefore never
//     lose its invalidation to an in-flight fill that read the old value.
//
// The cache is volatile by construction: Crash/recovery paths call
// InvalidateAll and restart cold, so nothing read after recovery can come
// from pre-crash DRAM state.
//
// All methods are safe for concurrent use and safe on a nil *Cache (misses
// and no-ops), so call sites need no "is caching on" branches.
package hotcache

import (
	"sync"
	"sync/atomic"

	"chameleondb/internal/obs"
	"chameleondb/internal/xhash"
)

const (
	// shardCount spreads lock contention; must be a power of two.
	shardCount = 64
	// entryOverhead is the accounted per-entry bookkeeping cost (map slot,
	// entry struct, list links) added to len(key)+len(value).
	entryOverhead = 64
	// protectedFrac is the fraction of a shard's capacity reserved for the
	// protected segment (entries with at least two hits).
	protectedFracNum, protectedFracDen = 4, 5
	// sampleFactor: the admission filter's frequency sample is reset (halved)
	// after this many lookups per shard, keeping the sketch an estimate of
	// *recent* popularity.
	sampleSize = 16384
)

// segment identifiers for entry placement.
const (
	segProbation = iota
	segProtected
)

// entryInline is the in-struct key+value storage. Pairs that fit produce NO
// per-entry heap allocations: under write-invalidation churn an allocating
// cache fragments its working set across the heap and its hit path slowly
// accretes cache and TLB misses (measured: ~40% slower hits after a few
// million invalidate/admit cycles). Inline entries recycled through the
// shard's freelist keep the resident set on the same pages for the cache's
// lifetime. Larger pairs spill to the heap and are still correct, just not
// allocation-free. 128 covers YCSB-style ~100 B records with small keys;
// measured at value-size 100, the spill path cost the cache its entire win.
const entryInline = 128

// entry is one resident key. Entries are intrusive doubly-linked list nodes
// owned by their shard and recycled through its freelist; key and value are
// private copies held inline when they fit, in the spill slices otherwise.
type entry struct {
	prev, next *entry
	hash       uint64 // shard-selection hash of the key; avoids rehashing on eviction
	spill      []byte // heap key+value when the pair outgrows kv; nil otherwise
	klen, vlen uint32
	seg        uint8
	kv         [entryInline]byte
}

func (e *entry) keyBytes() []byte {
	if e.spill != nil {
		return e.spill[:e.klen]
	}
	return e.kv[:e.klen]
}

func (e *entry) valBytes() []byte {
	if e.spill != nil {
		return e.spill[e.klen : int(e.klen)+int(e.vlen)]
	}
	return e.kv[e.klen : int(e.klen)+int(e.vlen)]
}

// keyEqual reports whether this entry holds key (entries are looked up by
// hash; the stored bytes are the identity check, like the engine's own
// collision fallback).
func (e *entry) keyEqual(key []byte) bool {
	return int(e.klen) == len(key) && string(e.keyBytes()) == string(key)
}

// set stores the pair, reusing the inline buffer or sizing the spill slice.
func (e *entry) set(key, value []byte) {
	e.klen = uint32(len(key))
	e.vlen = uint32(len(value))
	n := len(key) + len(value)
	if n <= entryInline {
		e.spill = nil
		copy(e.kv[:], key)
		copy(e.kv[len(key):], value)
		return
	}
	if cap(e.spill) < n {
		e.spill = make([]byte, n)
	}
	e.spill = e.spill[:n]
	copy(e.spill, key)
	copy(e.spill[len(key):], value)
}

func (e *entry) cost() int64 { return int64(e.klen) + int64(e.vlen) + entryOverhead }

// list is an intrusive LRU list with a sentinel root: root.next is MRU,
// root.prev is LRU.
type list struct{ root entry }

func (l *list) init() {
	l.root.next = &l.root
	l.root.prev = &l.root
}

func (l *list) pushFront(e *entry) {
	e.prev = &l.root
	e.next = l.root.next
	e.next.prev = e
	l.root.next = e
}

func (l *list) remove(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (l *list) back() *entry {
	if l.root.prev == &l.root {
		return nil
	}
	return l.root.prev
}

// shard is one lock domain: a hash slice of the key space with its own LRU
// segments, frequency sketch, and invalidation version.
//
// The index maps the key's 64-bit hash to its entry; the entry's stored key
// bytes are the identity check. Two live keys colliding on all 64 bits would
// contend for one slot (the second stays uncacheable while the first is
// resident) — a miss, never a wrong value. Hash keys keep the map free of
// string headers and key allocations.
type shard struct {
	mu sync.Mutex

	m         map[uint64]*entry
	probation list
	protected list
	free      *entry // freelist of recycled entries, linked through next

	bytes     int64 // total accounted cost of resident entries
	protBytes int64 // accounted cost of the protected segment

	version uint64 // bumped by every invalidation that touches this shard

	freq    sketch
	door    doorkeeper
	samples int

	cap      int64
	protCap  int64
	maxEntry int64
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	Hits           int64
	Misses         int64
	Admits         int64
	AdmitsRejected int64 // rejected by frequency admission (victim was hotter)
	AdmitsRaced    int64 // rejected by the version gate (invalidated mid-fill)
	Evictions      int64
	Invalidations  int64
	Bytes          int64
	Entries        int64
	Capacity       int64
}

// HitRatio returns hits/(hits+misses), 0 when idle.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is the sharded hot-key cache. Create with New; nil is a valid
// "caching disabled" cache.
type Cache struct {
	shards [shardCount]shard
	cap    int64

	hits           atomic.Int64
	misses         atomic.Int64
	admits         atomic.Int64
	admitsRejected atomic.Int64
	admitsRaced    atomic.Int64
	evictions      atomic.Int64
	invalidations  atomic.Int64
	bytes          atomic.Int64
	entries        atomic.Int64
}

// New creates a cache bounded at capacityBytes of accounted entry cost.
// capacityBytes <= 0 returns nil (caching off), which every method accepts.
func New(capacityBytes int64) *Cache {
	if capacityBytes <= 0 {
		return nil
	}
	c := &Cache{cap: capacityBytes}
	perShard := capacityBytes / shardCount
	if perShard < 1 {
		perShard = 1
	}
	// The sketch tracks roughly the keys that could be resident; 128 B is a
	// conservative mean entry cost for sizing only.
	counters := nextPow2(uint64(perShard/32) + 256)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.m = make(map[uint64]*entry)
		sh.probation.init()
		sh.protected.init()
		sh.cap = perShard
		sh.protCap = perShard * protectedFracNum / protectedFracDen
		// One entry may not monopolize a shard: oversized values bypass the
		// cache entirely rather than evicting the whole hot set.
		sh.maxEntry = perShard / 4
		if sh.maxEntry < 1 {
			sh.maxEntry = 1
		}
		sh.freq.init(counters)
		sh.door.init(counters * 8)
	}
	return c
}

// Capacity returns the configured byte bound (0 for a nil cache).
func (c *Cache) Capacity() int64 {
	if c == nil {
		return 0
	}
	return c.cap
}

func (c *Cache) shardFor(h uint64) *shard { return &c.shards[h&(shardCount-1)] }

// Get looks key up, appending the cached value to dst on a hit (strconv.Append
// style: the result never aliases cache-internal memory). The returned token
// is the key's shard invalidation version, to be passed to Add if the caller
// fills the cache from an engine read: capture the token BEFORE the engine
// read, i.e. use this Get's token.
//
// Every lookup — hit or miss — feeds the admission filter's frequency sketch,
// so a key becomes admittable by being asked for, not by being admitted.
func (c *Cache) Get(key, dst []byte) (val []byte, ok bool, token uint64) {
	if c == nil {
		return dst, false, 0
	}
	h := xhash.Sum64(key)
	sh := c.shardFor(h)
	sh.mu.Lock()
	sh.sample(xhash.Uint64(h))
	token = sh.version
	e := sh.m[h]
	if e == nil || !e.keyEqual(key) {
		sh.mu.Unlock()
		c.misses.Add(1)
		return dst, false, token
	}
	// Segmented LRU: a probation hit promotes to protected (evidence of
	// reuse); a protected hit refreshes recency. Promotion may push the
	// protected tail back to probation to respect the segment budget.
	switch e.seg {
	case segProbation:
		sh.probation.remove(e)
		e.seg = segProtected
		sh.protected.pushFront(e)
		sh.protBytes += e.cost()
		for sh.protBytes > sh.protCap {
			d := sh.protected.back()
			if d == nil {
				break
			}
			sh.protected.remove(d)
			d.seg = segProbation
			sh.probation.pushFront(d)
			sh.protBytes -= d.cost()
		}
	default:
		// Refresh recency, skipping the splice when the entry is already MRU
		// — under a zipfian head that is the common case on the hot path.
		if sh.protected.root.next != e {
			sh.protected.remove(e)
			sh.protected.pushFront(e)
		}
	}
	dst = append(dst, e.valBytes()...)
	sh.mu.Unlock()
	c.hits.Add(1)
	return dst, true, token
}

// Touch feeds key into the frequency sketch without a lookup. Write paths use
// it so heavily written keys build admission pressure too.
func (c *Cache) Touch(key []byte) {
	if c == nil {
		return
	}
	h := xhash.Sum64(key)
	sh := c.shardFor(h)
	sh.mu.Lock()
	sh.sample(xhash.Uint64(h))
	sh.mu.Unlock()
}

// sample records one access for the admission filter, resetting the sample
// window when it fills. m is the pre-mixed key hash (xhash.Uint64 of the
// shard hash) from which sketch and doorkeeper cut their positions. Callers
// hold sh.mu.
func (sh *shard) sample(m uint64) {
	if sh.door.contains(m) {
		sh.freq.increment(m)
	} else {
		sh.door.add(m)
	}
	sh.samples++
	if sh.samples >= sampleSize {
		sh.samples = 0
		sh.freq.halve()
		sh.door.clear()
	}
}

// estimate is the admission-time popularity of pre-mixed hash m. Callers
// hold sh.mu.
func (sh *shard) estimate(m uint64) uint32 {
	f := sh.freq.estimate(m)
	if sh.door.contains(m) {
		f++
	}
	return f
}

// Add offers (key, value) for admission after an engine read. token must be
// the one returned by the Get (miss) that preceded the engine read; if any
// invalidation has touched the shard since, the fill is dropped — the engine
// value may predate a concurrent write. Admission is frequency-controlled:
// when the shard is full, the candidate must beat the probation-tail victim's
// estimated frequency to displace it. Returns whether the entry is resident.
func (c *Cache) Add(key, value []byte, token uint64) bool {
	if c == nil {
		return false
	}
	h := xhash.Sum64(key)
	sh := c.shardFor(h)
	cost := int64(len(key)) + int64(len(value)) + entryOverhead
	if cost > sh.maxEntry {
		c.admitsRejected.Add(1)
		return false
	}
	sh.mu.Lock()
	if sh.version != token {
		sh.mu.Unlock()
		c.admitsRaced.Add(1)
		return false
	}
	if e := sh.m[h]; e != nil {
		// A racing fill (or a re-read) already admitted the key: the version
		// gate held for both fills, so both values are current reads of an
		// unchanged key; keep the resident one. A full-hash collision also
		// lands here — the slot is taken, so the candidate is not cacheable.
		// Compare under the lock: once it drops, an eviction can recycle e.
		same := e.keyEqual(key)
		sh.mu.Unlock()
		return same
	}
	// Make room: the candidate competes with the probation tail. A candidate
	// colder than the victim it must displace is rejected — TinyLFU's
	// scan/one-hit-wonder resistance. (When several victims are needed,
	// eviction proceeds victim by victim and stops — candidate rejected — the
	// moment one victim out-ranks the candidate, like Caffeine's policy.)
	candFreq := sh.estimate(xhash.Uint64(h))
	var evicted, freed int64
	admitted := true
	for sh.bytes+cost > sh.cap {
		victim := sh.probation.back()
		if victim == nil {
			victim = sh.protected.back()
		}
		if victim == nil {
			break
		}
		if sh.estimate(xhash.Uint64(victim.hash)) > candFreq {
			admitted = false
			break
		}
		vcost := victim.cost()
		sh.unlink(victim)
		evicted++
		freed += vcost
	}
	if admitted {
		e := sh.alloc()
		e.hash = h
		e.seg = segProbation
		e.set(key, value)
		sh.m[h] = e
		sh.probation.pushFront(e)
		sh.bytes += cost
	}
	sh.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
		c.bytes.Add(-freed)
		c.entries.Add(-evicted)
	}
	if !admitted {
		c.admitsRejected.Add(1)
		return false
	}
	c.admits.Add(1)
	c.bytes.Add(cost)
	c.entries.Add(1)
	return true
}

// alloc returns a recycled entry from the freelist, or a fresh one.
// Callers hold sh.mu.
func (sh *shard) alloc() *entry {
	if e := sh.free; e != nil {
		sh.free = e.next
		e.next = nil
		return e
	}
	return &entry{}
}

// unlink removes e from its segment and the map, adjusts shard accounting,
// and recycles the entry onto the freelist. e must not be used afterwards.
// Callers hold sh.mu and own the cache-level counter and gauge updates.
func (sh *shard) unlink(e *entry) {
	cost := e.cost()
	if e.seg == segProtected {
		sh.protected.remove(e)
		sh.protBytes -= cost
	} else {
		sh.probation.remove(e)
	}
	delete(sh.m, e.hash)
	sh.bytes -= cost
	// Oversized spill buffers would pin their worst-case allocation forever;
	// recycle modest ones, drop the rest to the garbage collector.
	if cap(e.spill) > 4*entryInline {
		e.spill = nil
	}
	e.prev = nil
	e.next = sh.free
	sh.free = e
}

// Invalidate removes key and bumps the shard's version so any in-flight fill
// that read the engine before this point can no longer be admitted. Call it
// after the engine write has been applied and before the write is
// acknowledged.
func (c *Cache) Invalidate(key []byte) {
	if c == nil {
		return
	}
	h := xhash.Sum64(key)
	sh := c.shardFor(h)
	sh.mu.Lock()
	sh.version++
	if e := sh.m[h]; e != nil && e.keyEqual(key) {
		cost := e.cost()
		sh.unlink(e)
		c.bytes.Add(-cost)
		c.entries.Add(-1)
	}
	sh.mu.Unlock()
	c.invalidations.Add(1)
}

// InvalidateAll empties the cache and bumps every shard's version: used by
// FLUSHALL, crash/recovery (the cache is volatile; recovery starts cold), and
// full-resync store resets.
func (c *Cache) InvalidateAll() {
	if c == nil {
		return
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.version++
		n := int64(len(sh.m))
		sh.m = make(map[uint64]*entry)
		sh.probation.init()
		sh.protected.init()
		sh.free = nil
		c.bytes.Add(-sh.bytes)
		sh.bytes = 0
		sh.protBytes = 0
		sh.mu.Unlock()
		c.entries.Add(-n)
		c.invalidations.Add(n)
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Admits:         c.admits.Load(),
		AdmitsRejected: c.admitsRejected.Load(),
		AdmitsRaced:    c.admitsRaced.Load(),
		Evictions:      c.evictions.Load(),
		Invalidations:  c.invalidations.Load(),
		Bytes:          c.bytes.Load(),
		Entries:        c.entries.Load(),
		Capacity:       c.cap,
	}
}

// Register wires the cache's counters into an obs registry under hotcache_*
// names, so /stats.json, /metrics, and INFO all read the same atomics.
func (c *Cache) Register(r *obs.Registry) {
	if c == nil || r == nil {
		return
	}
	r.CounterFunc("hotcache_hits", c.hits.Load)
	r.CounterFunc("hotcache_misses", c.misses.Load)
	r.CounterFunc("hotcache_admits", c.admits.Load)
	r.CounterFunc("hotcache_admits_rejected", c.admitsRejected.Load)
	r.CounterFunc("hotcache_admits_raced", c.admitsRaced.Load)
	r.CounterFunc("hotcache_evictions", c.evictions.Load)
	r.CounterFunc("hotcache_invalidations", c.invalidations.Load)
	r.GaugeFunc("hotcache_bytes", c.bytes.Load)
	r.GaugeFunc("hotcache_entries", c.entries.Load)
}

func nextPow2(v uint64) uint64 {
	if v == 0 {
		return 1
	}
	v--
	v |= v >> 1
	v |= v >> 2
	v |= v >> 4
	v |= v >> 8
	v |= v >> 16
	v |= v >> 32
	return v + 1
}
