package hotcache

import (
	"fmt"
	"testing"

	"chameleondb/internal/xhash"
	"chameleondb/internal/ycsb"
)

func k(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func v(i int) []byte { return []byte(fmt.Sprintf("val-%06d", i)) }

// fill runs the miss→fill protocol for one key: a missed Get yields the
// token, Add offers the value under it.
func fill(c *Cache, key, val []byte) bool {
	_, ok, token := c.Get(key, nil)
	if ok {
		return true
	}
	return c.Add(key, val, token)
}

func TestNilCacheIsSafe(t *testing.T) {
	var c *Cache
	if c2 := New(0); c2 != nil {
		t.Fatal("New(0) should return nil (caching off)")
	}
	if c2 := New(-5); c2 != nil {
		t.Fatal("New(-5) should return nil")
	}
	if _, ok, _ := c.Get(k(1), nil); ok {
		t.Fatal("nil cache hit")
	}
	if c.Add(k(1), v(1), 0) {
		t.Fatal("nil cache admitted")
	}
	c.Invalidate(k(1))
	c.InvalidateAll()
	c.Touch(k(1))
	c.Register(nil)
	if c.Capacity() != 0 {
		t.Fatal("nil cache capacity")
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil cache stats: %+v", s)
	}
}

func TestGetAddRoundTrip(t *testing.T) {
	c := New(1 << 20)
	if _, ok, _ := c.Get(k(1), nil); ok {
		t.Fatal("hit on empty cache")
	}
	if !fill(c, k(1), v(1)) {
		t.Fatal("fill into empty cache rejected")
	}
	got, ok, _ := c.Get(k(1), nil)
	if !ok || string(got) != string(v(1)) {
		t.Fatalf("get after fill: ok=%v got=%q", ok, got)
	}
	// Append semantics: the value lands after dst's existing bytes and the
	// result must be a private copy.
	dst := []byte("prefix-")
	got, ok, _ = c.Get(k(1), dst)
	if !ok || string(got) != "prefix-"+string(v(1)) {
		t.Fatalf("append get: ok=%v got=%q", ok, got)
	}
	got[len("prefix-")] ^= 0xff
	again, _, _ := c.Get(k(1), nil)
	if string(again) != string(v(1)) {
		t.Fatal("returned value aliases cache memory")
	}
	s := c.Stats()
	if s.Hits != 3 || s.Misses != 2 || s.Admits != 1 || s.Entries != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestInvalidateRemovesAndGates(t *testing.T) {
	c := New(1 << 20)
	fill(c, k(1), v(1))
	c.Invalidate(k(1))
	if _, ok, _ := c.Get(k(1), nil); ok {
		t.Fatal("hit after invalidate")
	}

	// Version gate: a token captured before an invalidation must not admit —
	// this is the stale-fill race (engine read raced by a write).
	_, ok, token := c.Get(k(2), nil)
	if ok {
		t.Fatal("unexpected hit")
	}
	c.Invalidate(k(2)) // concurrent write lands between engine read and fill
	if c.Add(k(2), v(2), token) {
		t.Fatal("stale fill admitted past an invalidation")
	}
	if _, ok, _ := c.Get(k(2), nil); ok {
		t.Fatal("stale value resident")
	}
	if got := c.Stats().AdmitsRaced; got != 1 {
		t.Fatalf("AdmitsRaced = %d, want 1", got)
	}

	// The gate is per-shard: invalidating an unrelated key in another shard
	// must not starve fills forever. Find a key in a different shard.
	other := 0
	h2 := xhashShard(c, k(3))
	for i := 4; ; i++ {
		if xhashShard(c, k(i)) != h2 {
			other = i
			break
		}
	}
	_, _, token = c.Get(k(3), nil)
	c.Invalidate(k(other))
	if !c.Add(k(3), v(3), token) {
		t.Fatal("fill rejected by invalidation in a different shard")
	}
}

func xhashShard(c *Cache, key []byte) *shard {
	_, _, _ = c.Get(key, nil) // keep counters realistic; not required
	return c.shardFor(xhash.Sum64(key))
}

func TestInvalidateAll(t *testing.T) {
	c := New(1 << 20)
	for i := 0; i < 100; i++ {
		fill(c, k(i), v(i))
	}
	if c.Stats().Entries == 0 {
		t.Fatal("nothing admitted")
	}
	c.InvalidateAll()
	s := c.Stats()
	if s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("after InvalidateAll: %+v", s)
	}
	for i := 0; i < 100; i++ {
		if _, ok, _ := c.Get(k(i), nil); ok {
			t.Fatalf("key %d survived InvalidateAll", i)
		}
	}
}

func TestCapacityBound(t *testing.T) {
	const capacity = 64 << 10
	c := New(capacity)
	val := make([]byte, 100)
	for i := 0; i < 5000; i++ {
		fill(c, k(i), val)
	}
	s := c.Stats()
	if s.Bytes > capacity {
		t.Fatalf("resident bytes %d exceed capacity %d", s.Bytes, capacity)
	}
	if s.Evictions == 0 {
		t.Fatal("no evictions despite 5000 fills into a 64 KiB cache")
	}
	// Gauge consistency: recompute resident cost from the shards.
	var shardBytes, shardEntries int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		shardBytes += sh.bytes
		shardEntries += int64(len(sh.m))
		sh.mu.Unlock()
	}
	if shardBytes != s.Bytes || shardEntries != s.Entries {
		t.Fatalf("gauge drift: shards have %d B / %d entries, stats say %d B / %d entries",
			shardBytes, shardEntries, s.Bytes, s.Entries)
	}
}

func TestOversizedValueBypasses(t *testing.T) {
	c := New(64 << 10) // 1 KiB per shard, max entry ~256 B
	big := make([]byte, 512)
	_, _, token := c.Get(k(1), nil)
	if c.Add(k(1), big, token) {
		t.Fatal("oversized value admitted")
	}
	if c.Stats().AdmitsRejected != 1 {
		t.Fatal("oversized rejection not counted")
	}
}

// TestAdmissionProtectsHotKeys is the TinyLFU property: a stream of
// one-hit-wonder keys must not churn frequently-accessed keys out of a full
// cache.
func TestAdmissionProtectsHotKeys(t *testing.T) {
	c := New(256 << 10)
	val := make([]byte, 64)
	const hot = 64
	// Establish the hot set: admit, then re-hit so each is promoted to the
	// protected segment and its sketch frequency clearly beats a cold key's.
	for round := 0; round < 10; round++ {
		for i := 0; i < hot; i++ {
			fill(c, k(i), val)
		}
	}
	for i := 0; i < hot; i++ {
		if _, ok, _ := c.Get(k(i), nil); !ok {
			t.Fatalf("hot key %d not resident before flood", i)
		}
	}
	// Flood with one-hit wonders — enough to overflow capacity many times.
	for i := 10000; i < 30000; i++ {
		fill(c, k(i), val)
	}
	lost := 0
	for i := 0; i < hot; i++ {
		if _, ok, _ := c.Get(k(i), nil); !ok {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("cold flood evicted %d/%d hot keys", lost, hot)
	}
}

func TestHitRatio(t *testing.T) {
	c := New(1 << 20)
	fill(c, k(1), v(1)) // one miss
	c.Get(k(1), nil)    // one hit
	c.Get(k(1), nil)    // two
	c.Get(k(1), nil)    // three
	if r := c.Stats().HitRatio(); r != 0.75 {
		t.Fatalf("hit ratio = %v, want 0.75", r)
	}
	if (Stats{}).HitRatio() != 0 {
		t.Fatal("idle hit ratio should be 0")
	}
}

func TestSketchCountersAndHalve(t *testing.T) {
	var s sketch
	s.init(1024)
	h := xhash.Sum64([]byte("x"))
	for i := 0; i < 40; i++ {
		s.increment(h)
	}
	if got := s.estimate(h); got != 15 {
		t.Fatalf("estimate after 40 increments = %d, want cap 15", got)
	}
	s.halve()
	if got := s.estimate(h); got != 7 {
		t.Fatalf("estimate after halve = %d, want 7", got)
	}
	if got := s.estimate(xhash.Sum64([]byte("never-seen-key-zzz"))); got > 2 {
		t.Fatalf("cold key estimate = %d, want ~0", got)
	}
}

func TestDoorkeeper(t *testing.T) {
	var d doorkeeper
	d.init(4096)
	h := xhash.Sum64([]byte("y"))
	if d.contains(h) {
		t.Fatal("empty doorkeeper contains key")
	}
	d.add(h)
	if !d.contains(h) {
		t.Fatal("doorkeeper lost key")
	}
	d.clear()
	if d.contains(h) {
		t.Fatal("doorkeeper survived clear")
	}
}

// TestZipfianHitRatioFloor pins what admission plus eviction keep resident
// under the skew the cache was built for: 200 k keys, room for a fifth of
// them at 80 B an entry, YCSB-C's scrambled zipfian (theta 0.99). Stream,
// scramble and sketch are all seeded, so both ratios repeat exactly; a drop
// means admission stopped keeping the hot head or eviction started churning
// it. The first floor is the retired `ycsb` experiment's gate at its own
// shape — a warm-up pass, then one seeded 150 k-op stream three times over —
// and its 0.95 owes the last 0.06 to the replay. The second is what a server
// would see: 450 k draws never seen before hit 0.888.
func TestZipfianHitRatioFloor(t *testing.T) {
	const keys = 200_000
	c := New(keys / 5 * 80)
	val := make([]byte, 8)
	// pass runs n lookups of the seeded stream and returns their hit ratio.
	pass := func(seed int64, n int) float64 {
		before := c.Stats()
		gen := ycsb.NewGenerator(ycsb.C, keys, 0, 1, seed)
		for i := 0; i < n; i++ {
			fill(c, gen.Next().Key, val)
		}
		after := c.Stats()
		hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
		if hits+misses != int64(n) {
			t.Fatalf("%d hits + %d misses over %d lookups", hits, misses, n)
		}
		return float64(hits) / float64(n)
	}
	pass(2, 150_000)
	var replayed float64
	for r := 0; r < 3; r++ {
		replayed += pass(1, 150_000) / 3
	}
	fresh := pass(3, 450_000)
	t.Logf("hit ratio: replayed %.4f, fresh %.4f", replayed, fresh)
	if replayed < 0.90 {
		t.Errorf("zipfian hit ratio %.4f over the replayed stream, want >= 0.90", replayed)
	}
	if fresh < 0.87 {
		t.Errorf("zipfian hit ratio %.4f over fresh draws, want >= 0.87", fresh)
	}
}
