package server

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"chameleondb/internal/hotcache"
	"chameleondb/internal/resp"
)

// TestCacheOnWire serves with Config.Cache set and checks the cache's
// contract from the client's side of the socket: a hit is indistinguishable
// from an engine read, because every command that writes a key invalidates
// it before the ack, and FLUSHALL empties the cache without losing data.
func TestCacheOnWire(t *testing.T) {
	s, addr := startServer(t, nil, Config{Cache: hotcache.New(1 << 20)})
	c := dialT(t, addr)
	do := func(check func(resp.Reply) error, args ...string) {
		t.Helper()
		rep, err := c.DoStrings(args...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if err := check(rep); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	counter := func(name string) int64 { return s.Registry().Snapshot().Counters[name] }
	// warm reads k twice — a miss that fills, then a hit — so the next write
	// has a resident entry to invalidate.
	warm := func(k, want string) {
		t.Helper()
		do(expectBulk(want), "GET", k)
		hits := counter("hotcache_hits")
		do(expectBulk(want), "GET", k)
		if got := counter("hotcache_hits") - hits; got != 1 {
			t.Fatalf("repeated GET %s moved hotcache_hits by %d, want 1", k, got)
		}
	}

	do(expectSimple("OK"), "SET", "k", "v1")
	warm("k", "v1")
	do(expectSimple("OK"), "SET", "k", "v2")
	warm("k", "v2")

	// SET and GET of one key inside one pipelined batch: the GET runs after
	// the SET's invalidation, before either reply moves.
	c.SendStrings("SET", "k", "v3")
	c.SendStrings("GET", "k")
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, check := range []func(resp.Reply) error{expectSimple("OK"), expectBulk("v3")} {
		rep, err := c.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if err := check(rep); err != nil {
			t.Fatalf("pipelined SET+GET: %v", err)
		}
	}

	warm("k", "v3")
	do(expectInt(1), "DEL", "k")
	do(expectNull(), "GET", "k")

	do(expectSimple("OK"), "SET", "n", "10")
	warm("n", "10")
	do(expectInt(11), "INCR", "n")
	do(expectBulk("11"), "GET", "n")

	do(expectSimple("OK"), "MSET", "a", "1", "b", "2")
	warm("a", "1")
	warm("b", "2")
	do(expectSimple("OK"), "MSET", "a", "one", "b", "two")
	do(func(r resp.Reply) error {
		if len(r.Array) != 2 {
			return fmt.Errorf("got %+v, want 2 elements", r)
		}
		if err := expectBulk("one")(r.Array[0]); err != nil {
			return err
		}
		return expectBulk("two")(r.Array[1])
	}, "MGET", "a", "b")

	warm("a", "one")
	do(expectSimple("OK"), "FLUSHALL")
	if got := s.Registry().Snapshot().Gauges["hotcache_entries"]; got != 0 {
		t.Fatalf("hotcache_entries = %d after FLUSHALL, want 0", got)
	}
	do(expectBulk("one"), "GET", "a")
}

// TestCacheOnWireConcurrent runs four connections over eight shared counters
// with the cache on (under -race in CI). INCR is atomic in the engine, so a
// counter only grows: a GET that reads less than a value this connection has
// already been shown — by its own INCR's reply or an earlier GET — was served
// a stale entry some write failed to invalidate.
func TestCacheOnWireConcurrent(t *testing.T) {
	s, addr := startServer(t, nil, Config{Cache: hotcache.New(1 << 20)})
	const (
		conns = 4
		keys  = 8
		ops   = 2000
	)
	var wg sync.WaitGroup
	for id := 0; id < conns; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := resp.Dial(addr, 5*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(time.Minute))
			var floor [keys]int64
			rng := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < ops; i++ {
				k := rng.Intn(keys)
				key := "ctr" + strconv.Itoa(k)
				if rng.Intn(8) == 0 {
					rep, err := c.DoStrings("INCR", key)
					if err != nil || rep.Type != resp.TypeInt {
						t.Errorf("conn %d INCR %s: %+v, %v", id, key, rep, err)
						return
					}
					floor[k] = max(floor[k], rep.Int)
					continue
				}
				rep, err := c.DoStrings("GET", key)
				if err != nil {
					t.Errorf("conn %d GET %s: %v", id, key, err)
					return
				}
				var got int64
				if !rep.Null {
					if got, err = strconv.ParseInt(rep.Text(), 10, 64); err != nil {
						t.Errorf("conn %d GET %s = %+v", id, key, rep)
						return
					}
				}
				if got < floor[k] {
					t.Errorf("conn %d GET %s = %d after seeing %d: stale cache entry", id, key, got, floor[k])
					return
				}
				floor[k] = got
			}
		}(id)
	}
	wg.Wait()
	if hits := s.Registry().Snapshot().Counters["hotcache_hits"]; hits == 0 {
		t.Error("the cache served no hit: the test did not exercise it")
	}
}
