package server

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"chameleondb/internal/core"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/resp"
	"chameleondb/internal/simclock"
)

// failStore wraps a real store with sessions that error on the key "boom" —
// the stub behind the wire's error-path tests. It injects the error through
// the ServingSession methods the server calls, so those tests run the code
// that serves.
type failStore struct {
	kvstore.Store
}

type failSession struct {
	kvstore.ServingSession
}

var errBoom = errors.New("injected store failure")

func (s *failStore) NewSession(c *simclock.Clock) kvstore.Session {
	return &failSession{s.Store.NewSession(c).(kvstore.ServingSession)}
}

func (se *failSession) GetInto(key, dst []byte) ([]byte, bool, error) {
	if string(key) == "boom" {
		return dst, false, errBoom
	}
	return se.ServingSession.GetInto(key, dst)
}

// PutBatch applies every pair but boom's and then fails: the applied subset
// the BatchWriter contract allows on error.
func (se *failSession) PutBatch(keys, values [][]byte) error {
	var ks, vs [][]byte
	for i, k := range keys {
		if string(k) != "boom" {
			ks, vs = append(ks, k), append(vs, values[i])
		}
	}
	if err := se.ServingSession.PutBatch(ks, vs); err != nil || len(ks) == len(keys) {
		return err
	}
	return errBoom
}

func (se *failSession) DeleteIfPresent(key []byte) (bool, error) {
	if string(key) == "boom" {
		return false, errBoom
	}
	return se.ServingSession.DeleteIfPresent(key)
}

func (se *failSession) IncrBy(key []byte, delta int64) (int64, error) {
	if string(key) == "boom" {
		return 0, errBoom
	}
	return se.ServingSession.IncrBy(key, delta)
}

func startFailServer(t testing.TB) (*core.Store, string) {
	t.Helper()
	st, err := core.Open(core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	_, addr := startServer(t, &failStore{Store: st}, Config{})
	return st, addr
}

// TestMGetMSetWire covers the multi-key commands' happy paths over the wire.
func TestMGetMSetWire(t *testing.T) {
	_, addr := startServer(t, nil, Config{})
	c := dialT(t, addr)

	rep, err := c.DoStrings("MSET", "m1", "v1", "m2", "v2", "m3", "v3")
	if err != nil || rep.Text() != "OK" {
		t.Fatalf("MSET = %+v, %v", rep, err)
	}
	rep, err = c.DoStrings("MGET", "m1", "missing", "m3")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Type != resp.TypeArray || len(rep.Array) != 3 {
		t.Fatalf("MGET reply = %+v", rep)
	}
	if string(rep.Array[0].Str) != "v1" || !rep.Array[1].Null || string(rep.Array[2].Str) != "v3" {
		t.Fatalf("MGET values = %+v", rep.Array)
	}
	// Odd arity refuses without touching the store.
	rep, err = c.DoStrings("MSET", "m4", "v4", "orphan")
	if err != nil || rep.Type != resp.TypeError {
		t.Fatalf("odd MSET = %+v, %v", rep, err)
	}
	if _, ok, _ := c.Get([]byte("m4")); ok {
		t.Fatal("odd-arity MSET wrote its prefix")
	}
}

// TestMGetErrorSingleFrame: a store error mid-MGET must yield exactly one
// -ERR frame with no partial array in front of it — the pipelined reply
// stream stays frame-aligned and the connection keeps serving.
func TestMGetErrorSingleFrame(t *testing.T) {
	_, addr := startFailServer(t)
	c := dialT(t, addr)
	if err := c.Set([]byte("ok1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Pipeline: the failing MGET, then a PING. If the server leaked array
	// frames before the error, the PING reply would misparse.
	c.SendStrings("MGET", "ok1", "boom", "ok1")
	c.SendStrings("PING")
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Type != resp.TypeError || !strings.Contains(string(rep.Str), "injected store failure") {
		t.Fatalf("MGET with failing key = %+v, want single -ERR", rep)
	}
	rep, err = c.Receive()
	if err != nil || rep.Text() != "PONG" {
		t.Fatalf("PING after failed MGET = %+v, %v", rep, err)
	}
}

// TestMSetErrorSingleFrame: same contract for MSET. The failed PutBatch may
// leave an applied subset (documented deviation from Redis's atomic MSET,
// DESIGN.md §7), but the reply is one -ERR and the batch stays dirty: every
// pair a later GET sees as applied was committed with it and survives a
// crash.
func TestMSetErrorSingleFrame(t *testing.T) {
	st, addr := startFailServer(t)
	c := dialT(t, addr)
	c.SendStrings("MSET", "pre", "p1", "boom", "x", "post", "p2")
	c.SendStrings("PING")
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Receive()
	if err != nil || rep.Type != resp.TypeError || !strings.Contains(string(rep.Str), "injected store failure") {
		t.Fatalf("failing MSET = %+v, %v", rep, err)
	}
	if rep2, err := c.Receive(); err != nil || rep2.Text() != "PONG" {
		t.Fatalf("PING after failed MSET = %+v, %v", rep2, err)
	}
	applied := make(map[string]string)
	for k, v := range map[string]string{"pre": "p1", "post": "p2"} {
		got, ok, err := c.Get([]byte(k))
		if err != nil {
			t.Fatal(err)
		}
		if ok && string(got) != v {
			t.Fatalf("GET %s after failed MSET = %q, want %q", k, got, v)
		}
		if ok {
			applied[k] = v
		}
	}
	if len(applied) == 0 {
		t.Fatal("no pair applied: the stub applies every pair but boom's, so this check would be vacuous")
	}
	st.Crash()
	if err := st.Recover(simclock.New(0)); err != nil {
		t.Fatal(err)
	}
	se := st.NewSession(simclock.New(0))
	for k, v := range applied {
		if got, ok, err := se.Get([]byte(k)); err != nil || !ok || string(got) != v {
			t.Fatalf("post-crash %s = %q,%v,%v; want %q (applied before the -ERR, so committed)", k, got, ok, err, v)
		}
	}
}

// TestStoreErrorSingleFrame: a store error in DEL or INCRBY is one -ERR
// frame; the PING pipelined behind it still parses and the connection keeps
// serving.
func TestStoreErrorSingleFrame(t *testing.T) {
	_, addr := startFailServer(t)
	for _, cmd := range [][]string{
		{"DEL", "ok1", "boom", "ok2"},
		{"INCRBY", "boom", "5"},
	} {
		t.Run(cmd[0], func(t *testing.T) {
			c := dialT(t, addr)
			if err := c.Set([]byte("ok1"), []byte("v1")); err != nil {
				t.Fatal(err)
			}
			c.SendStrings(cmd...)
			c.SendStrings("PING")
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			rep, err := c.Receive()
			if err != nil || rep.Type != resp.TypeError || !strings.Contains(string(rep.Str), "injected store failure") {
				t.Fatalf("%v = %+v, %v; want one -ERR", cmd, rep, err)
			}
			if rep2, err := c.Receive(); err != nil || rep2.Text() != "PONG" {
				t.Fatalf("PING after failed %s = %+v, %v", cmd[0], rep2, err)
			}
			if err := c.Ping(); err != nil {
				t.Fatalf("connection dead after failed %s: %v", cmd[0], err)
			}
		})
	}
}

// FuzzMGetFraming pipelines a fuzz-chosen MGET (keys drawn from a set that
// includes the failing key) followed by a PING: whatever the mix, the reply
// stream must parse frame-for-frame and end in PONG.
func FuzzMGetFraming(f *testing.F) {
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{3, 3, 3})
	f.Add([]byte{1, 3, 1, 3, 0})

	_, addr := startFailServer(f)
	seed := dialT(f, addr)
	if err := seed.Set([]byte("ok1"), []byte("v1")); err != nil {
		f.Fatal(err)
	}
	if err := seed.Set([]byte("ok2"), []byte("v2")); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, picks []byte) {
		if len(picks) == 0 || len(picks) > 64 {
			return
		}
		c, err := resp.Dial(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(30 * time.Second))
		pool := []string{"ok1", "missing", "ok2", "boom"}
		args := []string{"MGET"}
		wantErr := false
		for _, p := range picks {
			k := pool[int(p)%len(pool)]
			if k == "boom" {
				wantErr = true
			}
			args = append(args, k)
		}
		c.SendStrings(args...)
		c.SendStrings("PING")
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		rep, err := c.Receive()
		if err != nil {
			t.Fatalf("MGET reply unparseable: %v", err)
		}
		if wantErr && rep.Type != resp.TypeError {
			t.Fatalf("MGET including boom = %+v, want -ERR", rep)
		}
		if !wantErr && rep.Type != resp.TypeArray {
			t.Fatalf("MGET = %+v, want array", rep)
		}
		if rep2, err := c.Receive(); err != nil || rep2.Text() != "PONG" {
			t.Fatalf("stream desynced after MGET: %+v, %v", rep2, err)
		}
	})
}

func TestIncrWire(t *testing.T) {
	_, addr := startServer(t, nil, Config{})
	c := dialT(t, addr)
	if rep, err := c.DoStrings("INCR", "ctr"); err != nil || rep.Int != 1 {
		t.Fatalf("INCR = %+v, %v", rep, err)
	}
	if rep, err := c.DoStrings("INCR", "ctr"); err != nil || rep.Int != 2 {
		t.Fatalf("INCR = %+v, %v", rep, err)
	}
	if rep, err := c.DoStrings("INCRBY", "ctr", "40"); err != nil || rep.Int != 42 {
		t.Fatalf("INCRBY = %+v, %v", rep, err)
	}
	if rep, err := c.DoStrings("INCRBY", "ctr", "-2"); err != nil || rep.Int != 40 {
		t.Fatalf("INCRBY negative = %+v, %v", rep, err)
	}
	if err := c.Set([]byte("text"), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if rep, err := c.DoStrings("INCR", "text"); err != nil || rep.Type != resp.TypeError {
		t.Fatalf("INCR on text = %+v, %v", rep, err)
	}
	if rep, err := c.DoStrings("INCRBY", "ctr", "nope"); err != nil || rep.Type != resp.TypeError {
		t.Fatalf("INCRBY bad delta = %+v, %v", rep, err)
	}
}

// TestScanWire walks the full keyspace over the wire with a small COUNT,
// checks exact coverage, then repeats WITHVALUES.
func TestScanWire(t *testing.T) {
	_, addr := startServer(t, nil, Config{})
	c := dialT(t, addr)
	want := make(map[string]string)
	for i := 0; i < 60; i++ {
		k, v := fmt.Sprintf("s-%03d", i), fmt.Sprintf("sv-%03d", i)
		if err := c.Set([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}

	scan := func(withValues bool) map[string]string {
		got := make(map[string]string)
		cursor := "0"
		for {
			args := []string{"SCAN", cursor, "COUNT", "7"}
			if withValues {
				args = append(args, "WITHVALUES")
			}
			rep, err := c.DoStrings(args...)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Type != resp.TypeArray || len(rep.Array) != 2 {
				t.Fatalf("SCAN reply shape = %+v", rep)
			}
			cursor = string(rep.Array[0].Str)
			items := rep.Array[1].Array
			if withValues {
				if len(items)%2 != 0 {
					t.Fatalf("WITHVALUES items odd: %d", len(items))
				}
				for i := 0; i < len(items); i += 2 {
					k := string(items[i].Str)
					if _, dup := got[k]; dup {
						t.Fatalf("key %q scanned twice", k)
					}
					got[k] = string(items[i+1].Str)
				}
			} else {
				for _, it := range items {
					k := string(it.Str)
					if _, dup := got[k]; dup {
						t.Fatalf("key %q scanned twice", k)
					}
					got[k] = want[k] // keys-only: trust the stored value
				}
			}
			if cursor == "0" {
				return got
			}
			if _, err := strconv.ParseUint(cursor, 10, 64); err != nil {
				t.Fatalf("non-numeric cursor %q", cursor)
			}
		}
	}
	for k, v := range want {
		if got := scan(false); got[k] != v {
			t.Fatalf("keys-only scan missing %q", k)
		}
		break // full comparison below; this just forces one keys-only pass
	}
	got := scan(true)
	if len(got) != len(want) {
		t.Fatalf("scan found %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("scan[%q] = %q, want %q", k, got[k], v)
		}
	}

	// Error paths leave the connection serving.
	if rep, _ := c.DoStrings("SCAN", "notanumber"); rep.Type != resp.TypeError || !strings.Contains(string(rep.Str), "invalid cursor") {
		t.Fatalf("bad cursor = %+v", rep)
	}
	if rep, _ := c.DoStrings("SCAN", "0", "BOGUS"); rep.Type != resp.TypeError || !strings.Contains(string(rep.Str), "syntax error") {
		t.Fatalf("bad arg = %+v", rep)
	}
	if rep, _ := c.DoStrings("SCAN", "0", "COUNT", "zero"); rep.Type != resp.TypeError {
		t.Fatalf("bad count = %+v", rep)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection dead after scan errors: %v", err)
	}
}

// TestMultiExecWire: the transaction lifecycle — queueing, EXEC reply array,
// DISCARD, EXECABORT poisoning, and nesting/stray-EXEC errors.
func TestMultiExecWire(t *testing.T) {
	_, addr := startServer(t, nil, Config{})
	c := dialT(t, addr)

	mustSimple := func(rep resp.Reply, err error, want, label string) {
		t.Helper()
		if err != nil || rep.Text() != want {
			t.Fatalf("%s = %+v, %v; want %s", label, rep, err, want)
		}
	}

	rep, err := c.DoStrings("MULTI")
	mustSimple(rep, err, "OK", "MULTI")
	rep, err = c.DoStrings("SET", "t1", "tv1")
	mustSimple(rep, err, "QUEUED", "queued SET")
	rep, err = c.DoStrings("MULTI")
	if err != nil || rep.Type != resp.TypeError || !strings.Contains(string(rep.Str), "nested") {
		t.Fatalf("nested MULTI = %+v, %v", rep, err)
	}
	rep, err = c.DoStrings("INCR", "t2")
	mustSimple(rep, err, "QUEUED", "queued INCR")
	rep, err = c.DoStrings("GET", "t1")
	mustSimple(rep, err, "QUEUED", "queued GET")
	rep, err = c.DoStrings("EXEC")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Type != resp.TypeArray || len(rep.Array) != 3 {
		t.Fatalf("EXEC reply = %+v", rep)
	}
	if rep.Array[0].Text() != "OK" || rep.Array[1].Int != 1 || string(rep.Array[2].Str) != "tv1" {
		t.Fatalf("EXEC inner replies = %+v", rep.Array)
	}
	// The transaction's writes landed.
	if v, ok, _ := c.Get([]byte("t1")); !ok || string(v) != "tv1" {
		t.Fatalf("t1 after EXEC = %q, %v", v, ok)
	}

	// DISCARD drops the queue.
	c.DoStrings("MULTI")
	c.DoStrings("SET", "t3", "never")
	rep, err = c.DoStrings("DISCARD")
	mustSimple(rep, err, "OK", "DISCARD")
	if _, ok, _ := c.Get([]byte("t3")); ok {
		t.Fatal("discarded SET was applied")
	}

	// A bad queue entry poisons the transaction: EXEC aborts, nothing runs.
	c.DoStrings("MULTI")
	rep, _ = c.DoStrings("NOSUCHCMD", "x")
	if rep.Type != resp.TypeError {
		t.Fatalf("queue of unknown cmd = %+v", rep)
	}
	rep, err = c.DoStrings("SET", "t4", "never")
	mustSimple(rep, err, "QUEUED", "queued after poison")
	rep, _ = c.DoStrings("EXEC")
	if rep.Type != resp.TypeError || !strings.Contains(string(rep.Str), "EXECABORT") {
		t.Fatalf("poisoned EXEC = %+v", rep)
	}
	if _, ok, _ := c.Get([]byte("t4")); ok {
		t.Fatal("aborted transaction applied a write")
	}

	// Stray EXEC / DISCARD outside MULTI.
	if rep, _ = c.DoStrings("EXEC"); rep.Type != resp.TypeError {
		t.Fatalf("stray EXEC = %+v", rep)
	}
	if rep, _ = c.DoStrings("DISCARD"); rep.Type != resp.TypeError {
		t.Fatalf("stray DISCARD = %+v", rep)
	}
}

// TestDelRaceExactCount is the DEL TOCTOU regression end to end: two
// connections race DEL of the same key; the replies must sum to exactly one
// per round. Run under -race in CI.
func TestDelRaceExactCount(t *testing.T) {
	_, addr := startServer(t, nil, Config{})
	setter := dialT(t, addr)
	racers := [2]*resp.Client{dialT(t, addr), dialT(t, addr)}

	const rounds = 100
	for r := 0; r < rounds; r++ {
		k := []byte(fmt.Sprintf("delrace-%04d", r))
		if err := setter.Set(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var counts [2]int64
		var errs [2]error
		for i, rc := range racers {
			wg.Add(1)
			go func(i int, rc *resp.Client) {
				defer wg.Done()
				n, err := rc.Del(k)
				counts[i], errs[i] = n, err
			}(i, rc)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d racer %d: %v", r, i, err)
			}
		}
		if counts[0]+counts[1] != 1 {
			t.Fatalf("round %d: DEL counts %d + %d != 1", r, counts[0], counts[1])
		}
		if _, ok, _ := setter.Get(k); ok {
			t.Fatalf("round %d: key survived racing deletes", r)
		}
	}
}
