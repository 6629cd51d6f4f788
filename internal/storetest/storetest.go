// Package storetest is a conformance kit: every store in the evaluation
// (ChameleonDB and all baselines) is driven through the same correctness
// suites via the kvstore interfaces, so a behavioural regression in any
// store fails its own test file with the shared logic.
package storetest

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"chameleondb/internal/kvstore"
	"chameleondb/internal/simclock"
)

// Factory builds a fresh store instance for one test.
type Factory func(t *testing.T) kvstore.Store

// Options tune the suite per store.
type Options struct {
	// Keys is the data volume for the churn and crash/recover tests.
	Keys int
}

// Run executes the full conformance suite. Its crash/recover test requires
// only explicitly Flushed data to survive, so a store whose recovery drops
// acknowledged-unflushed data still passes.
func Run(t *testing.T, name string, f Factory, opt Options) {
	if opt.Keys == 0 {
		opt.Keys = 5000
	}
	t.Run(name+"/Basic", func(t *testing.T) { basic(t, f) })
	t.Run(name+"/ConcurrentSessions", func(t *testing.T) { concurrent(t, f) })
	t.Run(name+"/Churn", func(t *testing.T) { churn(t, f, opt.Keys) })
	t.Run(name+"/OracleRandomOps", func(t *testing.T) { oracle(t, f) })
	t.Run(name+"/TimeAdvances", func(t *testing.T) { timing(t, f) })
	t.Run(name+"/CrashRecover", func(t *testing.T) { crash(t, f, opt.Keys) })
}

func k(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
func v(i int) []byte { return []byte(fmt.Sprintf("value-%08d", i)) }

func basic(t *testing.T, f Factory) {
	s := f(t)
	defer s.Close()
	se := s.NewSession(simclock.New(0))
	if err := se.Put(k(1), v(1)); err != nil {
		t.Fatal(err)
	}
	got, ok, err := se.Get(k(1))
	if err != nil || !ok || string(got) != string(v(1)) {
		t.Fatalf("Get = %q %v %v", got, ok, err)
	}
	if _, ok, _ := se.Get(k(2)); ok {
		t.Fatal("found absent key")
	}
	if err := se.Put(k(1), v(2)); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := se.Get(k(1)); string(got) != string(v(2)) {
		t.Fatal("update not visible")
	}
	if err := se.Delete(k(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := se.Get(k(1)); ok {
		t.Fatal("deleted key still readable")
	}
	// Empty value round trip.
	if err := se.Put(k(3), nil); err != nil {
		t.Fatal(err)
	}
	got, ok, err = se.Get(k(3))
	if err != nil || !ok || len(got) != 0 {
		t.Fatalf("empty value Get = %q %v %v", got, ok, err)
	}
}

// concurrent drives the store from real goroutines, one session each, over
// disjoint key ranges: exercises the stores' locking (run with -race to
// verify).
func concurrent(t *testing.T, f Factory) {
	s := f(t)
	defer s.Close()
	const workers = 8
	const perWorker = 1500
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			se := s.NewSession(simclock.New(0))
			for i := 0; i < perWorker; i++ {
				key := []byte(fmt.Sprintf("w%02d-%06d", w, i))
				if err := se.Put(key, []byte("v")); err != nil {
					errs[w] = err
					return
				}
				if i%3 == 0 {
					if _, ok, err := se.Get(key); err != nil || !ok {
						errs[w] = fmt.Errorf("readback %s: ok=%v err=%v", key, ok, err)
						return
					}
				}
			}
			errs[w] = se.Flush()
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	se := s.NewSession(simclock.New(0))
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i += 97 {
			key := []byte(fmt.Sprintf("w%02d-%06d", w, i))
			if _, ok, err := se.Get(key); err != nil || !ok {
				t.Fatalf("lost %s after concurrent load: %v", key, err)
			}
		}
	}
}

func churn(t *testing.T, f Factory, keys int) {
	s := f(t)
	defer s.Close()
	se := s.NewSession(simclock.New(0))
	for i := 0; i < keys; i++ {
		if err := se.Put(k(i), v(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Overwrite a third, delete a third.
	for i := 0; i < keys; i += 3 {
		if err := se.Put(k(i), v(i+1000000)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < keys; i += 3 {
		if err := se.Delete(k(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < keys; i++ {
		got, ok, err := se.Get(k(i))
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		switch i % 3 {
		case 0:
			if !ok || string(got) != string(v(i+1000000)) {
				t.Fatalf("overwritten key %d = %q %v", i, got, ok)
			}
		case 1:
			if ok {
				t.Fatalf("deleted key %d still readable", i)
			}
		case 2:
			if !ok || string(got) != string(v(i)) {
				t.Fatalf("untouched key %d = %q %v", i, got, ok)
			}
		}
	}
}

func oracle(t *testing.T, f Factory) {
	s := f(t)
	defer s.Close()
	se := s.NewSession(simclock.New(0))
	r := rand.New(rand.NewSource(99))
	state := map[string]string{}
	const space = 800
	for op := 0; op < 12000; op++ {
		key := fmt.Sprintf("key-%08d", r.Intn(space))
		switch r.Intn(5) {
		case 0, 1, 2:
			val := fmt.Sprintf("value-%d-%d", op, r.Int63())
			if err := se.Put([]byte(key), []byte(val)); err != nil {
				t.Fatalf("op %d put: %v", op, err)
			}
			state[key] = val
		case 3:
			if err := se.Delete([]byte(key)); err != nil {
				t.Fatalf("op %d delete: %v", op, err)
			}
			delete(state, key)
		case 4:
			got, ok, err := se.Get([]byte(key))
			if err != nil {
				t.Fatalf("op %d get: %v", op, err)
			}
			want, wantOK := state[key]
			if ok != wantOK || (ok && string(got) != want) {
				t.Fatalf("op %d get %s = %q,%v want %q,%v", op, key, got, ok, want, wantOK)
			}
		}
	}
}

func timing(t *testing.T, f Factory) {
	s := f(t)
	defer s.Close()
	c := simclock.New(0)
	se := s.NewSession(c)
	se.Put(k(1), v(1))
	if c.Now() <= 0 {
		t.Fatal("put charged no virtual time")
	}
	mark := c.Now()
	se.Get(k(1))
	if c.Now() <= mark {
		t.Fatal("get charged no virtual time")
	}
	if s.DRAMFootprint() < 0 {
		t.Fatal("negative DRAM footprint")
	}
}

func crash(t *testing.T, f Factory, keys int) {
	s := f(t)
	defer s.Close()
	se := s.NewSession(simclock.New(0))
	for i := 0; i < keys; i++ {
		if err := se.Put(k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < keys; i += 5 {
		if err := se.Delete(k(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := se.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	c := simclock.New(0)
	if err := s.Recover(c); err != nil {
		t.Fatal(err)
	}
	if c.Now() <= 0 {
		t.Fatal("recovery charged no virtual time")
	}
	se2 := s.NewSession(simclock.New(0))
	for i := 0; i < keys; i++ {
		got, ok, err := se2.Get(k(i))
		if err != nil {
			t.Fatalf("post-recovery get %d: %v", i, err)
		}
		if i%5 == 0 {
			if ok {
				t.Fatalf("deleted key %d resurrected by recovery", i)
			}
		} else if !ok || string(got) != string(v(i)) {
			t.Fatalf("flushed key %d lost in crash: %q %v", i, got, ok)
		}
	}
	// The store must accept writes again.
	if err := se2.Put(k(keys+1), v(keys+1)); err != nil {
		t.Fatalf("post-recovery put: %v", err)
	}
	if got, ok, _ := se2.Get(k(keys + 1)); !ok || string(got) != string(v(keys+1)) {
		t.Fatal("post-recovery put not readable")
	}
}
