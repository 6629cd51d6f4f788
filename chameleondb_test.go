package chameleondb

import (
	"fmt"
	"sync"
	"testing"
)

func openSmall(t *testing.T) *DB {
	t.Helper()
	opts := DefaultOptions()
	opts.Shards = 16
	opts.MemTableSlots = 64
	opts.ArenaBytes = 256 << 20
	opts.LogBytes = 128 << 20
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPublicAPIBasics(t *testing.T) {
	db := openSmall(t)
	defer db.Close()
	if err := db.Put([]byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get([]byte("hello"))
	if err != nil || !ok || string(v) != "world" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	if _, ok, _ := db.Get([]byte("absent")); ok {
		t.Fatal("found absent key")
	}
	if err := db.Delete([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := db.Get([]byte("hello")); ok {
		t.Fatal("deleted key readable")
	}
	if db.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestPublicAPIConcurrent(t *testing.T) {
	db := openSmall(t)
	defer db.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := []byte(fmt.Sprintf("w%d-k%06d", w, i))
				if err := db.Put(k, []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < 8; w++ {
		for i := 0; i < 2000; i += 97 {
			k := []byte(fmt.Sprintf("w%d-k%06d", w, i))
			if _, ok, err := db.Get(k); err != nil || !ok {
				t.Fatalf("lost %s: %v", k, err)
			}
		}
	}
	st := db.Stats()
	if st.Puts != 16000 || st.Flushes == 0 || st.DRAMFootprintBytes <= 0 {
		t.Fatalf("stats look wrong: %+v", st)
	}
	if st.WriteAmplification() <= 0 {
		t.Fatal("write amplification should be positive")
	}
}

func TestPublicAPISessions(t *testing.T) {
	db := openSmall(t)
	defer db.Close()
	s := db.NewSession()
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if s.VirtualNanos() <= 0 {
		t.Fatal("session charged no virtual time")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get([]byte("k"))
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("session Get = %q %v %v", v, ok, err)
	}
	if err := s.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPICrashRecover(t *testing.T) {
	db := openSmall(t)
	defer db.Close()
	for i := 0; i < 5000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte("v"))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Crash()
	ready, full, err := db.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if ready <= 0 || full < ready {
		t.Fatalf("restart times: ready=%d full=%d", ready, full)
	}
	// The pool may hold pre-crash sessions whose batches died with the
	// crash; fresh operations must work.
	if _, ok, err := db.Get([]byte("key-000042")); err != nil || !ok {
		t.Fatalf("data lost across recovery: %v", err)
	}
}

func TestPublicAPIModes(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 16
	opts.MemTableSlots = 64
	opts.ArenaBytes = 256 << 20
	opts.LogBytes = 128 << 20
	opts.GetProtect = GetProtectOptions{Enabled: true, EnterThresholdNs: 1, MaxDumps: 1}
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetWriteIntensive(true)
	for i := 0; i < 3000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%06d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.Spills == 0 {
		t.Fatal("write-intensive mode did not spill")
	}
	db.SetWriteIntensive(false)
	if _, ok, _ := db.Get([]byte("k000042")); !ok {
		t.Fatal("key lost")
	}
}

func TestPaperOptionsValid(t *testing.T) {
	// PaperOptions describes a 64 GB arena: validate the geometry without
	// allocating it.
	o := PaperOptions()
	if o.Shards != 16384 || o.MemTableSlots != 512 || o.Levels != 4 || o.Ratio != 4 {
		t.Fatalf("paper geometry wrong: %+v", o)
	}
	cfg := o.coreConfig()
	if cfg.ABISlots != 32768 {
		t.Fatalf("paper ABI slots = %d", cfg.ABISlots)
	}
}

func TestBadOptionsRejected(t *testing.T) {
	o := DefaultOptions()
	o.Shards = 3
	if _, err := Open(o); err == nil {
		t.Fatal("invalid options accepted")
	}
}

func TestLevelByLevelOption(t *testing.T) {
	o := DefaultOptions()
	o.Shards = 16
	o.MemTableSlots = 64
	o.ArenaBytes = 256 << 20
	o.LogBytes = 128 << 20
	o.CompactionMode = LevelByLevel
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 8000; i++ {
		db.Put([]byte(fmt.Sprintf("k%06d", i)), []byte("v"))
	}
	if db.Stats().UpperCompactions == 0 {
		t.Fatal("no compactions under level-by-level")
	}
}

// TestFlushCoversEveryPooledSession: DB.Flush makes the writes of every
// pooled session durable, not only those of the session it draws — with
// inline maintenance and with a maintenance pool.
func TestFlushCoversEveryPooledSession(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("maintenance-workers-%d", workers), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Shards = 16
			opts.ArenaBytes = 64 << 20
			opts.LogBytes = 32 << 20
			opts.MaintenanceWorkers = workers
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			// Two sessions in the pool, each holding one unflushed write.
			s1, s2 := db.pool.Get().(*Session), db.pool.Get().(*Session)
			if err := s1.Put([]byte("a"), []byte("va")); err != nil {
				t.Fatal(err)
			}
			if err := s2.Put([]byte("b"), []byte("vb")); err != nil {
				t.Fatal(err)
			}
			db.pool.Put(s1)
			db.pool.Put(s2)
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			db.Crash()
			if _, _, err := db.Recover(); err != nil {
				t.Fatal(err)
			}
			for _, kv := range [][2]string{{"a", "va"}, {"b", "vb"}} {
				if v, ok, err := db.Get([]byte(kv[0])); err != nil || !ok || string(v) != kv[1] {
					t.Errorf("after Flush, Crash, Recover: %s = %q,%v,%v; want %q", kv[0], v, ok, err, kv[1])
				}
			}
		})
	}
}
