package novelsm

import (
	"fmt"
	"testing"

	"chameleondb/internal/kvstore"
	"chameleondb/internal/simclock"
	"chameleondb/internal/storetest"
)

func factory(t *testing.T) kvstore.Store {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MemTableBytes = 16 << 10
	cfg.ArenaBytes = 512 << 20
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConformance(t *testing.T) {
	storetest.Run(t, "NoveLSM", factory, storetest.Options{Keys: 4000, SupportsRecovery: true})
}

func TestCompactionsCascade(t *testing.T) {
	s := factory(t).(*Store)
	se := s.NewSession(simclock.New(0))
	for i := 0; i < 8000; i++ {
		if err := se.Put([]byte(fmt.Sprintf("key-%08d", i)), []byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	if s.Compactions() == 0 {
		t.Fatal("no compactions after 8000 puts with 16 KB memtables")
	}
	for i := 0; i < 8000; i += 37 {
		got, ok, err := se.Get([]byte(fmt.Sprintf("key-%08d", i)))
		if err != nil || !ok || string(got) != "0123456789abcdef" {
			t.Fatalf("key %d lost: %q %v %v", i, got, ok, err)
		}
	}
}

func TestMemtableInsertsAmplify(t *testing.T) {
	// NoveLSM's signature cost: building a mutable structure with small
	// in-place Pmem writes (Section 3.7).
	cfg := DefaultConfig()
	cfg.MemTableBytes = 64 << 20 // never flush during this test
	cfg.ArenaBytes = 512 << 20
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	se := s.NewSession(simclock.New(0))
	s.Dev.ResetStats()
	for i := 0; i < 3000; i++ {
		se.Put([]byte(fmt.Sprintf("key-%08d", i)), []byte("vvvvvvvv"))
	}
	wa := s.DeviceStats().WriteAmplification()
	if wa < 2 {
		t.Fatalf("in-Pmem memtable WA = %v, expected substantial RMW amplification", wa)
	}
}

func TestEverythingPersistedCrash(t *testing.T) {
	// NoveLSM persists each put in place: even without Flush, a crash
	// loses nothing.
	s := factory(t).(*Store)
	se := s.NewSession(simclock.New(0))
	for i := 0; i < 3000; i++ {
		se.Put([]byte(fmt.Sprintf("key-%08d", i)), []byte("v"))
	}
	s.Crash()
	if err := s.Recover(simclock.New(0)); err != nil {
		t.Fatal(err)
	}
	se2 := s.NewSession(simclock.New(0))
	for i := 0; i < 3000; i += 101 {
		if _, ok, _ := se2.Get([]byte(fmt.Sprintf("key-%08d", i))); !ok {
			t.Fatalf("key %d lost despite in-place persistence", i)
		}
	}
}

func TestBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stripes = 3
	if _, err := Open(cfg); err == nil {
		t.Fatal("bad stripes accepted")
	}
	cfg = DefaultConfig()
	cfg.MaxLevels = 1
	if _, err := Open(cfg); err == nil {
		t.Fatal("bad levels accepted")
	}
}
