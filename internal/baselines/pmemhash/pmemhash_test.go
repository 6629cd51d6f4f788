package pmemhash

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
	cfg.Stripes = 8
	cfg.ArenaBytes = 512 << 20
	cfg.LogBytes = 128 << 20
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConformance(t *testing.T) {
	storetest.Run(t, "PmemHash", factory, storetest.Options{Keys: 5000})
}

func TestPutWriteAmplificationIsLarge(t *testing.T) {
	s := factory(t).(*Store)
	se := s.NewSession(simclock.New(0))
	s.Dev.ResetStats()
	const n = 5000
	for i := 0; i < n; i++ {
		se.Put([]byte(fmt.Sprintf("key-%08d", i)), []byte("12345678"))
	}
	wa := s.DeviceStats().WriteAmplification()
	// Per-put small writes: entry (~32 B -> 256 B) plus slot (16 B -> 256 B)
	// should amplify far beyond the batched stores' ~1.
	if wa < 4 {
		t.Fatalf("Pmem-Hash WA = %v, expected heavy amplification", wa)
	}
}

func TestFastRecovery(t *testing.T) {
	s := factory(t).(*Store)
	se := s.NewSession(simclock.New(0))
	const n = 20000
	for i := 0; i < n; i++ {
		se.Put([]byte(fmt.Sprintf("key-%08d", i)), []byte("v"))
	}
	se.Flush()
	s.Crash()
	c := simclock.New(0)
	if err := s.Recover(c); err != nil {
		t.Fatal(err)
	}
	// The persistent index means restart cost is directory-sized, not
	// log-sized: a small fraction of a full scan (~10 ns/entry floor used
	// in the Dram-Hash test).
	if s.RecoverTime() > int64(n)*10 {
		t.Fatalf("Pmem-Hash recovery too slow: %d ns", s.RecoverTime())
	}
	got, ok, _ := s.NewSession(simclock.New(0)).Get([]byte("key-00000042"))
	if !ok || string(got) != "v" {
		t.Fatal("data lost across fast recovery")
	}
}

func TestBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stripes = 5
	if _, err := Open(cfg); err == nil {
		t.Fatal("non-power-of-two stripes accepted")
	}
}
