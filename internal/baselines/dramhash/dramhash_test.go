package dramhash

import (
	"testing"

	"chameleondb/internal/kvstore"
	"chameleondb/internal/simclock"
	"chameleondb/internal/storetest"
)

func factory(t *testing.T) kvstore.Store {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Stripes = 16
	cfg.InitialCapacity = 64
	cfg.ArenaBytes = 256 << 20
	cfg.LogBytes = 128 << 20
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConformance(t *testing.T) {
	storetest.Run(t, "DramHash", factory, storetest.Options{Keys: 5000})
}

func TestRecoveryScansWholeLog(t *testing.T) {
	s := factory(t).(*Store)
	se := s.NewSession(simclock.New(0))
	const n = 20000
	for i := 0; i < n; i++ {
		se.Put([]byte{byte(i), byte(i >> 8), byte(i >> 16), 'k'}, []byte("v"))
	}
	se.Flush()
	s.Crash()
	c := simclock.New(0)
	if err := s.Recover(c); err != nil {
		t.Fatal(err)
	}
	// Restart cost must scale with the log, not the memtable: at least one
	// sequential pass over ~n entries' bytes.
	if s.RecoverTime() < int64(n)*10 {
		t.Fatalf("recovery suspiciously fast for a full log scan: %d ns", s.RecoverTime())
	}
}

func TestBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stripes = 3
	if _, err := Open(cfg); err == nil {
		t.Fatal("non-power-of-two stripes accepted")
	}
}

func TestIndexGrowthSpikesLatency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stripes = 1
	cfg.InitialCapacity = 64
	cfg.ArenaBytes = 256 << 20
	cfg.LogBytes = 128 << 20
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := simclock.New(0)
	se := s.NewSession(c)
	var maxPut int64
	for i := 0; i < 100000; i++ {
		before := c.Now()
		se.Put([]byte{byte(i), byte(i >> 8), byte(i >> 16), 'x'}, []byte("v"))
		if d := c.Now() - before; d > maxPut {
			maxPut = d
		}
	}
	// The largest put must be dominated by a rehash: orders of magnitude
	// above a typical put (Table 2's 3.23 s outlier shape).
	if maxPut < 100_000 {
		t.Fatalf("no rehash spike observed: max put %d ns", maxPut)
	}
}
