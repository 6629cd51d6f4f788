package matrixkv

import (
	"fmt"
	"testing"

	"chameleondb/internal/kvstore"
	"chameleondb/internal/simclock"
	"chameleondb/internal/storetest"
)

func factory(t *testing.T) kvstore.Store {
	t.Helper()
	cfg := Config{
		MemTableBytes: 16 << 10,
		ArenaBytes:    512 << 20,
		WALBytes:      64 << 20,
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConformance(t *testing.T) {
	storetest.Run(t, "MatrixKV", factory, storetest.Options{Keys: 4000})
}

func TestMatrixRowsAccumulate(t *testing.T) {
	s := factory(t).(*Store)
	se := s.NewSession(simclock.New(0))
	for i := 0; i < 2000; i++ {
		se.Put([]byte(fmt.Sprintf("key-%08d", i)), []byte("0123456789abcdef"))
	}
	if len(s.rows) == 0 && s.Compactions() == 0 {
		t.Fatal("no matrix rows and no compactions: flushes never happened")
	}
	for i := 0; i < 2000; i += 13 {
		got, ok, err := se.Get([]byte(fmt.Sprintf("key-%08d", i)))
		if err != nil || !ok || string(got) != "0123456789abcdef" {
			t.Fatalf("key %d lost: %q %v %v", i, got, ok, err)
		}
	}
}

func TestWALReplayAfterCrash(t *testing.T) {
	s := factory(t).(*Store)
	se := s.NewSession(simclock.New(0))
	for i := 0; i < 3000; i++ {
		se.Put([]byte(fmt.Sprintf("key-%08d", i)), []byte("v"))
	}
	se.Flush()
	s.Crash()
	if err := s.Recover(simclock.New(0)); err != nil {
		t.Fatal(err)
	}
	se2 := s.NewSession(simclock.New(0))
	for i := 0; i < 3000; i += 97 {
		if _, ok, _ := se2.Get([]byte(fmt.Sprintf("key-%08d", i))); !ok {
			t.Fatalf("key %d lost after WAL replay", i)
		}
	}
}

func TestBadConfig(t *testing.T) {
	if _, err := Open(Config{MemTableBytes: 512}); err == nil {
		t.Fatal("sub-KB memtable accepted")
	}
}
