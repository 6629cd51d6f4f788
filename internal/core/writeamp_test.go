package core

import (
	"bytes"
	"fmt"
	"testing"

	"chameleondb/internal/kvstore"
	"chameleondb/internal/simclock"
	"chameleondb/internal/wlog"
)

// TestWriteAmplificationFormula checks the paper's Section 2.5 analysis:
// ChameleonDB's index write amplification is (l-1+r)/f — each entry is
// written once per size-tiered upper level ((l-1) times including L0) and r
// times amortized by the leveled last level, inflated by the 1/f slack of
// the fixed-size hash tables. The measured index traffic must sit in a band
// around the formula: a last level that has outgrown its designed table is
// rewritten at the size of its whole contents (r is then an underestimate of
// its per-entry rewrites), and manifests and partial-line log syncs add
// bytes; incomplete final cascades take some away. What a grown last level
// may cost is gated separately (TestGrownLastLevelWriteAmp).
func TestWriteAmplificationFormula(t *testing.T) {
	cfg := TestConfig()
	cfg.Shards = 16
	cfg.LoadFactorMin = 0.75
	cfg.LoadFactorMax = 0.75
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	se := s.NewSession(simclock.New(0))
	const n = 60000
	valSize := 8
	for i := 0; i < n; i++ {
		if err := se.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	se.Flush()

	media := s.DeviceStats().MediaBytesWritten
	// Subtract the value log's share (batched, amplification ~1).
	logBytes := s.Log().BytesAppended()
	indexMedia := media - logBytes
	perEntry := float64(indexMedia) / float64(n)
	measuredWA := perEntry / 16 // 16-byte slots

	l := float64(cfg.Levels)
	r := float64(cfg.Ratio)
	f := 0.75
	formula := (l - 1 + r) / f
	t.Logf("measured index WA = %.2f, formula (l-1+r)/f = %.2f", measuredWA, formula)
	if measuredWA < formula*0.4 || measuredWA > formula*2.5 {
		t.Fatalf("index WA %.2f far from the paper's formula %.2f", measuredWA, formula)
	}
	_ = valSize
}

// TestLargeValues pushes 64 KB values (the top of Figure 17's range) through
// the full put/get/compact/recover cycle.
func TestLargeValues(t *testing.T) {
	cfg := TestConfig()
	cfg.ArenaBytes = 512 << 20
	cfg.LogBytes = 384 << 20
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	se := s.NewSession(simclock.New(0))
	big := bytes.Repeat([]byte{0xC3}, 64<<10)
	const n = 3000
	for i := 0; i < n; i++ {
		big[0] = byte(i)
		big[1] = byte(i >> 8)
		if err := se.Put(key(i), big); err != nil {
			t.Fatal(err)
		}
	}
	se.Flush()
	s.Crash()
	if err := s.Recover(simclock.New(0)); err != nil {
		t.Fatal(err)
	}
	se2 := s.NewSession(simclock.New(0))
	for i := 0; i < n; i += 173 {
		got, ok, err := se2.Get(key(i))
		if err != nil || !ok || len(got) != 64<<10 || got[0] != byte(i) || got[1] != byte(i>>8) {
			t.Fatalf("large value %d corrupted: len=%d ok=%v err=%v", i, len(got), ok, err)
		}
	}
}

// TestEmptyAndOddKeys exercises key shapes the hash path must handle.
func TestEmptyAndOddKeys(t *testing.T) {
	s := openTest(t)
	se := s.NewSession(simclock.New(0))
	keys := [][]byte{
		[]byte{}, // empty key
		[]byte{0},
		bytes.Repeat([]byte{0xFF}, 1000), // long key
		[]byte("with\x00nul\x00bytes"),
	}
	for i, k := range keys {
		v := []byte(fmt.Sprintf("v%d", i))
		if err := se.Put(k, v); err != nil {
			t.Fatalf("put key %d: %v", i, err)
		}
	}
	for i, k := range keys {
		got, ok, err := se.Get(k)
		if err != nil || !ok || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get key %d = %q %v %v", i, got, ok, err)
		}
	}
}

// TestEmptyPutSurvivesRecovery: Put("", "") logs an entry whose meta word is
// all zero. It is acknowledged like any other, so Get("") must find it, and
// recovery's replay must not mistake it for the unused end of a reservation —
// which would also drop every acknowledged entry after it in the same line.
func TestEmptyPutSurvivesRecovery(t *testing.T) {
	s := openTest(t)
	se := s.NewSession(simclock.New(0))
	if err := se.Put(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := se.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := se.Flush(); err != nil {
		t.Fatal(err)
	}
	check := func(se kvstore.Session, when string) {
		t.Helper()
		if got, ok, err := se.Get(nil); err != nil || !ok || len(got) != 0 {
			t.Fatalf("%s: Get(\"\") = %q, %v, %v; want \"\", true", when, got, ok, err)
		}
		if got, ok, err := se.Get([]byte("k")); err != nil || !ok || string(got) != "v" {
			t.Fatalf("%s: Get(k) = %q, %v, %v; want v", when, got, ok, err)
		}
	}
	check(se, "before crash")
	s.Crash()
	if err := s.Recover(simclock.New(0)); err != nil {
		t.Fatal(err)
	}
	check(s.NewSession(simclock.New(0)), "after recovery")
}

// TestLogFullSurfacesError verifies a full log region propagates a clean
// error instead of corrupting state.
func TestLogFullSurfacesError(t *testing.T) {
	cfg := TestConfig()
	cfg.ArenaBytes = 4 << 20
	cfg.LogBytes = 256 << 10
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	se := s.NewSession(simclock.New(0))
	var putErr error
	for i := 0; i < 100000 && putErr == nil; i++ {
		putErr = se.Put(key(i), bytes.Repeat([]byte{1}, 64))
	}
	if putErr == nil {
		t.Fatal("expected the log to fill")
	}
	// Reads of earlier data must still work.
	if _, ok, err := se.Get(key(0)); err != nil || !ok {
		t.Fatalf("store unusable after log-full: %v", err)
	}
	_ = wlog.ErrLogFull
}
