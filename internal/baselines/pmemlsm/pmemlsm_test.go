package pmemlsm

import (
	"fmt"
	"testing"

	"chameleondb/internal/core"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/simclock"
	"chameleondb/internal/storetest"
)

func factory(v Variant) storetest.Factory {
	return func(t *testing.T) kvstore.Store {
		t.Helper()
		s, err := Open(core.TestConfig(), v)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

func TestConformanceNF(t *testing.T) {
	storetest.Run(t, "PmemLSM-NF", factory(NF), storetest.Options{Keys: 5000})
}

func TestConformanceF(t *testing.T) {
	storetest.Run(t, "PmemLSM-F", factory(F), storetest.Options{Keys: 5000})
}

func TestConformancePinK(t *testing.T) {
	storetest.Run(t, "PmemLSM-PinK", factory(PinK), storetest.Options{Keys: 5000})
}

func load(t *testing.T, v Variant, n int) (*Store, kvstore.Session) {
	t.Helper()
	s, err := Open(core.TestConfig(), v)
	if err != nil {
		t.Fatal(err)
	}
	se := s.NewSession(simclock.New(0))
	for i := 0; i < n; i++ {
		if err := se.Put([]byte(fmt.Sprintf("key-%08d", i)), []byte("valuevalue")); err != nil {
			t.Fatal(err)
		}
	}
	return s, se
}

// getTime measures the virtual time of a read phase. The phase continues on
// the loading session's clock: a fresh clock at time zero would queue behind
// shard timelines still busy at the load phase's end and measure the load
// instead.
func getTime(t *testing.T, s *Store, se kvstore.Session, n int) int64 {
	t.Helper()
	c := se.Clock()
	start := c.Now()
	for i := 0; i < n; i += 3 {
		if _, ok, err := se.Get([]byte(fmt.Sprintf("key-%08d", i))); err != nil || !ok {
			t.Fatalf("lost key %d: %v", i, err)
		}
	}
	return c.Now() - start
}

func TestVariantReadOrdering(t *testing.T) {
	// Figure 12/13 ordering: NF slowest; filters and pinning both help.
	const n = 12000
	nf, seNF := load(t, NF, n)
	f, seF := load(t, F, n)
	pink, sePinK := load(t, PinK, n)
	tNF, tF, tPinK := getTime(t, nf, seNF, n), getTime(t, f, seF, n), getTime(t, pink, sePinK, n)
	if tF >= tNF {
		t.Errorf("bloom filters did not speed up reads: F=%d NF=%d", tF, tNF)
	}
	if tPinK >= tNF {
		t.Errorf("pinning did not speed up reads: PinK=%d NF=%d", tPinK, tNF)
	}
}

func TestFilterConstructionSlowsPuts(t *testing.T) {
	// Figure 10: Pmem-LSM-F's put throughput is far below NF's because of
	// bloom filter construction during flushes and compactions.
	const n = 20000
	_, seNF := load(t, NF, n)
	_, seF := load(t, F, n)
	if seF.Clock().Now() <= seNF.Clock().Now() {
		t.Fatalf("filter construction should slow the write path: F=%d NF=%d",
			seF.Clock().Now(), seNF.Clock().Now())
	}
}

func TestPinKUsesMoreDRAM(t *testing.T) {
	const n = 12000
	nf, _ := load(t, NF, n)
	pink, _ := load(t, PinK, n)
	if pink.DRAMFootprint() <= nf.DRAMFootprint() {
		t.Fatalf("PinK must pay DRAM for its pinned levels: PinK=%d NF=%d",
			pink.DRAMFootprint(), nf.DRAMFootprint())
	}
}

func TestNames(t *testing.T) {
	for v, want := range map[Variant]string{NF: "Pmem-LSM-NF", F: "Pmem-LSM-F", PinK: "Pmem-LSM-PinK"} {
		s, err := Open(core.TestConfig(), v)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != want {
			t.Errorf("Name() = %q, want %q", s.Name(), want)
		}
		if s.Variant() != v {
			t.Errorf("Variant() mismatch")
		}
	}
}

func TestRecoveryRebuildsAccelerators(t *testing.T) {
	const n = 12000
	s, se := load(t, F, n)
	if err := se.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	if err := s.Recover(simclock.New(0)); err != nil {
		t.Fatal(err)
	}
	// After recovery the filters exist again: reads must beat an equally
	// loaded NF store, and be correct.
	seF := s.NewSession(simclock.New(0))
	tF := getTime(t, s, seF, n)
	nf, seNF := load(t, NF, n)
	tNF := getTime(t, nf, seNF, n)
	if tF >= tNF {
		t.Fatalf("filters not rebuilt after recovery: F=%d NF=%d", tF, tNF)
	}
}
