package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"chameleondb/internal/hashtable"
	"chameleondb/internal/simclock"
)

// oracleCheck drives the store with a random op sequence against a
// map-backed oracle, optionally injecting crash/recover cycles and mode
// flips, then verifies every key.
func oracleCheck(t *testing.T, seed int64, crashes bool, mutate ...func(*Config)) {
	t.Helper()
	oracleWatched(t, seed, crashes, nil, mutate...)
}

// settleWatch follows which shards' live ABIs a settle made: a table that
// replaced a shard's ABI in a step (an op, or a Recover) that settled, at the
// settled size. It counts the crashes at which such an ABI was live and the
// recoveries that ended with one.
type settleWatch struct {
	settles             int64
	abis                []*hashtable.Mem
	settled             []bool
	points              int // crash-and-recover cycles
	crashes, recoveries int
}

// step records what the last op or Recover did to each shard's ABI.
func (w *settleWatch) step(s *Store) {
	if w.abis == nil {
		w.abis, w.settled = make([]*hashtable.Mem, len(s.shards)), make([]bool, len(s.shards))
	}
	n := s.Stats().ABIMovesSettled
	for i, sh := range s.shards {
		abi := sh.view.Load().abi()
		if abi != w.abis[i] {
			w.abis[i] = abi
			fit := hashtable.FitTwoChoice(int(math.Ceil(float64(abi.Len()) / abiFullFraction)))
			w.settled[i] = n > w.settles && abi.Cap() == fit
		}
	}
	w.settles = n
}

// live reports whether any shard's ABI is one a settle made.
func (w *settleWatch) live() bool { return slices.Contains(w.settled, true) }

// oracleWatched is oracleCheck with its store's ABIs followed by w, when w is
// not nil.
func oracleWatched(t *testing.T, seed int64, crashes bool, w *settleWatch, mutate ...func(*Config)) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	cfg := TestConfig()
	for _, m := range mutate {
		m(&cfg)
	}
	cfg.Seed = seed
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	se := s.NewSession(simclock.New(0)).(*Session)

	oracle := map[string]string{}  // latest acknowledged state
	durable := map[string]string{} // state guaranteed after crash
	// since records every value (or deletion) acknowledged per key after
	// the last durable point: a crash may preserve any of them, because
	// batch chunks persist whole even past the explicit sync point.
	since := map[string][]string{}
	const deleted = "\x00deleted"
	keyspace := 3000

	syncDurable := func() {
		if err := se.Flush(); err != nil {
			t.Fatal(err)
		}
		durable = make(map[string]string, len(oracle))
		for k, v := range oracle {
			durable[k] = v
		}
		since = map[string][]string{}
	}

	const ops = 30000
	for i := 0; i < ops; i++ {
		if w != nil {
			w.step(s)
		}
		k := fmt.Sprintf("key-%06d", r.Intn(keyspace))
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			v := fmt.Sprintf("val-%06d-%06d", r.Intn(keyspace), i)
			if err := se.Put([]byte(k), []byte(v)); err != nil {
				t.Fatalf("op %d: put: %v", i, err)
			}
			oracle[k] = v
			since[k] = append(since[k], v)
		case 6:
			if err := se.Delete([]byte(k)); err != nil {
				t.Fatalf("op %d: delete: %v", i, err)
			}
			delete(oracle, k)
			since[k] = append(since[k], deleted)
		case 7, 8:
			got, ok, err := se.Get([]byte(k))
			if err != nil {
				t.Fatalf("op %d: get: %v", i, err)
			}
			want, wantOK := oracle[k]
			if ok != wantOK || (ok && string(got) != want) {
				t.Fatalf("op %d: get %q = %q,%v; oracle %q,%v", i, k, got, ok, want, wantOK)
			}
		case 9:
			if crashes && r.Intn(20) == 0 {
				// Crash at a durable point half the time, mid-batch the
				// other half.
				if r.Intn(2) == 0 {
					syncDurable()
				}
				if w != nil {
					w.points++
					if w.live() {
						w.crashes++
					}
				}
				s.Crash()
				if err := s.Recover(simclock.New(0)); err != nil {
					t.Fatalf("op %d: recover: %v", i, err)
				}
				if w != nil {
					if w.step(s); w.live() {
						w.recoveries++
					}
				}
				se = s.NewSession(simclock.New(0)).(*Session)
				// After a crash the live state rolls back to the last
				// durable snapshot plus some prefix of the acknowledged
				// tail (whole batch chunks persist together). Re-read
				// reality and validate each key against its legal values.
				oracle = reread(t, se, keyspace, durable, since)
				// Everything that survived a crash was recovered from
				// persisted media, so the observed state is the new durable
				// baseline.
				durable = make(map[string]string, len(oracle))
				for k, v := range oracle {
					durable[k] = v
				}
				since = map[string][]string{}
			} else if r.Intn(10) == 0 {
				syncDurable()
			}
		}
	}
	syncDurable()
	for k, want := range oracle {
		got, ok, err := se.Get([]byte(k))
		if err != nil || !ok || string(got) != want {
			t.Fatalf("final check %q = %q,%v,%v; want %q", k, got, ok, err, want)
		}
	}
	// Keys absent from the oracle must be absent from the store.
	miss := 0
	for i := 0; i < keyspace; i++ {
		k := fmt.Sprintf("key-%06d", i)
		if _, inOracle := oracle[k]; inOracle {
			continue
		}
		if _, ok, _ := se.Get([]byte(k)); ok {
			miss++
		}
	}
	if miss > 0 {
		t.Fatalf("%d deleted/never-written keys still readable", miss)
	}
}

// reread reconciles the oracle after a crash: every key must read back as
// its durable value or one of the values acknowledged after the durable
// point (a crash preserves any prefix of the batched tail). The returned map
// is the store's actual post-crash state.
func reread(t *testing.T, se *Session, keyspace int, durable map[string]string, since map[string][]string) map[string]string {
	t.Helper()
	const deleted = "\x00deleted"
	state := map[string]string{}
	for i := 0; i < keyspace; i++ {
		k := fmt.Sprintf("key-%06d", i)
		got, ok, err := se.Get([]byte(k))
		if err != nil {
			t.Fatal(err)
		}
		dv, inDurable := durable[k]
		tail := since[k]
		if ok {
			g := string(got)
			legal := inDurable && g == dv
			for _, v := range tail {
				if v == g {
					legal = true
					break
				}
			}
			if !legal {
				t.Fatalf("post-crash %q = %q, not the durable value %q(%v) nor any acknowledged tail value %q",
					k, g, dv, inDurable, tail)
			}
			state[k] = g
		} else {
			// Missing is legal if the key was not durably present, or if a
			// deletion was acknowledged after the durable point (its
			// tombstone may have persisted with its chunk).
			legal := !inDurable
			for _, v := range tail {
				if v == deleted {
					legal = true
					break
				}
			}
			if !legal {
				t.Fatalf("post-crash %q vanished but was durable as %q with tail %q", k, dv, tail)
			}
		}
	}
	return state
}

func TestOracleNoCrashes(t *testing.T) {
	oracleCheck(t, 1, false)
}

func TestOracleWithCrashes(t *testing.T) {
	oracleCheck(t, 2, true)
}

func TestOracleLevelByLevel(t *testing.T) {
	oracleCheck(t, 3, true, func(c *Config) { c.CompactionMode = LevelByLevel })
}

// TestOracleWriteIntensive is the oracle in Write-Intensive Mode, where
// spills feed the ABIs batches of updates to the keys they hold, so they
// settle. It counts the crashes at which an ABI a settle made was live and
// the recoveries that ended with one (every recovery's rebuild settles), and
// fails if either count is zero: then the oracle no longer reaches them.
func TestOracleWriteIntensive(t *testing.T) {
	w := &settleWatch{}
	oracleWatched(t, 4, true, w, func(c *Config) { c.WriteIntensive = true })
	t.Logf("%d ABI settles; of %d crash points, a settled ABI was live at %d crashes and after %d recoveries", w.settles, w.points, w.crashes, w.recoveries)
	if w.crashes == 0 || w.recoveries == 0 {
		t.Fatalf("a settled ABI was live at %d crashes and after %d recoveries: the oracle no longer reaches them", w.crashes, w.recoveries)
	}
}

func TestOracleNoABI(t *testing.T) {
	oracleCheck(t, 5, true, func(c *Config) { c.DisableABI = true })
}

func TestOracleManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("long oracle sweep")
	}
	for seed := int64(10); seed < 16; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			oracleCheck(t, seed, true)
		})
	}
}

func TestRecoveryIdempotent(t *testing.T) {
	s := openTest(t)
	se := s.NewSession(simclock.New(0))
	for i := 0; i < 5000; i++ {
		se.Put(key(i), val(i))
	}
	se.Flush()
	// Crash and recover twice in a row: the second recovery must see the
	// same state (manifests and log are stable).
	for round := 0; round < 2; round++ {
		s.Crash()
		if err := s.Recover(simclock.New(0)); err != nil {
			t.Fatalf("recover round %d: %v", round, err)
		}
	}
	se2 := s.NewSession(simclock.New(0))
	for i := 0; i < 5000; i += 101 {
		got, ok, _ := se2.Get(key(i))
		if !ok || string(got) != string(val(i)) {
			t.Fatalf("key %d lost after double recovery", i)
		}
	}
}

func TestRecoveryAfterWIMCrashIsSlower(t *testing.T) {
	// Section 2.3 / Table 4: a WIM crash must recover (rebuilding the ABI
	// from the log) but takes longer than a normal-mode restart.
	restart := func(wim bool) int64 {
		cfg := TestConfig()
		cfg.WriteIntensive = wim
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		se := s.NewSession(simclock.New(0))
		for i := 0; i < 20000; i++ {
			se.Put(key(i), val(i))
		}
		se.Flush()
		s.Crash()
		c := simclock.New(0)
		if err := s.Recover(c); err != nil {
			t.Fatal(err)
		}
		// All data must be there either way.
		se2 := s.NewSession(simclock.New(0))
		for i := 0; i < 20000; i += 499 {
			if _, ok, _ := se2.Get(key(i)); !ok {
				t.Fatalf("key %d lost (wim=%v)", i, wim)
			}
		}
		ready, _ := s.RecoverTimes()
		return ready
	}
	normal, wim := restart(false), restart(true)
	if wim <= normal {
		t.Fatalf("WIM restart (%d ns) should be slower than normal restart (%d ns)", wim, normal)
	}
}

func TestRecoveryReplayChargesScan(t *testing.T) {
	s := openTest(t)
	se := s.NewSession(simclock.New(0))
	for i := 0; i < 3000; i++ {
		se.Put(key(i), val(i))
	}
	se.Flush()
	s.Crash()
	c := simclock.New(0)
	if err := s.Recover(c); err != nil {
		t.Fatal(err)
	}
	ready, full := s.RecoverTimes()
	if ready <= 0 || full < ready {
		t.Fatalf("recovery times inconsistent: ready=%d full=%d", ready, full)
	}
}
