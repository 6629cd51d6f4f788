package storetest

import (
	"errors"
	"fmt"
	"math/rand"

	"chameleondb/internal/device"
	"chameleondb/internal/simclock"
)

// soakErrorProb is the per-allocation probability of a transient injected
// failure during a soak iteration's error-tolerance run.
const soakErrorProb = 0.01

// SoakConfig sizes the randomized crash soak: each iteration generates a
// fresh workload from a derived seed and exercises both transient-error
// tolerance and a random torn crash point, so repeated runs cover workload
// shapes the fixed sweep script does not.
type SoakConfig struct {
	Seed       int64
	Iterations int

	Ops         int
	Keys        int
	MaxValueLen int
	FlushEvery  int

	Logf func(format string, args ...any)
}

// SoakResult summarizes a crash soak.
type SoakResult struct {
	Iterations    int
	Retries       int64 // ops retried after a transient injected error
	PersistEvents int64 // summed over all iterations' clean runs
	CrashPoints   int   // random crash points tested (one per iteration)
}

// CrashSoak runs cfg.Iterations independent rounds. Each round:
//
//  1. Error-tolerance run: the scripted workload executes with transient
//     allocation failures injected; every failed op is retried until it
//     succeeds, and the final store state must exactly match the in-memory
//     model — transient errors must never corrupt acknowledged state.
//  2. Crash run: a clean count run measures the script's persist total, then
//     one uniformly random crash point is replayed with a random tear
//     (TearRandom) and checked with the full recovery oracle of CrashSweep.
func CrashSoak(newStore NewStoreFunc, cfg SoakConfig) (SoakResult, error) {
	var res SoakResult
	if cfg.Iterations <= 0 || cfg.Ops <= 0 || cfg.Keys <= 0 {
		return res, fmt.Errorf("crashsoak: Iterations, Ops and Keys must be positive")
	}
	for it := 0; it < cfg.Iterations; it++ {
		seed := cfg.Seed + int64(it)*1_000_003
		sweepCfg := SweepConfig{
			Seed:        seed,
			Ops:         cfg.Ops,
			Keys:        cfg.Keys,
			MaxValueLen: cfg.MaxValueLen,
			FlushEvery:  cfg.FlushEvery,
		}
		script := buildScript(sweepCfg)

		retries, err := errorToleranceRun(newStore, script, sweepCfg)
		if err != nil {
			return res, fmt.Errorf("crashsoak: iteration %d (seed %d): error run: %w", it, seed, err)
		}
		res.Retries += retries

		total, err := countPersists(newStore, script, sweepCfg)
		if err != nil {
			return res, fmt.Errorf("crashsoak: iteration %d (seed %d): clean run: %w", it, seed, err)
		}
		res.PersistEvents += total
		point := 1 + rand.New(rand.NewSource(seed^0x5eed)).Int63n(total)
		if err := runCrashPoint(newStore, script, sweepCfg, point, device.TearRandom); err != nil {
			return res, fmt.Errorf("crashsoak: iteration %d (seed %d): point %d/%d: %w", it, seed, point, total, err)
		}
		res.CrashPoints++
		logf(cfg.Logf, "crashsoak: iteration %d: %d persists, crashed+recovered at %d, %d retries so far",
			it, total, point, res.Retries)
	}
	res.Iterations = cfg.Iterations
	return res, nil
}

// errorToleranceRun executes the script with transient allocation errors
// injected at soakErrorProb, retrying each failed op (a failed op may have
// partially applied; puts and deletes are idempotent, so the retry
// converges). The final state must exactly match the model.
func errorToleranceRun(newStore NewStoreFunc, script []scriptOp, cfg SweepConfig) (int64, error) {
	const maxRetries = 200
	st, err := newStore()
	if err != nil {
		return 0, err
	}
	defer st.Close()
	dev, err := deviceOf(st)
	if err != nil {
		return 0, err
	}
	plan := &device.FaultPlan{ErrorProb: soakErrorProb, Seed: cfg.Seed ^ 0x7e57}
	dev.InstallFaultPlan(plan)

	se := st.NewSession(simclock.New(0))
	applied := make(map[int]string)
	var retries int64
	for n, op := range script {
		for attempt := 0; ; attempt++ {
			var err error
			switch op.kind {
			case opPut:
				err = se.Put(sweepKey(op.key), op.val)
			case opDelete:
				err = se.Delete(sweepKey(op.key))
			case opFlush:
				err = se.Flush()
			case opGet:
				// Exactness is only guaranteed once the preceding op's retry
				// succeeded, which holds here; a get itself never allocates
				// but tolerate injected errors uniformly anyway.
				var got []byte
				var ok bool
				got, ok, err = se.Get(sweepKey(op.key))
				if err == nil {
					want, wantOK := applied[op.key]
					if ok != wantOK || (ok && string(got) != want) {
						return retries, fmt.Errorf("op %d: get key %d = %q,%v want %q,%v",
							n, op.key, trunc(got), ok, trunc([]byte(want)), wantOK)
					}
				}
			}
			if err == nil {
				break
			}
			if !errors.Is(err, device.ErrInjected) || attempt >= maxRetries {
				return retries, fmt.Errorf("op %d (%v), attempt %d: %w", n, op.kind, attempt+1, err)
			}
			retries++
		}
		switch op.kind {
		case opPut:
			applied[op.key] = string(op.val)
		case opDelete:
			delete(applied, op.key)
		}
	}
	for key := 0; key < cfg.Keys; key++ {
		got, ok, err := se.Get(sweepKey(key))
		if err != nil {
			return retries, fmt.Errorf("final get key %d: %w", key, err)
		}
		want, wantOK := applied[key]
		if ok != wantOK || (ok && string(got) != want) {
			return retries, fmt.Errorf("final state: key %d = %q,%v want %q,%v",
				key, trunc(got), ok, trunc([]byte(want)), wantOK)
		}
	}
	return retries, nil
}
