package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"chameleondb"
	"chameleondb/internal/core"
	"chameleondb/internal/hotcache"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/server"
	"chameleondb/internal/simclock"
	"chameleondb/internal/wlog"
)

// embSession is what the embedded workers and the read-back need from a
// session; *chameleondb.Session and every kvstore session with GetInto
// satisfy it.
type embSession interface {
	Put(key, value []byte) error
	GetInto(key, dst []byte) ([]byte, bool, error)
	Flush() error
}

// handle is the store under test as the drivers see it, however it was
// assembled: behind the facade (embedded-mixed, untraced) or from core +
// hotcache directly (wire workloads, and every traced run, whose interposers
// must sit on both sides of hotcache.Wrap).
type handle interface {
	session() embSession
	mediaBytes() int64 // device.Stats.MediaBytesWritten
	dramBytes() int64  // DRAMFootprint of the cache-wrapped store
	crash()
	recover() error
	close() error
}

type facadeHandle struct{ db *chameleondb.DB }

func (h facadeHandle) session() embSession { return h.db.NewSession() }
func (h facadeHandle) mediaBytes() int64   { return h.db.Stats().MediaBytesWritten }
func (h facadeHandle) dramBytes() int64    { return h.db.Stats().DRAMFootprintBytes }
func (h facadeHandle) crash()              { h.db.Crash() }
func (h facadeHandle) close() error        { return h.db.Close() }
func (h facadeHandle) recover() error {
	_, _, err := h.db.Recover()
	return err
}

// coreHandle is the serving stack's store half: the engine, the shared hot
// cache, and the cache-wrapped view the server builds from them.
type coreHandle struct {
	st    *core.Store
	cache *hotcache.Cache
	kv    kvstore.Store // hotcache.Wrap(st, cache)
}

func newCoreHandle(st *core.Store, cache *hotcache.Cache) *coreHandle {
	return &coreHandle{st: st, cache: cache, kv: hotcache.Wrap(st, cache)}
}

func (h *coreHandle) session() embSession {
	return h.kv.NewSession(simclock.New(0)).(embSession)
}
func (h *coreHandle) mediaBytes() int64 { return h.st.DeviceStats().MediaBytesWritten }
func (h *coreHandle) dramBytes() int64  { return h.kv.DRAMFootprint() }
func (h *coreHandle) crash()            { h.kv.Crash() }
func (h *coreHandle) recover() error    { return h.kv.Recover(simclock.New(0)) }
func (h *coreHandle) close() error      { return h.kv.Close() }

// cacheBytes is the hot cache's capacity: 10 % of the keyspace at the
// cache's accounted cost per 8 B/8 B entry (64 B overhead + key + value).
func cacheBytes(keys int) int64 { return int64(keys/10) * (64 + keyLen + valLen) }

// sizing returns the arena and log budget for a run. It follows the shape of
// internal/bench.chameleonConfig — a multiple of the keyspace for the log,
// index slots per key for the tables — at half its multiples, plus what that
// harness does not have: the run's write volume (entries, and one abandoned
// 4 KiB chunk per durable flush, since a flush seals the session's chunk) and
// log segments for every session ever opened (each appender claims a private
// one). It is deliberately tight: Crash copies the whole arena, and on this
// kind of host first-touched memory is the slowest thing there is (a 1.5 GB
// arena made Crash take 1-40 s run to run), so every spare megabyte is noise
// in setup_s and wall clock spent on nothing.
func sizing(keys, puts, flushes int) (arena, log int64) {
	log = 3 * int64(keys) * wlog.EntrySize(keyLen, valLen)
	if log < 16<<20 {
		log = 16 << 20
	}
	log += int64(puts)*wlog.EntrySize(keyLen, valLen) + int64(flushes)*wlog.DefaultChunkSize
	log += 24 * wlog.DefaultSegmentSize
	idx := 12*int64(keys)*16 + 64<<16
	if idx < 32<<20 {
		idx = 32 << 20
	}
	return log + idx, log
}

// serverConfig is what cmd/chameleon-server builds from its flag defaults:
// core.DefaultConfig at 64 shards (512-slot MemTables, 32768-slot ABIs) with
// the serving-shaped maintenance pool. Only the arena and log are sized to
// the run instead of the flags' 512/256 MB.
func serverConfig(keys, puts, flushes int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Shards = 64
	cfg.ArenaBytes, cfg.LogBytes = sizing(keys, puts, flushes)
	cfg.MaintenanceWorkers = core.DefaultMaintenanceWorkers(cfg.Shards)
	return cfg
}

// embeddedOptions is chameleondb.DefaultOptions — its geometry, inline
// maintenance — with the hot cache on and the arena and log sized to the run
// instead of the default 1.5 GB / 1 GB (see sizing).
func embeddedOptions(keys, puts int) chameleondb.Options {
	o := chameleondb.DefaultOptions()
	o.HotCacheBytes = cacheBytes(keys)
	o.ArenaBytes, o.LogBytes = sizing(keys, puts, 0)
	return o
}

// embeddedCoreConfig is the core.Config the facade derives from o
// (chameleondb.Options.coreConfig is unexported): the traced run assembles
// the same stack by hand so its interposers can sit inside hotcache.Wrap.
// TestEmbeddedStackMatchesFacade fails when this mapping and the facade's
// drift apart.
func embeddedCoreConfig(o chameleondb.Options) core.Config {
	cfg := core.DefaultConfig()
	cfg.Shards = o.Shards
	cfg.MemTableSlots = o.MemTableSlots
	cfg.Levels = o.Levels
	cfg.Ratio = o.Ratio
	cfg.LoadFactorMin = o.LoadFactorMin
	cfg.LoadFactorMax = o.LoadFactorMax
	cfg.ABISlots = o.ABISlots
	cfg.ArenaBytes = o.ArenaBytes
	cfg.LogBytes = o.LogBytes
	cfg.CompactionMode = core.DirectCompaction
	if o.CompactionMode == chameleondb.LevelByLevel {
		cfg.CompactionMode = core.LevelByLevel
	}
	cfg.WriteIntensive = o.WriteIntensive
	cfg.MaintenanceWorkers = o.MaintenanceWorkers
	cfg.GetProtect = core.GPMConfig{
		Enabled:          o.GetProtect.Enabled,
		EnterThresholdNs: o.GetProtect.EnterThresholdNs,
		ExitThresholdNs:  o.GetProtect.ExitThresholdNs,
		MaxDumps:         o.GetProtect.MaxDumps,
		WindowSize:       4096,
		SampleEvery:      16,
	}
	cfg.Seed = o.Seed
	return cfg
}

// preload writes every key at version 1 through one session, flushes it and
// leaves the store quiescent.
func preload(se embSession, keys int, versions []uint32) error {
	var key, val [8]byte
	for i := 0; i < keys; i++ {
		putKey(key[:], uint32(i))
		putValue(val[:], uint32(i), 1)
		if err := se.Put(key[:], val[:]); err != nil {
			return fmt.Errorf("preload key %d: %w", i, err)
		}
		versions[i] = 1
	}
	if err := se.Flush(); err != nil {
		return fmt.Errorf("preload flush: %w", err)
	}
	if r, ok := se.(interface{ Release() error }); ok {
		return r.Release()
	}
	return nil
}

// running is one live RESP server over a store.
type running struct {
	srv      *server.Server
	serveErr chan error
	addr     string
}

// serve starts a server the way cmd/chameleon-server does: zero-value
// server.Config apart from the address, so the shipped defaults — durable
// acks, 200us/64 group commit, 128-command batches — are what is measured.
// A non-nil cache goes in Config.Cache (the production wiring); the traced
// run passes a pre-wrapped, interposed store and a nil cache instead.
func serve(store kvstore.Store, cache *hotcache.Cache) (*running, error) {
	srv := server.New(store, server.Config{Addr: "127.0.0.1:0", Cache: cache})
	if err := srv.Listen(); err != nil {
		return nil, err
	}
	r := &running{srv: srv, serveErr: make(chan error, 1), addr: srv.Addr().String()}
	go func() { r.serveErr <- srv.Serve() }()
	return r, nil
}

// stop drains the server and waits for its accept loop to end.
func (r *running) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	if serr := <-r.serveErr; err == nil {
		err = serr
	}
	return err
}

// scratchRoot is where file-backend directories live: inside the working
// directory, because the benchmark may only write inside its checkout.
const scratchRoot = ".bench_tmp"

func newScratchDir() (string, error) {
	if err := os.MkdirAll(scratchRoot, 0o777); err != nil {
		return "", err
	}
	return os.MkdirTemp(scratchRoot, "run-")
}
