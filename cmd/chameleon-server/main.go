// Command chameleon-server serves a ChameleonDB store over TCP speaking the
// RESP protocol, so any redis client can drive it:
//
//	chameleon-server -addr 127.0.0.1:6379 &
//	redis-cli -p 6379 SET k v
//	redis-cli -p 6379 GET k
//
// Supported commands: GET, SET, DEL, EXISTS, MGET, MSET, INCR, INCRBY, SCAN,
// MULTI, EXEC, DISCARD, REPLICAOF, WAIT, PING, INFO, FLUSHALL (a durability
// barrier, not a wipe), QUIT, COMMAND — DESIGN.md §7 has each one's semantics
// and deviations from redis. With -stats-addr set, the engine's observability
// endpoints (/stats.json, /metrics, /trace.jsonl) are served over HTTP with
// the server's wire metrics merged in under server_* names.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"chameleondb/internal/core"
	"chameleondb/internal/hotcache"
	"chameleondb/internal/obs"
	"chameleondb/internal/repl"
	"chameleondb/internal/server"
	"chameleondb/internal/simclock"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:6379", "RESP listen address")
		statsAddr   = flag.String("stats-addr", "", "serve /stats.json and /metrics on this HTTP address (empty: off)")
		shards      = flag.Int("shards", 64, "index shards (power of two)")
		arenaMB     = flag.Int64("arena-mb", 512, "persistent arena size (MB)")
		logMB       = flag.Int64("log-mb", 256, "write-ahead log budget (MB)")
		maxConns    = flag.Int("max-conns", 1024, "max concurrent client connections (<0: unlimited)")
		pipeline    = flag.Int("max-pipeline", 128, "max commands decoded per batch")
		asyncAck    = flag.Bool("async-ack", false, "acknowledge writes without flushing them (faster, weaker)")
		replyRetain = flag.Int("reply-retain", 0, "per-connection reply buffer bytes kept across batches (0: default 1MiB)")
		readTO      = flag.Duration("read-timeout", 5*time.Minute, "idle connection timeout (<0: none)")
		writeTO     = flag.Duration("write-timeout", time.Minute, "per-write socket deadline (<0: none)")
		maintWork   = flag.Int("maintenance-workers", -1, "background maintenance workers (0: run flushes/compactions inline on the put path; <0: min(shards, GOMAXPROCS))")
		backend     = flag.String("backend", "sim", "persistence backend: sim (in-memory simulated pmem) or file (fsync-backed segment files in -dir)")
		dir         = flag.String("dir", "", "data directory for -backend=file")
		replAddr    = flag.String("repl-addr", "", "replication listen address for log shipping to replicas (empty: off)")
		replicaOf   = flag.String("replicaof", "", "start as a replica of this primary's repl-addr (host:port)")
		replID      = flag.String("repl-id", "", "stable replica identity for GC holds across reconnects (default: local addr)")
		cacheBytes  = flag.Int64("hotcache-bytes", 0, "hot-key DRAM read cache capacity in bytes (0: off)")
	)
	flag.Parse()

	cfg := core.DefaultConfig()
	cfg.Shards = *shards
	cfg.ArenaBytes = *arenaMB << 20
	cfg.LogBytes = *logMB << 20
	if *maintWork < 0 {
		cfg.MaintenanceWorkers = core.DefaultMaintenanceWorkers(*shards)
	} else {
		cfg.MaintenanceWorkers = *maintWork
	}
	var st *core.Store
	var err error
	switch *backend {
	case "sim":
		st, err = core.Open(cfg)
	case "file":
		if *dir == "" {
			fmt.Fprintln(os.Stderr, "-backend=file requires -dir")
			os.Exit(2)
		}
		var existing bool
		st, existing, err = core.OpenFile(cfg, *dir)
		if err == nil && existing {
			// Reattach is a restart: replay the log before serving, so every
			// previously acknowledged write is readable from the first GET.
			start := time.Now()
			if err := st.Recover(simclock.New(0)); err != nil {
				fmt.Fprintln(os.Stderr, "recover:", err)
				os.Exit(1)
			}
			fmt.Printf("recovered %s in %s\n", *dir, time.Since(start).Round(time.Millisecond))
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown -backend %q (want sim or file)\n", *backend)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "open store:", err)
		os.Exit(1)
	}
	defer func() { st.Close() }()

	// Replication: start the repl node before the RESP server so a replica's
	// bootstrap (including a possible full-resync store swap) finishes before
	// any client can connect. ResetStore closes the stale store and reopens a
	// fresh one — for the file backend that wipes the data directory, since a
	// full resync replays the primary's entire live state from its log.
	// The hot-key cache is shared between the serving layer (which reads
	// through and invalidates it) and replication (whose applies bypass the
	// serving layer's sessions and so invalidate via OnApply). nil when off.
	cache := hotcache.New(*cacheBytes)

	var node *repl.Node
	if *replAddr != "" || *replicaOf != "" {
		rcfg := repl.Config{Addr: *replAddr, PrimaryAddr: *replicaOf, ID: *replID}
		rcfg.OnApply = cache.Invalidate
		old := st
		if *backend == "file" {
			dataDir := *dir
			rcfg.ResetStore = func() (*core.Store, error) {
				cache.InvalidateAll() // full resync: everything cached is suspect
				old.Close()
				if err := os.RemoveAll(dataDir); err != nil {
					return nil, err
				}
				fresh, _, err := core.OpenFile(cfg, dataDir)
				return fresh, err
			}
		} else {
			rcfg.ResetStore = func() (*core.Store, error) {
				cache.InvalidateAll()
				old.Close()
				return core.Open(cfg)
			}
		}
		node, err = repl.Start(st, rcfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "replication:", err)
			os.Exit(1)
		}
		defer node.Close()
		st = node.Store()
	}

	scfg := server.Config{
		Addr:             *addr,
		MaxConns:         *maxConns,
		MaxPipeline:      *pipeline,
		ReadTimeout:      *readTO,
		WriteTimeout:     *writeTO,
		AsyncAck:         *asyncAck,
		ReplyRetainBytes: *replyRetain,
	}
	if node != nil {
		scfg.Repl = node
	}
	scfg.Cache = cache
	srv := server.New(st, scfg)
	if err := srv.Listen(); err != nil {
		fmt.Fprintln(os.Stderr, "listen:", err)
		os.Exit(1)
	}
	fmt.Printf("chameleon-server listening on %s (backend=%s shards=%d arena=%dMB log=%dMB maintenance-workers=%d)\n",
		srv.Addr(), *backend, *shards, *arenaMB, *logMB, cfg.MaintenanceWorkers)
	if cache != nil {
		fmt.Printf("hotcache: %d bytes DRAM read cache\n", cache.Capacity())
	}
	if node != nil {
		if node.Role() == repl.RoleReplica {
			fmt.Printf("replication: replica of %s (repl-addr=%s)\n", *replicaOf, node.Addr())
		} else {
			fmt.Printf("replication: primary shipping on %s\n", node.Addr())
		}
	}

	if *statsAddr != "" {
		go func() {
			fmt.Printf("stats on http://%s/stats.json\n", *statsAddr)
			if err := http.ListenAndServe(*statsAddr, obs.Handler(srv.Registry().Snapshot, st.Trace())); err != nil {
				fmt.Fprintln(os.Stderr, "stats server:", err)
			}
		}()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("signal %s: draining...\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "shutdown:", err)
			os.Exit(1)
		}
		if err := <-serveErr; err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		fmt.Println("drained; bye")
	case err := <-serveErr:
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
	}
}
