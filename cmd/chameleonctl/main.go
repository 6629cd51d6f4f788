// Command chameleonctl is an interactive shell over a ChameleonDB instance:
// put/get/delete keys, fill with synthetic data, crash and recover the
// simulated device, toggle Write-Intensive Mode, and inspect engine
// statistics. Useful for exploring the store's behaviour by hand.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"chameleondb"
	"chameleondb/internal/core"
	"chameleondb/internal/hotcache"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/storetest"
)

const help = `commands:
  put <key> <value>     insert or update a key
  get <key>             read a key
  del <key>             delete a key
  fill <n>              insert n synthetic keys (fill:<seq>)
  flush                 make acknowledged writes durable
  crash                 simulate power failure
  recover               recover after crash (prints restart time)
  wim on|off            toggle Write-Intensive Mode
  stats                 engine statistics
  help                  this text
  quit                  exit`

// crashSweepCmd runs the exhaustive crash-point conformance sweep from the
// command line: a scripted workload is run once to count persist events, then
// re-run crashing (and optionally tearing) at every persist index, recovering,
// and checking durability invariants. Exits non-zero on the first violation.
func crashSweepCmd(args []string) {
	fs := flag.NewFlagSet("crashsweep", flag.ExitOnError)
	var (
		seed    = fs.Int64("seed", 1, "workload script seed")
		mode    = fs.String("mode", "direct", "compaction mode: direct, lbl, or wim")
		ops     = fs.Int("ops", 1500, "scripted operations")
		keys    = fs.Int("keys", 96, "key-space size")
		stride  = fs.Int("stride", 1, "test every stride-th crash point")
		tear    = fs.Bool("tear", true, "also replay each point with torn persists")
		maint   = fs.Int("maintenance-workers", 0, "background maintenance workers (0: inline maintenance, fully deterministic sweep)")
		scanEv  = fs.Int("scan-every", 0, "interleave a full snapshot scan every N ops, checked exactly against applied state (0: off)")
		backend = fs.String("backend", "sim", "persistence backend: sim, or file (one fresh directory per crash point, every Recover a real cold reopen)")
		dir     = fs.String("dir", "", "parent directory for -backend=file sweep stores (default: a temp dir, removed on success)")
		cacheB  = fs.Int64("hotcache-bytes", 0, "run the sweep through a hot-key DRAM cache of this capacity (0: off); the cache is volatile, so every crash point also checks cold-cache recovery")
	)
	fs.Parse(args)

	cfg := core.TestConfig()
	cfg.Shards = 4
	cfg.MemTableSlots = 32
	cfg.Levels = 3
	cfg.Ratio = 2
	cfg.ArenaBytes = 2 << 20
	cfg.LogBytes = 128 << 10
	cfg.MaintenanceWorkers = *maint
	switch *mode {
	case "direct":
	case "lbl":
		cfg.CompactionMode = core.LevelByLevel
	case "wim":
		cfg.WriteIntensive = true
	default:
		fmt.Fprintf(os.Stderr, "unknown -mode %q (want direct, lbl, or wim)\n", *mode)
		os.Exit(2)
	}

	newStore := func() (kvstore.Store, error) { return core.Open(cfg) }
	switch *backend {
	case "sim":
	case "file":
		base := *dir
		if base == "" {
			tmp, err := os.MkdirTemp("", "chameleon-sweep-")
			if err != nil {
				fmt.Fprintln(os.Stderr, "crashsweep:", err)
				os.Exit(1)
			}
			defer os.RemoveAll(tmp)
			base = tmp
		}
		newStore = func() (kvstore.Store, error) {
			d, err := os.MkdirTemp(base, "point-")
			if err != nil {
				return nil, err
			}
			s, _, err := core.OpenFile(cfg, d)
			if err != nil {
				return nil, err
			}
			return storetest.NewReopening(s, func() (kvstore.Store, error) {
				s, existing, err := core.OpenFile(cfg, d)
				if err != nil {
					return nil, err
				}
				if !existing {
					s.Close()
					return nil, fmt.Errorf("reopen of %s found no durable state", d)
				}
				return s, nil
			}), nil
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown -backend %q (want sim or file)\n", *backend)
		os.Exit(2)
	}

	if *cacheB > 0 {
		// One fresh cache per store instance: the sweep's oracle then drives
		// every read and write through the interposer, so a stale hit or a
		// warm post-crash cache shows up as a durability violation.
		inner := newStore
		newStore = func() (kvstore.Store, error) {
			st, err := inner()
			if err != nil {
				return nil, err
			}
			return hotcache.Wrap(st, hotcache.New(*cacheB)), nil
		}
	}

	start := time.Now()
	res, err := storetest.CrashSweep(
		newStore,
		storetest.SweepConfig{
			Seed:          *seed,
			Ops:           *ops,
			Keys:          *keys,
			MaxValueLen:   120,
			FlushEvery:    20,
			MaintainEvery: 50,
			ScanEvery:     *scanEv,
			Maintenance:   storetest.StandardMaintenance(),
			Stride:        *stride,
			Tear:          *tear,
			// With background workers the persist stream shifts run to
			// run, so a point recorded near the tail may not be reached
			// on replay; treat those as end-of-script crashes.
			AllowUntriggered: *maint > 0,
			Logf: func(format string, a ...any) {
				fmt.Printf(format+"\n", a...)
			},
		})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crashsweep FAILED:", err)
		os.Exit(1)
	}
	fmt.Printf("crashsweep OK (mode=%s seed=%d): %s in %.1fs\n",
		*mode, *seed, res, time.Since(start).Seconds())
}

// printByPurpose prints one line of byte counts in MB, purposes sorted.
func printByPurpose(label string, by map[string]int64) {
	purposes := make([]string, 0, len(by))
	for p := range by {
		purposes = append(purposes, p)
	}
	sort.Strings(purposes)
	fmt.Print(label)
	for _, p := range purposes {
		fmt.Printf(" %s=%.1fMB", p, float64(by[p])/(1<<20))
	}
	fmt.Println()
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "crashsweep" {
		crashSweepCmd(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "stats" {
		statsCmd(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "ping" {
		pingCmd(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "repl" {
		replCmd(os.Args[2:])
		return
	}
	var (
		shards    = flag.Int("shards", 64, "index shards (power of two)")
		maintWork = flag.Int("maintenance-workers", 0, "background maintenance workers (0: inline maintenance)")
		cacheB    = flag.Int64("hotcache-bytes", 0, "hot-key DRAM read cache capacity in bytes (0: off)")
	)
	flag.Parse()

	opts := chameleondb.DefaultOptions()
	opts.Shards = *shards
	opts.MaintenanceWorkers = *maintWork
	opts.HotCacheBytes = *cacheB
	db, err := chameleondb.Open(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer db.Close()
	fmt.Printf("%s ready — 'help' for commands\n", db)

	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			fmt.Print("> ")
			continue
		}
		switch cmd := fields[0]; cmd {
		case "put":
			if len(fields) != 3 {
				fmt.Println("usage: put <key> <value>")
				break
			}
			if err := db.Put([]byte(fields[1]), []byte(fields[2])); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("ok")
			}
		case "get":
			if len(fields) != 2 {
				fmt.Println("usage: get <key>")
				break
			}
			v, ok, err := db.Get([]byte(fields[1]))
			switch {
			case err != nil:
				fmt.Println("error:", err)
			case !ok:
				fmt.Println("(not found)")
			default:
				fmt.Printf("%q\n", v)
			}
		case "del":
			if len(fields) != 2 {
				fmt.Println("usage: del <key>")
				break
			}
			if err := db.Delete([]byte(fields[1])); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("ok")
			}
		case "fill":
			if len(fields) != 2 {
				fmt.Println("usage: fill <n>")
				break
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				fmt.Println("usage: fill <n>")
				break
			}
			s := db.NewSession()
			for i := 0; i < n; i++ {
				if err := s.Put([]byte(fmt.Sprintf("fill:%08d", i)), []byte("synthetic")); err != nil {
					fmt.Println("error:", err)
					break
				}
			}
			fmt.Printf("inserted %d keys in %.2f ms virtual\n", n, float64(s.VirtualNanos())/1e6)
		case "flush":
			if err := db.Flush(); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("ok")
			}
		case "crash":
			db.Crash()
			fmt.Println("crashed: volatile state lost; run 'recover'")
		case "recover":
			ready, full, err := db.Recover()
			if err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Printf("recovered: ready in %.2f ms virtual (full %.2f ms)\n",
					float64(ready)/1e6, float64(full)/1e6)
			}
		case "wim":
			if len(fields) != 2 || (fields[1] != "on" && fields[1] != "off") {
				fmt.Println("usage: wim on|off")
				break
			}
			db.SetWriteIntensive(fields[1] == "on")
			fmt.Println("ok")
		case "stats":
			st := db.Stats()
			fmt.Printf("puts=%d deletes=%d flushes=%d spills=%d upperCompactions=%d lastCompactions=%d dumps=%d\n",
				st.Puts, st.Deletes, st.Flushes, st.Spills, st.UpperCompactions, st.LastCompactions, st.Dumps)
			fmt.Printf("gets: memtable=%d abi=%d dumped=%d upper=%d last=%d miss=%d\n",
				st.GetMemTable, st.GetABI, st.GetDumped, st.GetUpper, st.GetLast, st.GetMiss)
			fmt.Printf("media: written=%.1fMB read=%.1fMB writeAmp=%.2f dram=%.1fMB\n",
				float64(st.MediaBytesWritten)/(1<<20), float64(st.MediaBytesRead)/(1<<20),
				st.WriteAmplification(), float64(st.DRAMFootprintBytes)/(1<<20))
			printByPurpose("media written for:", db.MediaBytesByPurpose())
			printByPurpose("dram held for:", db.DRAMBytesByPurpose())
			fmt.Printf("maintenance: freezes=%d slowdowns=%d stalls=%d jobs(flush=%d spill=%d compact=%d last=%d)\n",
				st.MemFreezes, st.PutSlowdowns, st.PutStalls,
				st.MaintJobsFlush, st.MaintJobsSpill, st.MaintJobsCompact, st.MaintJobsLast)
		case "help":
			fmt.Println(help)
		case "quit", "exit":
			return
		default:
			fmt.Printf("unknown command %q — 'help' for commands\n", cmd)
		}
		fmt.Print("> ")
	}
}
