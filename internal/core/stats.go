package core

import (
	"sync/atomic"

	"chameleondb/internal/histogram"
)

// Stats aggregates the store's operation counters (atomics; snapshot with
// Snapshot).
type Stats struct {
	Puts             atomic.Int64
	Deletes          atomic.Int64
	Flushes          atomic.Int64
	Spills           atomic.Int64
	UpperCompactions atomic.Int64
	LastCompactions  atomic.Int64
	Dumps            atomic.Int64
	GPMEntries       atomic.Int64
	GPMExits         atomic.Int64
	HashMismatches   atomic.Int64
	LogGCs           atomic.Int64
	LogGCRelocated   atomic.Int64
	LogGCDropped     atomic.Int64

	// Read-path concurrency machinery: shard-view publications by writers,
	// and persisted tables handed to / released by epoch reclamation.
	ViewPublishes   atomic.Int64
	TablesRetired   atomic.Int64
	TablesReclaimed atomic.Int64

	GetMemTable atomic.Int64
	GetABI      atomic.Int64
	GetDumped   atomic.Int64
	GetUpper    atomic.Int64
	GetLast     atomic.Int64
	GetMiss     atomic.Int64

	// Maintenance pool: MemTable freezes handed to the workers, backpressure
	// events on the put path, and per-kind counts of the jobs the workers ran
	// (jobs run inline on a store without a pool are not counted).
	MemFreezes         atomic.Int64
	PutSlowdowns       atomic.Int64
	PutStalls          atomic.Int64
	MaintJobsFlush     atomic.Int64
	MaintJobsSpill     atomic.Int64
	MaintJobsCompact   atomic.Int64
	MaintJobsLastLevel atomic.Int64
	MaintJobsSkipped   atomic.Int64

	// ABI moves by cause, each one copy of the ABI's entries into a fresh
	// table: growing ahead of the entries a batch is expected to gain (or of
	// the recovery rebuild), a placement that found no room (in an insert, or
	// in a move's copy, which starts over one size up), moving back into the
	// table a batch of updates started in, and settling into the table that
	// holds the ABI at abiFullFraction (DESIGN.md §3).
	ABIMovesGrown   atomic.Int64
	ABIMovesFailed  atomic.Int64
	ABIMovesBack    atomic.Int64
	ABIMovesSettled atomic.Int64
}

// mediaPurpose names what a persist was for. Every persist a store issues is
// booked under exactly one purpose, so the purposes sum to the device's
// MediaBytesWritten (TestMediaBytesByPurposeSumExactly).
type mediaPurpose int

const (
	mediaLog      mediaPurpose = iota // client appends to the storage log
	mediaFlush                        // MemTable flushes to L0 tables
	mediaUpper                        // upper-level compactions
	mediaLast                         // last-level compactions
	mediaDump                         // Get-Protect ABI dumps
	mediaManifest                     // shard manifests
	mediaGC                           // log GC's relocation appends
	numMediaPurposes
)

var mediaPurposeNames = [numMediaPurposes]string{
	"log", "flush", "upper_compaction", "last_compaction", "abi_dump", "manifest", "gc_relocation",
}

// mediaBytes returns the media bytes written so far for one purpose. The log
// counts its own persists, relocation included; GC books its appender's share
// when it finishes, and the client share is the rest.
func (s *Store) mediaBytes(p mediaPurpose) int64 {
	if p == mediaLog {
		return s.log.MediaBytes() - s.media[mediaGC].Load()
	}
	return s.media[p].Load()
}

// MediaBytesByPurpose splits DeviceStats().MediaBytesWritten by what the
// bytes were written for: "log", "flush", "upper_compaction",
// "last_compaction", "abi_dump", "manifest", "gc_relocation".
func (s *Store) MediaBytesByPurpose() map[string]int64 {
	out := make(map[string]int64, numMediaPurposes)
	for p, name := range mediaPurposeNames {
		out[name] = s.mediaBytes(mediaPurpose(p))
	}
	return out
}

// dramPurpose names what a byte of DRAMFootprint is held for; the purposes
// sum to it exactly (TestDRAMBytesByPurposeSumExactly).
type dramPurpose int

const (
	dramMemTable     dramPurpose = iota // live MemTables
	dramFrozen                          // frozen MemTables awaiting flush or spill
	dramABI                             // Auxiliary Bypass Indexes
	dramAccelerators                    // Pmem-LSM variants' bloom filters and pinned tables
	dramGPMWindow                       // Get-Protect monitor's sample window
	numDRAMPurposes
)

var dramPurposeNames = [numDRAMPurposes]string{
	"memtable", "frozen", "abi", "accelerators", "gpm_window",
}

// DRAMBytesByPurpose splits DRAMFootprint by what the bytes are held for:
// "memtable", "frozen", "abi", "accelerators", "gpm_window".
func (s *Store) DRAMBytesByPurpose() map[string]int64 {
	by := s.dramBytes()
	out := make(map[string]int64, numDRAMPurposes)
	for p, name := range dramPurposeNames {
		out[name] = by[p]
	}
	return out
}

func (st *Stats) countGet(src getSource) {
	switch src {
	case srcMemTable:
		st.GetMemTable.Add(1)
	case srcABI:
		st.GetABI.Add(1)
	case srcDumped:
		st.GetDumped.Add(1)
	case srcUpper:
		st.GetUpper.Add(1)
	case srcLast:
		st.GetLast.Add(1)
	default:
		st.GetMiss.Add(1)
	}
}

// latencies holds the per-operation latency histograms (virtual nanoseconds).
// Gets are keyed by the structure that resolved them, so the Figure 6
// per-structure breakdown and the Figure 9-11 tails come from the live store.
// Recording is atomic increments only — it never touches a virtual clock, so
// benchmark timings are unaffected.
type latencies struct {
	put histogram.Histogram
	get [numGetSources]histogram.Histogram

	// Wall-clock histograms for the maintenance pipeline: time puts spend
	// blocked in backpressure, and background job durations. These are real
	// nanoseconds, not virtual — the pipeline's win is wall-clock.
	putStall histogram.Histogram
	jobDur   histogram.Histogram
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	Puts             int64
	Deletes          int64
	Flushes          int64
	Spills           int64
	UpperCompactions int64
	LastCompactions  int64
	Dumps            int64
	GPMEntries       int64
	GPMExits         int64
	HashMismatches   int64
	LogGCs           int64
	LogGCRelocated   int64
	LogGCDropped     int64
	ViewPublishes    int64
	TablesRetired    int64
	TablesReclaimed  int64
	GetMemTable      int64
	GetABI           int64
	GetDumped        int64
	GetUpper         int64
	GetLast          int64
	GetMiss          int64

	MemFreezes         int64
	PutSlowdowns       int64
	PutStalls          int64
	MaintJobsFlush     int64
	MaintJobsSpill     int64
	MaintJobsCompact   int64
	MaintJobsLastLevel int64
	MaintJobsSkipped   int64

	ABIMovesGrown   int64
	ABIMovesFailed  int64
	ABIMovesBack    int64
	ABIMovesSettled int64
}

// Stats returns a snapshot of the operation counters.
func (s *Store) Stats() StatsSnapshot {
	return StatsSnapshot{
		Puts:             s.stats.Puts.Load(),
		Deletes:          s.stats.Deletes.Load(),
		Flushes:          s.stats.Flushes.Load(),
		Spills:           s.stats.Spills.Load(),
		UpperCompactions: s.stats.UpperCompactions.Load(),
		LastCompactions:  s.stats.LastCompactions.Load(),
		Dumps:            s.stats.Dumps.Load(),
		GPMEntries:       s.stats.GPMEntries.Load(),
		GPMExits:         s.stats.GPMExits.Load(),
		HashMismatches:   s.stats.HashMismatches.Load(),
		LogGCs:           s.stats.LogGCs.Load(),
		LogGCRelocated:   s.stats.LogGCRelocated.Load(),
		LogGCDropped:     s.stats.LogGCDropped.Load(),
		ViewPublishes:    s.stats.ViewPublishes.Load(),
		TablesRetired:    s.stats.TablesRetired.Load(),
		TablesReclaimed:  s.stats.TablesReclaimed.Load(),
		GetMemTable:      s.stats.GetMemTable.Load(),
		GetABI:           s.stats.GetABI.Load(),
		GetDumped:        s.stats.GetDumped.Load(),
		GetUpper:         s.stats.GetUpper.Load(),
		GetLast:          s.stats.GetLast.Load(),
		GetMiss:          s.stats.GetMiss.Load(),

		MemFreezes:         s.stats.MemFreezes.Load(),
		PutSlowdowns:       s.stats.PutSlowdowns.Load(),
		PutStalls:          s.stats.PutStalls.Load(),
		MaintJobsFlush:     s.stats.MaintJobsFlush.Load(),
		MaintJobsSpill:     s.stats.MaintJobsSpill.Load(),
		MaintJobsCompact:   s.stats.MaintJobsCompact.Load(),
		MaintJobsLastLevel: s.stats.MaintJobsLastLevel.Load(),
		MaintJobsSkipped:   s.stats.MaintJobsSkipped.Load(),

		ABIMovesGrown:   s.stats.ABIMovesGrown.Load(),
		ABIMovesFailed:  s.stats.ABIMovesFailed.Load(),
		ABIMovesBack:    s.stats.ABIMovesBack.Load(),
		ABIMovesSettled: s.stats.ABIMovesSettled.Load(),
	}
}

// RecoverTimes reports the virtual nanoseconds of the last Recover call:
// ready is when the store could serve requests again (Table 4's restart
// time); full additionally includes the background ABI rebuild.
func (s *Store) RecoverTimes() (ready, full int64) {
	return s.lastRecoverReadyNs, s.lastRecoverFullNs
}
