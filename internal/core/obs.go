package core

import (
	"chameleondb/internal/device/filedev"
	"chameleondb/internal/histogram"
	"chameleondb/internal/obs"
)

// buildRegistry absorbs the store's operation counters, the device's media
// counters, and the log's totals behind one snapshot API, and attaches the
// per-operation latency histograms. Called once from OpenOn; all registered
// read functions are safe to call from any goroutine while sessions run.
func (s *Store) buildRegistry() {
	r := obs.NewRegistry("chameleondb")
	st := &s.stats
	r.CounterFunc("puts", st.Puts.Load)
	r.CounterFunc("deletes", st.Deletes.Load)
	r.CounterFunc("flushes", st.Flushes.Load)
	r.CounterFunc("spills", st.Spills.Load)
	r.CounterFunc("upper_compactions", st.UpperCompactions.Load)
	r.CounterFunc("last_compactions", st.LastCompactions.Load)
	r.CounterFunc("abi_dumps", st.Dumps.Load)
	r.CounterFunc("gpm_entries", st.GPMEntries.Load)
	r.CounterFunc("gpm_exits", st.GPMExits.Load)
	r.CounterFunc("hash_mismatches", st.HashMismatches.Load)
	r.CounterFunc("log_gcs", st.LogGCs.Load)
	r.CounterFunc("log_gc_relocated", st.LogGCRelocated.Load)
	r.CounterFunc("log_gc_dropped", st.LogGCDropped.Load)
	r.CounterFunc("view_publishes", st.ViewPublishes.Load)
	r.CounterFunc("tables_retired", st.TablesRetired.Load)
	r.CounterFunc("tables_reclaimed", st.TablesReclaimed.Load)
	r.CounterFunc("gets_memtable", st.GetMemTable.Load)
	r.CounterFunc("gets_abi", st.GetABI.Load)
	r.CounterFunc("gets_dumped", st.GetDumped.Load)
	r.CounterFunc("gets_upper", st.GetUpper.Load)
	r.CounterFunc("gets_last", st.GetLast.Load)
	r.CounterFunc("gets_miss", st.GetMiss.Load)
	r.CounterFunc("mem_freezes", st.MemFreezes.Load)
	r.CounterFunc("put_slowdowns", st.PutSlowdowns.Load)
	r.CounterFunc("put_stalls", st.PutStalls.Load)
	r.CounterFunc("maint_jobs_flush", st.MaintJobsFlush.Load)
	r.CounterFunc("maint_jobs_spill", st.MaintJobsSpill.Load)
	r.CounterFunc("maint_jobs_compact", st.MaintJobsCompact.Load)
	r.CounterFunc("maint_jobs_last_level", st.MaintJobsLastLevel.Load)
	r.CounterFunc("maint_jobs_skipped", st.MaintJobsSkipped.Load)
	r.CounterFunc("core_abi_moves_grown", st.ABIMovesGrown.Load)
	r.CounterFunc("core_abi_moves_failed_placement", st.ABIMovesFailed.Load)
	r.CounterFunc("core_abi_moves_back", st.ABIMovesBack.Load)
	r.CounterFunc("core_abi_moves_settled", st.ABIMovesSettled.Load)
	for p, name := range mediaPurposeNames {
		r.CounterFunc("core_media_bytes_"+name, func() int64 { return s.mediaBytes(mediaPurpose(p)) })
	}
	obs.RegisterDevice(r, s.dev)
	obs.RegisterLog(r, s.log)
	if fd, ok := s.arena.Medium().(*filedev.Dev); ok {
		fd.Register(r)
	}
	r.GaugeFunc("gpm_active", func() int64 {
		if s.gpmActive.Load() {
			return 1
		}
		return 0
	})
	r.GaugeFunc("write_intensive", func() int64 {
		if s.writeIntensive.Load() {
			return 1
		}
		return 0
	})
	r.GaugeFunc("dram_footprint_bytes", s.DRAMFootprint)
	for p, name := range dramPurposeNames {
		r.GaugeFunc("core_dram_bytes_"+name, func() int64 { return s.dramBytes()[p] })
	}
	// The ABIs' summed capacity: each grows with what it holds, up to
	// Config.ABISlots.
	r.GaugeFunc("core_abi_slots", func() int64 {
		var n int64
		for _, sh := range s.shards {
			if abi := sh.view.Load().abi(); abi != nil {
				n += int64(abi.Cap())
			}
		}
		return n
	})
	// Maintenance-pool gauges read the pool's atomic mirrors; with
	// MaintenanceWorkers == 0 they are constant zero (the pool is nil — but
	// buildRegistry runs before the pool exists, so the closures re-check).
	r.GaugeFunc("maintenance_queue_depth", func() int64 {
		if s.maint == nil {
			return 0
		}
		return s.maint.queued.Load()
	})
	r.GaugeFunc("maintenance_workers_busy", func() int64 {
		if s.maint == nil {
			return 0
		}
		return s.maint.busy.Load()
	})
	r.Histogram("put_stall_ns", &s.lat.putStall)
	r.Histogram("job_duration_ns", &s.lat.jobDur)
	r.Histogram("put_latency_ns", &s.lat.put)
	for i := range s.lat.get {
		r.Histogram("get_latency_ns_"+getSource(i).String(), &s.lat.get[i])
	}
	s.reg = r
}

// Registry returns the store's metrics registry.
func (s *Store) Registry() *obs.Registry { return s.reg }

// Trace returns the store's event trace, or nil when Config.TraceEvents is 0.
func (s *Store) Trace() *obs.Trace { return s.trace }

// PutLatency returns the live put-latency histogram (deletes included:
// tombstones take the same write path).
func (s *Store) PutLatency() *histogram.Histogram { return &s.lat.put }

// GetLatencyBySource returns the live get-latency histograms keyed by the
// structure that resolved the get ("memtable", "abi", "dumped", "upper",
// "last", "miss") — the Figure 6 breakdown measured in place.
func (s *Store) GetLatencyBySource() map[string]*histogram.Histogram {
	out := make(map[string]*histogram.Histogram, numGetSources)
	for i := range s.lat.get {
		out[getSource(i).String()] = &s.lat.get[i]
	}
	return out
}
