package server

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"chameleondb/internal/obs"
)

// asciiEqualFold reports whether b equals s under ASCII case folding. The
// section names INFO matches against are ASCII, so this avoids the
// string(section) conversion a strings.EqualFold call would force on the
// command path.
func asciiEqualFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		cb, cs := b[i], s[i]
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if 'A' <= cs && cs <= 'Z' {
			cs += 'a' - 'A'
		}
		if cb != cs {
			return false
		}
	}
	return true
}

// appendPrefixed appends the "name:value" lines of the metrics whose names
// start with prefix, sorted by name.
func appendPrefixed(b []byte, metrics map[string]int64, prefix string) []byte {
	var names []string
	for name := range metrics {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		b = fmt.Appendf(b, "%s:%d\r\n", name, metrics[name])
	}
	return b
}

// infoText renders the INFO reply: redis-style "# Section\nkey:value" lines,
// restricted to one section when the client names one (section aliases the
// RESP arg buffer; it is read, never retained). The numbers are the same
// atomics the obs registry exports — INFO is the wire-side view of the same
// observability block /stats.json serves.
func (s *Server) infoText(section []byte) []byte {
	want := func(name string) bool {
		return len(section) == 0 || asciiEqualFold(section, name)
	}
	m := s.metrics
	var b []byte
	if want("server") {
		b = append(b, "# Server\r\n"...)
		b = fmt.Appendf(b, "store:%s\r\n", s.store.Name())
		b = fmt.Appendf(b, "uptime_in_seconds:%d\r\n", int64(time.Since(s.start).Seconds()))
		if a := s.Addr(); a != nil {
			b = fmt.Appendf(b, "tcp_addr:%s\r\n", a)
		}
		b = append(b, "\r\n"...)
	}
	if want("clients") {
		b = append(b, "# Clients\r\n"...)
		b = fmt.Appendf(b, "connected_clients:%d\r\n", m.ConnsOpen.Load())
		b = fmt.Appendf(b, "total_connections_received:%d\r\n", m.ConnsAccepted.Load())
		b = fmt.Appendf(b, "rejected_connections:%d\r\n", m.ConnsRejected.Load())
		b = append(b, "\r\n"...)
	}
	if want("stats") {
		b = append(b, "# Stats\r\n"...)
		b = fmt.Appendf(b, "total_commands_processed:%d\r\n", m.CmdsProcessed.Load())
		b = fmt.Appendf(b, "commands_in_flight:%d\r\n", m.CmdsInFlight.Load())
		b = fmt.Appendf(b, "protocol_errors:%d\r\n", m.ProtocolErrors.Load())
		b = fmt.Appendf(b, "store_errors:%d\r\n", m.StoreErrors.Load())
		b = fmt.Appendf(b, "group_commits:%d\r\n", m.GroupCommits.Load())
		b = fmt.Appendf(b, "dram_footprint_bytes:%d\r\n", s.store.DRAMFootprint())
		b = append(b, "\r\n"...)
	}
	if want("cache") {
		// Hot-key cache telemetry, for sizing -hotcache-bytes from live
		// traffic: enabled/capacity say what is configured, hit_ratio and
		// evictions say whether it is big enough, admits_rejected says the
		// admission filter is holding the cold tail out.
		b = append(b, "# Cache\r\n"...)
		if s.cache == nil {
			b = append(b, "cache_enabled:0\r\n"...)
		} else {
			cs := s.cache.Stats()
			b = append(b, "cache_enabled:1\r\n"...)
			b = fmt.Appendf(b, "cache_capacity_bytes:%d\r\n", cs.Capacity)
			b = fmt.Appendf(b, "cache_bytes:%d\r\n", cs.Bytes)
			b = fmt.Appendf(b, "cache_entries:%d\r\n", cs.Entries)
			b = fmt.Appendf(b, "cache_hits:%d\r\n", cs.Hits)
			b = fmt.Appendf(b, "cache_misses:%d\r\n", cs.Misses)
			b = fmt.Appendf(b, "cache_hit_ratio:%.4f\r\n", cs.HitRatio())
			b = fmt.Appendf(b, "cache_admits:%d\r\n", cs.Admits)
			b = fmt.Appendf(b, "cache_admits_rejected:%d\r\n", cs.AdmitsRejected)
			b = fmt.Appendf(b, "cache_evictions:%d\r\n", cs.Evictions)
			b = fmt.Appendf(b, "cache_invalidations:%d\r\n", cs.Invalidations)
		}
		b = append(b, "\r\n"...)
	}
	if want("replication") {
		if s.cfg.Repl != nil {
			b = s.cfg.Repl.InfoSection(b)
		} else {
			b = append(b, "# Replication\r\nrole:master\r\nconnected_slaves:0\r\n"...)
		}
		b = append(b, "\r\n"...)
	}
	if want("maintenance") {
		// The engine's background maintenance pipeline, read from its metrics
		// registry so this stays store-agnostic: a store without the async
		// pipeline simply reports zeros (or no section when it has no
		// registry at all).
		if p, ok := s.store.(obs.Provider); ok && p.Registry() != nil {
			snap := p.Registry().Snapshot()
			b = append(b, "# Maintenance\r\n"...)
			b = fmt.Appendf(b, "maintenance_queue_depth:%d\r\n", snap.Gauges["maintenance_queue_depth"])
			b = fmt.Appendf(b, "maintenance_workers_busy:%d\r\n", snap.Gauges["maintenance_workers_busy"])
			b = fmt.Appendf(b, "mem_freezes:%d\r\n", snap.Counters["mem_freezes"])
			b = fmt.Appendf(b, "put_slowdowns:%d\r\n", snap.Counters["put_slowdowns"])
			b = fmt.Appendf(b, "put_stalls:%d\r\n", snap.Counters["put_stalls"])
			b = fmt.Appendf(b, "maint_jobs_flush:%d\r\n", snap.Counters["maint_jobs_flush"])
			b = fmt.Appendf(b, "maint_jobs_spill:%d\r\n", snap.Counters["maint_jobs_spill"])
			b = fmt.Appendf(b, "maint_jobs_compact:%d\r\n", snap.Counters["maint_jobs_compact"])
			b = fmt.Appendf(b, "maint_jobs_last_level:%d\r\n", snap.Counters["maint_jobs_last_level"])
			b = fmt.Appendf(b, "maint_jobs_skipped:%d\r\n", snap.Counters["maint_jobs_skipped"])
			if h, ok := snap.Histograms["put_stall_ns"]; ok {
				b = fmt.Appendf(b, "put_stall_ns:count=%d,p50=%d,p99=%d,max=%d\r\n", h.Count, h.P50, h.P99, h.Max)
			}
			if h, ok := snap.Histograms["job_duration_ns"]; ok {
				b = fmt.Appendf(b, "job_duration_ns:count=%d,p50=%d,p99=%d,max=%d\r\n", h.Count, h.P50, h.P99, h.Max)
			}
			b = append(b, "\r\n"...)
		}
	}
	if want("persistence") {
		// What a durable acknowledgement costs, outside in and under the
		// registry's own names: the ack-path Session.Flush, and — on the file
		// backend, whose registry carries them — the data fdatasync under it
		// and the host-metadata syncs.
		b = append(b, "# Persistence\r\n"...)
		snap := s.reg.Snapshot()
		for _, name := range [...]string{"server_commit_us", "filedev_sync_us"} {
			if h, ok := snap.Histograms[name]; ok {
				b = fmt.Appendf(b, "%s:count=%d,p50=%d,p99=%d,max=%d\r\n", name, h.Count, h.P50, h.P99, h.Max)
			}
		}
		if n, ok := snap.Counters["filedev_meta_syncs"]; ok {
			b = fmt.Appendf(b, "filedev_meta_syncs:%d\r\n", n)
		}
		// What the media bytes were written for: the engine's per-purpose
		// split of device_media_bytes_written.
		b = appendPrefixed(b, snap.Counters, "core_media_bytes_")
		b = append(b, "\r\n"...)
	}
	if want("memory") {
		// What the DRAM is held for: the engine's per-purpose split of
		// dram_footprint_bytes, and the ABIs' summed capacity.
		b = append(b, "# Memory\r\n"...)
		snap := s.reg.Snapshot()
		b = appendPrefixed(b, snap.Gauges, "core_dram_bytes_")
		b = appendPrefixed(b, snap.Gauges, "core_abi_slots")
		b = append(b, "\r\n"...)
	}
	if want("commandstats") {
		b = append(b, "# Commandstats\r\n"...)
		for k := cmdKind(0); k < numCmdKinds; k++ {
			if n := m.PerCmd[k].Load(); n > 0 {
				b = fmt.Appendf(b, "cmdstat_%s:calls=%d\r\n", commands[k].name, n)
			}
		}
		b = append(b, "\r\n"...)
	}
	if want("latencystats") {
		b = append(b, "# Latencystats\r\n"...)
		for i := range m.Wire {
			h := obs.SummarizeHistogram(&m.Wire[i])
			if h.Count == 0 {
				continue
			}
			b = fmt.Appendf(b, "wire_ns_%s:count=%d,p50=%d,p99=%d,p999=%d,max=%d\r\n",
				wireHistNames[i], h.Count, h.P50, h.P99, h.P999, h.Max)
		}
		b = append(b, "\r\n"...)
	}
	return b
}
