package main

import "fmt"

// spanRow is one line of the span table: where a client-observed round trip
// went, by layer self time. The parts sum to rtt_us by construction (self
// time = span - children); Sum is printed so a reader can see that they do.
type spanRow struct {
	Phase   string  `json:"phase"`
	Per     string  `json:"per"` // "op" or "window"
	Samples int     `json:"samples"`
	RTT     float64 `json:"rtt_us"`
	// ServerSelf is the window round trip not inside any store call and not
	// commit wait: client codec, loopback TCP, resp parse/encode, dispatch.
	ServerSelf float64 `json:"server_self_us"`
	CommitWait float64 `json:"commit_wait_us"`
	Hotcache   float64 `json:"hotcache_self_us"`
	CoreGet    float64 `json:"core_get_us"`
	CorePut    float64 `json:"core_put_us"`
	CoreFlush  float64 `json:"core_flush_us"`
	Sum        float64 `json:"sum_us"`
}

// calibrate measures what the tracer itself adds: nowNs per clock read, and
// spanNs per begin/end pair. Span durations are corrected by these before
// they become per-layer self times.
func (t *tracer) calibrate() {
	const n = 200_000
	t0 := t.now()
	for i := 0; i < n; i++ {
		t.now()
	}
	t.nowNs = float64(t.now()-t0) / n
	s := &slot{open: -1, spans: make([]span, 0, n)}
	t0 = t.now()
	for i := 0; i < n; i++ {
		s.end(s.begin(1, layerInner, spanGet, 1, t.now()), t.now())
	}
	t.spanNs = float64(t.now()-t0) / n
}

// breakdown is the aggregate of every sampled window in a time range.
type breakdown struct {
	windows, ops int
	rootNs       float64

	outerNs    float64 // all outer spans, raw
	waitNs     float64 // commit waits
	hotcacheNs float64 // outer self, corrected
	coreGetNs  float64 // inner spans, corrected
	corePutNs  float64
	coreFlush  float64
	outerSpans int

	hitN, missN, putKeys          int
	hitNs, missSelfNs, putSelfNs  float64
	coreGet, corePut, flush, wait []int64 // per-span samples for percentiles
	batchNs                       float64
	batchKeys                     int
	maxPutNs                      int64
}

// analyze folds the spans whose window started in [from, to) into a
// breakdown.
func (t *tracer) analyze(from, to int64) *breakdown {
	b := &breakdown{}
	for _, s := range t.slots {
		inRange := map[uint32]bool{}
		for _, r := range s.roots {
			if r.Start >= from && r.Start < to {
				inRange[r.Window] = true
				b.windows++
				b.ops += int(r.N)
				b.rootNs += float64(r.Dur)
			}
		}
		// child[i] is the raw duration of the inner spans under outer span i.
		child := make(map[int32]int64)
		for _, sp := range s.spans {
			if sp.Layer == layerInner && sp.Parent >= 0 {
				child[sp.Parent] += sp.Dur
			}
		}
		lastWriteEnd := map[uint32]int64{}
		for i, sp := range s.spans {
			if !inRange[sp.Window] {
				continue
			}
			dur := float64(sp.Dur) - t.nowNs
			if sp.Layer == layerInner {
				dur = max(dur, 0)
				switch sp.Kind {
				case spanGet:
					b.coreGetNs += dur
					b.coreGet = append(b.coreGet, int64(dur))
				case spanPut, spanPutBatch:
					b.corePutNs += dur
					b.maxPutNs = max(b.maxPutNs, sp.Dur)
					if sp.Kind == spanPut {
						b.corePut = append(b.corePut, int64(dur))
					} else {
						b.batchNs += dur
						b.batchKeys += int(sp.N)
					}
				case spanFlush:
					b.coreFlush += dur
					b.flush = append(b.flush, int64(dur))
				}
				continue
			}
			b.outerSpans++
			b.outerNs += float64(sp.Dur)
			c, hasChild := child[int32(i)]
			self := dur
			if hasChild {
				self = float64(sp.Dur-c) - t.spanNs
			}
			self = max(self, 0)
			b.hotcacheNs += self
			switch sp.Kind {
			case spanGet:
				if hasChild {
					b.missN++
					b.missSelfNs += self
				} else {
					b.hitN++
					b.hitNs += self
				}
			case spanPut, spanPutBatch:
				b.putKeys += max(int(sp.N), 1)
				b.putSelfNs += self
				lastWriteEnd[sp.Window] = sp.Start + sp.Dur
			case spanFlush:
				if end, ok := lastWriteEnd[sp.Window]; ok {
					b.waitNs += float64(sp.Start - end)
					b.wait = append(b.wait, sp.Start-end)
				}
			}
		}
	}
	return b
}

// row renders the breakdown as a span-table line, per op or per window.
func (b *breakdown) row(phaseName, per string) spanRow {
	div := float64(b.ops)
	if per == "window" {
		div = float64(b.windows)
	}
	us := func(ns float64) float64 { return ratio(ns, div) / 1e3 }
	r := spanRow{Phase: phaseName, Per: per, Samples: b.windows,
		RTT:        us(b.rootNs),
		CommitWait: us(b.waitNs),
		Hotcache:   us(b.hotcacheNs),
		CoreGet:    us(b.coreGetNs),
		CorePut:    us(b.corePutNs),
		CoreFlush:  us(b.coreFlush),
	}
	r.ServerSelf = r.RTT - r.CommitWait - r.Hotcache - r.CoreGet - r.CorePut - r.CoreFlush
	r.Sum = r.ServerSelf + r.CommitWait + r.Hotcache + r.CoreGet + r.CorePut + r.CoreFlush
	return r
}

func percentileUs(v []int64, q float64) float64 { return float64(percentile(v, q)) / 1e3 }

// layerMetrics fills every per-layer metric that comes from the traced phase:
// span self times, and deltas of the layers' own counters across it. It runs
// after microMetrics, whose primitive costs unexplained_frac needs.
func (b *bench) layerMetrics(tp tracedPhases, ref phaseResult) {
	tr, from, c0, c1 := tp.tr, tp.from, tp.before, tp.after
	traced, d1, probe := tp.traced, tp.d1, tp.probe
	m := b.res.Metrics
	spec := b.spec
	ops := float64(traced.ops)
	bd := tr.analyze(from, tr.now())

	m["trace_overhead_frac"] = 1 - ratio(float64(traced.ops)/traced.wall.Seconds(), float64(ref.ops)/ref.wall.Seconds())
	b.res.SpanTable = append(b.res.SpanTable, bd.row("throughput", "op"))

	// server
	if spec.Wire {
		// Everything in the window that is not a store call (ISSUE 14's
		// definition; the span table splits commit wait out of it).
		m["server.self_us_per_op"] = ratio(bd.rootNs-bd.outerNs-float64(bd.outerSpans)*(tr.spanNs-tr.nowNs), float64(bd.ops)) / 1e3
		h0, h1 := c0.reg.Histograms["server_pipeline_depth"], c1.reg.Histograms["server_pipeline_depth"]
		m["server.cmds_per_batch"] = ratio(float64(h1.Sum-h0.Sum), float64(h1.Count-h0.Count))
		m["server.flushes_per_commit"] = ratio(
			float64(c1.reg.Counters["server_group_commit_flushes"]-c0.reg.Counters["server_group_commit_flushes"]),
			float64(c1.reg.Counters["server_group_commits"]-c0.reg.Counters["server_group_commits"]))
		m["server.store_errors"] = float64(c1.reg.Counters["server_store_errors"])
		var maxRTT int64
		for _, rtts := range traced.rtts {
			for _, rtt := range rtts {
				maxRTT = max(maxRTT, rtt)
			}
		}
		m["server.max_window_ms"] = float64(maxRTT) / 1e6
		if len(probe.rtts) > 0 {
			m["server.get_rtt_p50_us"] = percentileUs(probe.rtts[0], 50)
			m["server.get_rtt_p99_us"] = percentileUs(probe.rtts[0], 99)
		}
	}
	m["server.commit_wait_us_p50"] = percentileUs(bd.wait, 50)
	m["core.flush_us_p50"] = percentileUs(bd.flush, 50)
	if len(d1.rtts) > 0 {
		// The depth-1 phase: one durable SET at a time, every one a root span.
		m["server.set_rtt_p50_us"] = percentileUs(d1.rtts[0], 50)
		m["server.set_rtt_p99_us"] = percentileUs(d1.rtts[0], 99)
		d := tr.analyze(0, from)
		b.res.SpanTable = append(b.res.SpanTable, d.row("depth-1 SET", "window"))
		m["server.commit_wait_us_p50"] = percentileUs(d.wait, 50)
		m["core.flush_us_p50"] = percentileUs(d.flush, 50)
	}

	// hotcache
	cs0, cs1 := c0.cache, c1.cache
	lookups := float64(cs1.Hits + cs1.Misses - cs0.Hits - cs0.Misses)
	m["hotcache.hit_ratio"] = ratio(float64(cs1.Hits-cs0.Hits), lookups)
	offered := float64(cs1.Admits + cs1.AdmitsRejected + cs1.AdmitsRaced - cs0.Admits - cs0.AdmitsRejected - cs0.AdmitsRaced)
	m["hotcache.admit_reject_ratio"] = ratio(float64(cs1.AdmitsRejected-cs0.AdmitsRejected), offered)
	m["hotcache.evictions_per_kop"] = ratio(float64(cs1.Evictions-cs0.Evictions), ops/1e3)
	m["hotcache.bytes"] = float64(cs1.Bytes)
	m["hotcache.self_ns_per_get_hit"] = ratio(bd.hitNs, float64(bd.hitN))
	m["hotcache.self_ns_per_get_miss"] = ratio(bd.missSelfNs, float64(bd.missN))
	m["hotcache.self_ns_per_put"] = ratio(bd.putSelfNs, float64(bd.putKeys))

	// core
	k0, k1 := c0.core, c1.core
	gets := float64(k1.GetMemTable + k1.GetABI + k1.GetDumped + k1.GetUpper + k1.GetLast + k1.GetMiss -
		k0.GetMemTable - k0.GetABI - k0.GetDumped - k0.GetUpper - k0.GetLast - k0.GetMiss)
	m["core.get_ns_p50"] = float64(percentile(bd.coreGet, 50))
	m["core.gets_memtable_frac"] = ratio(float64(k1.GetMemTable-k0.GetMemTable), gets)
	m["core.gets_abi_frac"] = ratio(float64(k1.GetABI-k0.GetABI), gets)
	m["core.gets_last_frac"] = ratio(float64(k1.GetLast-k0.GetLast), gets)
	m["core.put_ns_p50"] = float64(percentile(bd.corePut, 50))
	m["core.putbatch_ns_per_key"] = ratio(bd.batchNs, float64(bd.batchKeys))
	m["core.max_put_ms"] = float64(bd.maxPutNs) / 1e6
	putsM := float64(k1.Puts-k0.Puts) / 1e6
	m["core.flushes_per_mput"] = ratio(float64(k1.Flushes-k0.Flushes), putsM)
	m["core.upper_compactions_per_mput"] = ratio(float64(k1.UpperCompactions-k0.UpperCompactions), putsM)
	m["core.last_compactions_per_mput"] = ratio(float64(k1.LastCompactions-k0.LastCompactions), putsM)
	m["core.put_slowdowns"] = float64(k1.PutSlowdowns - k0.PutSlowdowns)
	m["core.put_stalls"] = float64(k1.PutStalls - k0.PutStalls)
	m["core.maint_jobs"] = float64(k1.MaintJobsFlush + k1.MaintJobsSpill + k1.MaintJobsCompact + k1.MaintJobsLastLevel -
		k0.MaintJobsFlush - k0.MaintJobsSpill - k0.MaintJobsCompact - k0.MaintJobsLastLevel)
	m["core.dram_bytes"] = float64(b.core.st.DRAMFootprint())

	// wlog / device
	puts := float64(k1.Puts - k0.Puts)
	m["wlog.live_bytes_per_key"] = float64(b.core.st.Log().LiveBytes()) / float64(b.keys)
	m["device.media_bytes_per_put"] = ratio(float64(c1.dev.MediaBytesWritten-c0.dev.MediaBytesWritten), puts)
	m["device.persists_per_put"] = ratio(float64(c1.dev.WriteOps-c0.dev.WriteOps), puts)
	m["device.reads_per_get"] = ratio(float64(c1.dev.ReadOps-c0.dev.ReadOps), ops-puts)
	if spec.Backend == backendFile {
		m["filedev.syncs_per_set"] = m["device.persists_per_put"]
	}
	m["host.cpu_us_per_op"] = ratio(float64((c1.cpu - c0.cpu).Microseconds()), ops)

	// The primitive-cost reconstruction (see microMetrics for the formula).
	persistNs := m["pmem.persist_ns"]
	if spec.Backend == backendFile {
		persistNs = m["filedev.sync_write_us_p50"] * 1e3
	}
	explained := ratio(bd.hotcacheNs+bd.coreGetNs+bd.corePutNs+bd.waitNs, float64(bd.ops)) +
		ratio(float64(c1.dev.WriteOps-c0.dev.WriteOps), ops)*persistNs
	if spec.Wire {
		explained += 2 * (m["resp.parse_ns_per_cmd"] + m["resp.encode_ns_per_reply"])
	}
	m["unexplained_frac"] = 1 - ratio(explained, ratio(bd.rootNs, float64(bd.ops)))
}

// microMetrics runs the micro-drives: the cost of each layer's primitive in
// isolation. layerMetrics then closes the books with unexplained_frac: how
// much of the client-observed time per op do span self times plus primitive
// costs x counts not explain?
//
//	reconstructed = hotcache self + core get/put spans + commit wait   (spans)
//	              + 2 x (resp parse + resp encode)                     (wire: client and server codec)
//	              + persists per op x one persist                      (stands in for the core flush span)
//
// where one persist is filedev's 4 KiB write+fdatasync on the file backend
// and pmem.Arena.Persist on the simulated one. What is left — syscalls,
// loopback TCP, scheduling, dispatch — has no span yet; spans inside the
// program are a later issue.
func (b *bench) microMetrics() error {
	m := b.res.Metrics
	n := max(1_000_000/b.cfg.scale, 10_000)
	var err error
	if m["resp.parse_ns_per_cmd"], m["resp.encode_ns_per_reply"], err = microResp(n); err != nil {
		return err
	}
	if m["wlog.append_ns"], m["wlog.read_ns"], m["pmem.persist_ns"], err = microLog(n / 5); err != nil {
		return err
	}
	dir := b.dir
	if dir == "" {
		if dir, err = newScratchDir(); err != nil {
			return err
		}
		b.dir = dir // removed with the run
	}
	if m["filedev.sync_write_us_p50"], err = microFileSync(dir, max(150/b.cfg.scale, 20)); err != nil {
		return fmt.Errorf("micro filedev: %w", err)
	}
	return nil
}
