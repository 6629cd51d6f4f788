package main

// This file is the single source of truth for the benchmark's workloads and
// metrics. BENCHMARK.json mirrors it (bench_test.go checks both directions),
// and every output line is produced by walking these tables, so a metric
// cannot be printed under a name the contract does not know.

// Fixed stack shape (ISSUE 14): two clients, never more — two connections or
// two goroutines, 2 = nproc on the target host.
const (
	clients      = 2
	wireDepth    = 16 // outstanding commands per connection in throughput phases
	keyLen       = 8
	valLen       = 8
	userBytesPut = keyLen + valLen
	// sampleEvery is the trace sampling rate of throughput phases: one
	// pipeline window (or embedded 16-op block) in 64 is a root span.
	sampleEvery = 64
)

type backendKind string

const (
	backendSim  backendKind = "sim"
	backendFile backendKind = "file"
)

// workloadSpec describes one workload. A measured phase lasts --seconds of
// wall clock: it runs whole slices of SliceOps operations until that much time
// has been measured, so it is never shorter than asked whatever the host's
// speed, and the run fits the pipeline's budget.
type workloadSpec struct {
	Name string
	Why  string

	Backend backendKind
	Wire    bool // RESP over loopback vs embedded sessions
	Zipfian bool // scrambled zipfian theta=0.99 vs uniform
	// WritePerMille is the share of ops that are writes, in 1/1000.
	WritePerMille int

	Keys    int // preloaded keyspace
	WarmOps int // warm-up ops at the workload's own mix (part of setup_s)
	// SliceOps is the length of one slice, about half a second of work: the
	// unit a measured phase is made of.
	SliceOps int
	// MaxOpsPerSec sizes the pre-generated op stream: more than this stack
	// sustains on the reference host in its fastest epoch.
	MaxOpsPerSec int
	// Depth1Sets is the length of the depth-1 durable SET latency phase the
	// traced run adds (write-durable only).
	Depth1Sets int
}

var workloads = []workloadSpec{
	{
		Name: "read-hot", Backend: backendSim, Wire: true, Zipfian: true,
		Keys: 1_000_000, WarmOps: 3_000_000, SliceOps: 350_000, MaxOpsPerSec: 1_200_000,
		Why: "zipfian GETs over the wire; the hot set fits the cache, so resp+server+hotcache hit path do the work and core almost none",
	},
	{
		Name: "read-cold", Backend: backendSim, Wire: true,
		Keys: 1_000_000, WarmOps: 2_500_000, SliceOps: 250_000, MaxOpsPerSec: 900_000,
		Why: "uniform GETs over 10x the cache; same wire cost as read-hot but every op pays cache miss, core probe and wlog read",
	},
	{
		Name: "write-durable", Backend: backendFile, Wire: true, WritePerMille: 1000,
		Keys: 200_000, WarmOps: 75_000, SliceOps: 10_000, MaxOpsPerSec: 40_000, Depth1Sets: 2_500,
		Why: "durable SETs on real files; group commit, core flush, wlog persist and fdatasync do the work while the cores idle",
	},
	{
		Name: "embedded-mixed", Backend: backendSim, WritePerMille: 500,
		Keys: 1_000_000, WarmOps: 2_300_000, SliceOps: 280_000, MaxOpsPerSec: 1_000_000,
		Why: "no wire: 50/50 GetInto/Put from 2 sessions with inline maintenance; a read or cache win that costs puts, flushes or invalidations shows here",
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec is one named metric. Bound > 0 marks an end-to-end metric (the
// gate); per-layer metrics have no bound and are diagnostics.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// endToEnd are the gates; printed with --trace 0. Throughput is not among
// them: on the reference host ten runs of any workload spread 9-19 % in a
// noisy hour whatever the estimator (README, "Throughput is not a gate"), and
// a timing that cannot repeat within a tenth is a diagnostic, not a gate. It
// is client.throughput_kops below. setup_s is mandatory and carries the
// widest bound the pipeline allows, as the pipeline asks.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"write_amp", "ratio", "lower", 0.02},
	{"dram_bytes_per_key", "B/key", "lower", 0.02},
}

// perLayer are the single-layer metrics; printed with --trace 1. A metric
// that does not apply to a workload (server.* on embedded-mixed, filedev
// counts on the sim backend) reads 0 there.
var perLayer = []metricSpec{
	// client: the benchmark's two closed-loop clients, on the untraced stack.
	{"client.throughput_kops", "kops/s", "higher", 0},
	// resp: micro-drive of Reader.ReadCommand / Writer over a pre-encoded window.
	{"resp.parse_ns_per_cmd", "ns", "lower", 0},
	{"resp.encode_ns_per_reply", "ns", "lower", 0},
	// server: spans and registry counters.
	{"server.self_us_per_op", "us", "lower", 0},
	{"server.cmds_per_batch", "count", "higher", 0},
	{"server.commit_wait_us_p50", "us", "lower", 0},
	{"server.flushes_per_commit", "count", "lower", 0},
	{"server.get_rtt_p50_us", "us", "lower", 0},
	{"server.get_rtt_p99_us", "us", "lower", 0},
	{"server.set_rtt_p50_us", "us", "lower", 0},
	{"server.set_rtt_p99_us", "us", "lower", 0},
	{"server.max_window_ms", "ms", "lower", 0},
	{"server.store_errors", "count", "lower", 0},
	// hotcache: outer-minus-inner spans and cache.Stats deltas.
	{"hotcache.hit_ratio", "ratio", "higher", 0},
	{"hotcache.self_ns_per_get_hit", "ns", "lower", 0},
	{"hotcache.self_ns_per_get_miss", "ns", "lower", 0},
	{"hotcache.self_ns_per_put", "ns", "lower", 0},
	{"hotcache.admit_reject_ratio", "ratio", "lower", 0},
	{"hotcache.evictions_per_kop", "count", "lower", 0},
	{"hotcache.bytes", "B", "lower", 0},
	// core: inner spans and Store.Stats deltas.
	{"core.get_ns_p50", "ns", "lower", 0},
	{"core.gets_memtable_frac", "ratio", "higher", 0},
	{"core.gets_abi_frac", "ratio", "higher", 0},
	{"core.gets_last_frac", "ratio", "lower", 0},
	{"core.put_ns_p50", "ns", "lower", 0},
	{"core.putbatch_ns_per_key", "ns", "lower", 0},
	{"core.max_put_ms", "ms", "lower", 0},
	{"core.flush_us_p50", "us", "lower", 0},
	{"core.flushes_per_mput", "count", "lower", 0},
	{"core.upper_compactions_per_mput", "count", "lower", 0},
	{"core.last_compactions_per_mput", "count", "lower", 0},
	{"core.put_slowdowns", "count", "lower", 0},
	{"core.put_stalls", "count", "lower", 0},
	{"core.maint_jobs", "count", "lower", 0},
	{"core.dram_bytes", "B", "lower", 0},
	{"core.recover_ms", "ms", "lower", 0},
	{"core.reopen_ms", "ms", "lower", 0},
	// wlog / device / pmem / filedev: micro-drives and device.Stats deltas.
	{"wlog.append_ns", "ns", "lower", 0},
	{"wlog.read_ns", "ns", "lower", 0},
	{"wlog.live_bytes_per_key", "B/key", "lower", 0},
	{"device.media_bytes_per_put", "B", "lower", 0},
	{"device.persists_per_put", "count", "lower", 0},
	{"device.reads_per_get", "count", "lower", 0},
	{"pmem.persist_ns", "ns", "lower", 0},
	{"filedev.sync_write_us_p50", "us", "lower", 0},
	{"filedev.syncs_per_set", "count", "lower", 0},
	// host: run-quality stamps, never gates.
	{"host.steal_frac", "ratio", "lower", 0},
	{"host.cpu_us_per_op", "us", "lower", 0},
	{"host.calib_ms", "ms", "lower", 0},
	// the trace's own quality.
	{"trace_overhead_frac", "ratio", "lower", 0},
	{"unexplained_frac", "ratio", "lower", 0},
}
