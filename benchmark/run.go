package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"chameleondb"
	"chameleondb/internal/core"
	"chameleondb/internal/device"
	"chameleondb/internal/hotcache"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/obs"
	"chameleondb/internal/simclock"
)

type runConfig struct {
	spec    *workloadSpec
	seed    uint64
	seconds int
	// scale divides the keyspace, every op count and the measured time. It is
	// 1 in every run the command line can start; the smoke tests shrink with it.
	scale    int
	trace    bool
	traceOut string
}

type runResult struct {
	Env       envStamp
	Attempted int64
	Failed    int64
	FirstErr  error
	Metrics   map[string]float64
	SpanTable []spanRow
	// TracerNs is the tracer's calibrated own cost: per clock read, per span.
	TracerNs [2]float64
	Warnings []string
	Stages   []string // wall clock per stage, for budgeting the run
}

// countSlices is how far into the last round's measured phase write_amp's
// counters are read: about 3 s of work on the reference host, reached within
// the round even at two thirds of its speed.
const countSlices = 6

// setupReps is how many rounds of set-up and measurement an untraced run
// makes: setup_s is the median set-up, so one that met a page-fault storm is
// not the run's number on its own. A third round would cost every run another
// 5 s, and the pipeline's 92 runs must fit 57 minutes.
const setupReps = 2

// bench is one run's state.
type bench struct {
	cfg      runConfig
	spec     *workloadSpec
	keys     int
	versions []uint32

	h    handle
	core *coreHandle // h's engine half; nil behind the facade
	dir  string      // file backend directory
	cc   core.Config // the engine geometry, for the file-backend reopen
	// writes counts the SETs / Puts retired workers issued against h.
	writes int64

	res *runResult
}

// retire folds finished workers into the result and hangs up their
// connections.
func (b *bench) retire(ws []*worker) {
	for _, w := range ws {
		b.res.Attempted += w.attempted
		b.res.Failed += w.failed
		b.writes += w.writes
		if b.res.FirstErr == nil {
			b.res.FirstErr = w.firstErr
		}
		if w.c != nil {
			w.c.close()
		}
	}
}

// open builds the store under test: the serving stack's engine and cache for
// wire workloads, the facade for embedded-mixed — except in traced runs,
// which assemble the facade's stack by hand to get at its inside.
func (b *bench) open(puts, flushes int) error {
	switch {
	case b.spec.Wire:
		b.cc = serverConfig(b.keys, puts, flushes)
	case b.cfg.trace:
		b.cc = embeddedCoreConfig(embeddedOptions(b.keys, puts))
	default:
		db, err := chameleondb.Open(embeddedOptions(b.keys, puts))
		if err != nil {
			return err
		}
		b.h = facadeHandle{db}
		return nil
	}
	var (
		st  *core.Store
		err error
	)
	if b.spec.Backend == backendFile {
		if b.dir, err = newScratchDir(); err != nil {
			return err
		}
		st, _, err = core.OpenFile(b.cc, b.dir+"/data")
	} else {
		st, err = core.Open(b.cc)
	}
	if err != nil {
		return err
	}
	b.core = newCoreHandle(st, hotcache.New(cacheBytes(b.keys)))
	b.h = b.core
	return nil
}

// interposed is the traced stack's store: timing interposers outside and
// inside hotcache.Wrap.
func (b *bench) interposed(tr *tracer) kvstore.Store {
	inner := &tstore{inner: b.core.st, tr: tr, layer: layerInner}
	return &tstore{inner: hotcache.Wrap(inner, b.core.cache), tr: tr, layer: layerOuter}
}

// connect brings up the two closed-loop clients: a server plus two
// connections, or two sessions. With a tracer the stack is the interposed
// one and each worker is paired with its session's trace slot.
func (b *bench) connect(tr *tracer) (ws []*worker, stop func() error, err error) {
	stop = func() error { return nil }
	var (
		srv   *running
		store kvstore.Store
	)
	if tr != nil {
		store = b.interposed(tr)
	}
	if b.spec.Wire {
		if tr != nil {
			srv, err = serve(store, nil)
		} else {
			srv, err = serve(b.core.st, b.core.cache)
		}
		if err != nil {
			return nil, stop, err
		}
		stop = srv.stop
	}
	for i := 0; i < clients; i++ {
		w := &worker{id: i, versions: b.versions, exact: b.spec.WritePerMille == 0}
		switch {
		case b.spec.Wire:
			if w.c, err = dial(srv.addr); err != nil {
				b.retire(ws)
				return nil, stop, errors.Join(err, stop())
			}
		case tr != nil:
			w.se = store.NewSession(simclock.New(0)).(embSession)
		default:
			w.se = b.h.session()
		}
		if tr != nil {
			w.sl = tr.lastSlot()
		}
		ws = append(ws, w)
	}
	return ws, stop, nil
}

// counters is everything the per-layer count metrics are deltas of.
type counters struct {
	core  core.StatsSnapshot
	dev   device.Stats
	cache hotcache.Stats
	reg   obs.Snapshot
	cpu   time.Duration
}

func (b *bench) counters() counters {
	return counters{
		core:  b.core.st.Stats(),
		dev:   b.core.st.DeviceStats(),
		cache: b.core.cache.Stats(),
		reg:   b.core.st.Registry().Snapshot(),
		cpu:   processCPU(),
	}
}

func countWrites(streams [][]uint32) (n int) {
	for _, s := range streams {
		for _, op := range s {
			n += int(op >> 31)
		}
	}
	return n
}

// generate builds one op stream per client, in parallel (this is the
// benchmark's own cost and runs before the setup clock starts).
func generate(spec *workloadSpec, perClient int, seed uint64, phaseNo int, z *zipfian) [][]uint32 {
	out := make([][]uint32, clients)
	var wg sync.WaitGroup
	for c := range out {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c] = genOps(spec, perClient, seed*1_000_003+uint64(c)*101+uint64(phaseNo), c, z)
		}(c)
	}
	wg.Wait()
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	return (d[(len(d)-1)/2] + d[len(d)/2]) / 2
}

// setUp is what setup_s times: open + preload + listen + dial + warm-up at
// the workload's own mix + GC. It leaves the two clients connected.
func (b *bench) setUp(warm [][]uint32, maxWrites, maxFlushes int, mark func(string)) (ws []*worker, stop func() error, seconds float64, err error) {
	t0 := time.Now()
	if err := b.open(b.keys+maxWrites, maxFlushes); err != nil {
		return nil, nil, 0, fmt.Errorf("open: %w", err)
	}
	b.writes = 0
	if b.dir != "" {
		b.res.Env.FS = fsType(b.dir)
	}
	mark("setup.open")
	var loader embSession
	if b.spec.Wire {
		// The wire preload is in-process on the engine, under the cache.
		loader = b.core.st.NewSession(simclock.New(0)).(embSession)
	} else {
		loader = b.h.session()
	}
	if err := preload(loader, b.keys, b.versions); err != nil {
		return nil, nil, 0, err
	}
	b.res.Attempted += int64(b.keys)
	mark("setup.preload")
	if ws, stop, err = b.connect(nil); err != nil {
		return nil, nil, 0, fmt.Errorf("connect: %w", err)
	}
	phase{depth: wireDepth}.run(ws, warm)
	runtime.GC()
	seconds = time.Since(t0).Seconds()
	mark("setup.warm-up")
	return ws, stop, seconds, nil
}

// tearDown closes the store under test and removes its files.
func (b *bench) tearDown() error {
	if b.h == nil {
		return nil
	}
	err := b.h.close()
	b.h, b.core = nil, nil
	if b.dir != "" {
		err = errors.Join(err, os.RemoveAll(b.dir))
		os.Remove(scratchRoot) // only succeeds once no run is using it
		b.dir = ""
	}
	return err
}

// runWorkload executes one workload once and returns every metric of the
// requested kind: end-to-end from an untimed phase, or per-layer from the
// traced stack.
func runWorkload(cfg runConfig) (res *runResult, err error) {
	spec := cfg.spec
	cfg.scale = max(cfg.scale, 1)
	b := &bench{cfg: cfg, spec: spec, res: &runResult{Metrics: map[string]float64{}}}
	res = b.res
	b.keys = max(spec.Keys/cfg.scale, 64)
	b.versions = make([]uint32, b.keys)
	sized := *spec
	sized.Keys = b.keys
	defer func() { err = errors.Join(err, b.tearDown()) }()

	last := time.Now()
	mark := func(stage string) {
		now := time.Now()
		res.Stages = append(res.Stages, fmt.Sprintf("%s=%.2fs", stage, now.Sub(last).Seconds()))
		last = now
	}

	calib := newCalibTable()
	calibs := []float64{calibMs(calib)}
	cpuTotal0, steal0, stealOK := cpuTimes()

	// Op streams, longer than the measured time can use: the phase stops at
	// the clock, not at the end of the stream.
	var z *zipfian
	if spec.Zipfian {
		z = newZipfian(b.keys)
	}
	measure := time.Duration(cfg.seconds) * time.Second / time.Duration(cfg.scale)
	sliceOps := max(spec.SliceOps/cfg.scale/clients, wireDepth)
	warm := generate(&sized, spec.WarmOps/cfg.scale/clients, cfg.seed, 0, z)
	meas := generate(&sized, spec.MaxOpsPerSec*cfg.seconds/cfg.scale/clients, cfg.seed, 1, z)
	var depth1, probe [][]uint32
	if cfg.trace && spec.Depth1Sets > 0 {
		depth1 = generate(&sized, max(spec.Depth1Sets/cfg.scale, 32), cfg.seed, 2, nil)[:1]
	}
	if cfg.trace && spec.Wire {
		reads := sized
		reads.Zipfian, reads.WritePerMille = false, 0
		probe = generate(&reads, max(150_000/cfg.scale, 64), cfg.seed, 3, nil)[:1]
	}
	rounds := setupReps
	if cfg.trace {
		rounds = 1 // a traced run prints no setup_s, and splits its time itself
	}
	// What one round's store must have room for.
	maxWrites := countWrites(warm) + countWrites(meas)/rounds + countWrites(depth1)
	maxFlushes := maxWrites/wireDepth + countWrites(depth1) + 1024

	res.Env = newEnvStamp()
	res.Env.Backend, res.Env.Workload = string(spec.Backend), spec.Name
	res.Env.Seed, res.Env.Seconds, res.Env.Traced = cfg.seed, cfg.seconds, cfg.trace
	res.Env.Keys, res.Env.WarmOps = b.keys, len(warm[0])*clients
	mark("generate")

	// ---- rounds: set up, measure; an untraced run does it several times ----
	// Each round sets up a fresh store and measures on it for its share of
	// --seconds. setup_s is the median set-up and throughput is taken over
	// all rounds, so what one store instance happened to get — a page-fault
	// storm, its pages' places in the caches, its goroutines' places on the
	// cores — is not the run's number on its own. Counts, and the crash and
	// read-back, come from the last round's store.
	run := phase{depth: wireDepth}
	var (
		ws     []*worker
		stop   func() error
		setups []float64
		ref    phaseResult // all rounds' measured phases
		tp     tracedPhases
		used   int // how far into meas the rounds have got
	)
	// The counts behind write_amp are read after countSlices slices of the
	// last round: a round lasts a fixed time, so its op count depends on the
	// host's speed, and a ratio of bytes to puts taken at its end would move
	// with that.
	var countedMedia, countedPuts int64
	count := func(done int) {
		if done == countSlices {
			countedMedia, countedPuts = b.h.mediaBytes(), int64(b.keys)+b.writes
			for _, w := range ws {
				countedPuts += w.writes
			}
		}
	}
	for round := 0; round < rounds; round++ {
		if round > 0 {
			if err := b.tearDown(); err != nil {
				return res, fmt.Errorf("tear-down: %w", err)
			}
			runtime.GC() // the next set-up reuses this one's memory
		}
		var seconds float64
		if ws, stop, seconds, err = b.setUp(warm, maxWrites, maxFlushes, mark); err != nil {
			return res, err
		}
		setups = append(setups, seconds)
		calibs = append(calibs, calibMs(calib))
		if cfg.trace {
			break
		}
		after := count
		if round < rounds-1 {
			after = nil
		}
		part, n := run.runFor(ws, split(meas, used, len(meas[0])), sliceOps, measure/time.Duration(rounds), after)
		used += n
		ref.ops, ref.wall = ref.ops+part.ops, ref.wall+part.wall
		b.retire(ws)
		if err := stop(); err != nil {
			return res, fmt.Errorf("server stop: %w", err)
		}
		mark("measured")
	}
	if cfg.trace {
		// A traced run splits the time: a fifth on the plain stack, two fifths
		// on the interposed one, a fifth on the plain stack again — so that
		// drift over the run (the host's, the store's) falls on both sides of
		// trace_overhead_frac.
		var n int
		ref, used = run.runFor(ws, meas, sliceOps, measure/5, nil)
		b.retire(ws)
		if err := stop(); err != nil {
			return res, fmt.Errorf("server stop: %w", err)
		}
		if tp, n, err = b.traced(split(meas, used, len(meas[0])), sliceOps, 2*measure/5, depth1, probe); err != nil {
			return res, err
		}
		used += n
		if ws, stop, err = b.connect(nil); err != nil {
			return res, fmt.Errorf("reconnect: %w", err)
		}
		runtime.GC()
		ref2, _ := run.runFor(ws, split(meas, used, len(meas[0])), sliceOps, measure/5, nil)
		ref.ops, ref.wall = ref.ops+ref2.ops, ref.wall+ref2.wall
		b.retire(ws)
		if err := stop(); err != nil {
			return res, fmt.Errorf("server stop: %w", err)
		}
		mark("measured")
	}
	res.Env.Ops = ref.ops
	if ref.wall < measure*9/10 && !cfg.trace {
		res.Warnings = append(res.Warnings, fmt.Sprintf("the op stream ran out after %.1f s of the %d s to measure: this host is faster than the streams were sized for", ref.wall.Seconds(), cfg.seconds))
	}

	calibs = append(calibs, calibMs(calib))

	// ---- end-to-end metrics, from the untimed phase ----
	m := res.Metrics
	if countedPuts == 0 {
		if !cfg.trace {
			res.Warnings = append(res.Warnings, fmt.Sprintf("the last round ended before its %d-slice count point: write_amp is taken at its end", countSlices))
		}
		countedMedia, countedPuts = b.h.mediaBytes(), int64(b.keys)+b.writes
	}
	m["setup_s"] = median(setups)
	m["write_amp"] = ratio(float64(countedMedia), float64(countedPuts)*userBytesPut)
	m["dram_bytes_per_key"] = float64(b.h.dramBytes()) / float64(b.keys)
	m["client.throughput_kops"] = ref.kops()
	res.Env.Measured = measuredStamp{ThroughputKops: ref.kops(), Seconds: ref.wall.Seconds(), SetupS: setups}

	if cfg.trace {
		if err := b.microMetrics(); err != nil {
			return res, err
		}
		mark("micro-drives")
		b.layerMetrics(tp, ref)
	}

	// ---- crash without a further flush, recover, read every key back ----
	t0 := time.Now()
	b.h.crash()
	if err := b.h.recover(); err != nil {
		return res, fmt.Errorf("recover: %w", err)
	}
	m["core.recover_ms"] = float64(time.Since(t0).Microseconds()) / 1e3
	mark("crash+recover")
	b.readBack()
	mark("read-back")
	if spec.Backend == backendFile {
		t0 = time.Now()
		if err := b.reopen(); err != nil {
			return res, fmt.Errorf("reopen: %w", err)
		}
		m["core.reopen_ms"] = float64(time.Since(t0).Microseconds()) / 1e3
		b.readBack()
		mark("reopen+read-back")
	}

	if cfg.traceOut != "" && cfg.trace {
		if err := tp.tr.writeJSONL(cfg.traceOut); err != nil {
			return res, fmt.Errorf("trace-out: %w", err)
		}
	}

	// ---- host stamps ----
	m["host.calib_ms"] = mean(append(calibs, calibMs(calib)))
	if cpuTotal1, steal1, ok := cpuTimes(); ok && stealOK && cpuTotal1 > cpuTotal0 {
		m["host.steal_frac"] = float64(steal1-steal0) / float64(cpuTotal1-cpuTotal0)
	}
	if res.Env.NumCPU < clients {
		res.Warnings = append(res.Warnings, fmt.Sprintf("only %d CPU: the %d closed-loop clients and the server share it; numbers are not comparable", res.Env.NumCPU, clients))
	}
	if m["host.steal_frac"] > 0.02 {
		res.Warnings = append(res.Warnings, fmt.Sprintf("host stole %.1f%% of CPU time during the run; timings are suspect", 100*m["host.steal_frac"]))
	}
	return res, nil
}

// tracedPhases is what the traced stack's phases produced.
type tracedPhases struct {
	tr            *tracer
	from          int64 // tracer time at which the throughput phase began
	before, after counters
	traced        phaseResult // the throughput phase, 1 window in sampleEvery a root span
	d1            phaseResult // depth-1 durable SETs, every one a root span (write-durable)
	probe         phaseResult // depth-1 GETs on a third connection (wire)
}

// traced brings up the interposed stack and runs its phases: the depth-1 SET
// latency phase where the workload has one, the sampled throughput phase (d of
// wall clock over streams, bracketed by counter snapshots), and the depth-1
// GET probe. used is how far into streams the throughput phase got.
func (b *bench) traced(streams [][]uint32, sliceOps int, d time.Duration, depth1, probe [][]uint32) (tp tracedPhases, used int, err error) {
	// Per slot: every op of a sampled window can leave an outer and an inner
	// span, a depth-1 SET leaves its put and flush pairs.
	every := sampleEvery
	if windows := int(d.Seconds()*float64(b.spec.SliceOps/clients)) / wireDepth; windows < 16*every {
		every = max(windows/16, 1) // shrunken smoke runs still get their 16 root spans
	}
	sampledOps := len(streams[0])/every + wireDepth
	tp.tr = newTracer(2*sampledOps+8*countWrites(depth1)+1024, sampledOps/wireDepth+countWrites(depth1)+1024)
	tp.tr.calibrate()
	b.res.TracerNs = [2]float64{tp.tr.nowNs, tp.tr.spanNs}
	ws, stop, err := b.connect(tp.tr)
	if err != nil {
		return tp, 0, fmt.Errorf("connect traced: %w", err)
	}
	if depth1 != nil {
		tp.d1 = phase{depth: 1, tr: tp.tr, sampleEvery: 1}.run(ws[:1], depth1)
	}
	runtime.GC()
	tp.from = tp.tr.now()
	tp.before = b.counters()
	tp.traced, used = phase{depth: wireDepth, tr: tp.tr, sampleEvery: every}.runFor(ws, streams, sliceOps, d, nil)
	tp.after = b.counters()
	if probe != nil {
		pc, err := dial(srvAddr(ws))
		if err != nil {
			return tp, used, errors.Join(fmt.Errorf("probe dial: %w", err), stop())
		}
		pw := &worker{versions: b.versions, exact: true, c: pc}
		tp.probe = phase{depth: 1, tr: tp.tr, sampleEvery: 1}.run([]*worker{pw}, probe)
		b.retire([]*worker{pw})
	}
	b.retire(ws)
	if err := stop(); err != nil {
		return tp, used, fmt.Errorf("traced server stop: %w", err)
	}
	return tp, used, nil
}

// srvAddr recovers the server address from a wire worker's connection.
func srvAddr(ws []*worker) string { return ws[0].c.nc.RemoteAddr().String() }

// readBack reads every key through fresh sessions and compares it with the
// generator's last-acknowledged version: exact, since every key has one
// writer and every window completed.
func (b *bench) readBack() {
	ws := make([]*worker, clients)
	streams := make([][]uint32, clients)
	for i := range ws {
		ws[i] = &worker{id: i, versions: b.versions, exact: true, se: b.h.session()}
		lo, hi := b.keys*i/clients, b.keys*(i+1)/clients
		streams[i] = make([]uint32, 0, hi-lo)
		for k := lo; k < hi; k++ {
			streams[i] = append(streams[i], uint32(k))
		}
	}
	phase{depth: wireDepth}.run(ws, streams)
	b.retire(ws)
}

// reopen is a real restart of the file backend: Close, OpenFile on the same
// directory, Recover.
func (b *bench) reopen() error {
	if err := b.core.st.Close(); err != nil {
		return err
	}
	st, existing, err := core.OpenFile(b.cc, b.dir+"/data")
	if err != nil {
		return err
	}
	b.core = newCoreHandle(st, b.core.cache)
	b.h = b.core
	if !existing {
		return errors.New("reopened directory holds no state")
	}
	return st.Recover(simclock.New(0))
}
