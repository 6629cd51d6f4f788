package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"chameleondb/internal/device"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/obs"
	"chameleondb/internal/simclock"
	"chameleondb/internal/wlog"
)

// The traced run records spans from the benchmark's own files only: a timing
// interposer around kvstore.Store/Session placed outside hotcache.Wrap (layer
// "hotcache": what the server or the embedded caller sees) and inside it
// (layer "core": what the engine costs). A sampled pipeline window — or a
// sampled 16-op block of the embedded loop — is the root span; store calls
// and Flush made while it is open are its children and carry its id. A
// layer's self time is its span minus the child spans inside it.

type spanKind uint8

const (
	spanWindow spanKind = iota // root: client send -> last reply
	spanGet
	spanPut
	spanPutBatch
	spanFlush
)

var spanKindNames = [...]string{"window", "get", "put", "putbatch", "flush"}

type layerID uint8

const (
	layerClient layerID = iota // root spans
	layerOuter                 // outside hotcache.Wrap
	layerInner                 // inside it: core
)

var layerNames = [...]string{"client", "hotcache", "core"}

// span is one fixed-size record. Parent is the index of the enclosing span in
// the same slot's buffer, -1 for a child of the root window.
type span struct {
	Window uint32
	Parent int32
	Start  int64 // ns since the tracer's epoch
	Dur    int64
	N      uint16 // ops (window) or keys (putbatch) covered
	Kind   spanKind
	Layer  layerID
}

// slot is one connection's (or embedded worker's) trace state. The client
// opens a window by storing its id; the session-side interposers record
// while it is non-zero. Windows are synchronous — the client does not send
// the next one before the last reply of this one — so every store call made
// while the id is set belongs to that window. spans is written only by the
// goroutine currently driving the session (the connection handler, or the
// batcher while the handler is parked on its commit), roots only by the
// client; the window store/load orders them.
type slot struct {
	window atomic.Uint32
	spans  []span
	roots  []span
	// open is the index of the outer span now in progress, -1 if none:
	// the parent of whatever the inner interposer records meanwhile.
	open int32
}

type tracer struct {
	epoch time.Time

	// mu orders the accept goroutine, which creates sessions, with the
	// client goroutine that pairs itself with the newest one.
	mu    sync.Mutex
	slots []*slot
	cur   *slot // slot of the newest session pair

	// The tracer's own cost (calibrate): ns per clock read, ns per span.
	nowNs, spanNs float64

	// Record capacity of each new slot, sized by the run so that recording
	// never grows a buffer.
	spanCap, rootCap int
}

func newTracer(spanCap, rootCap int) *tracer {
	return &tracer{epoch: time.Now(), spanCap: spanCap, rootCap: rootCap}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// lastSlot returns the slot of the most recently created session pair.
// Sessions are created one at a time (dial waits for its PING), so this is
// the slot of the connection or worker that was just set up.
func (t *tracer) lastSlot() *slot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

func (t *tracer) newSlot() *slot {
	s := &slot{open: -1, spans: touched(t.spanCap), roots: touched(t.rootCap)}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.slots = append(t.slots, s)
	t.cur = s
	return s
}

// touched returns an empty span buffer whose pages are already faulted in: a
// first touch inside a span would be billed to the layer being timed, and on a
// virtualized host it costs more than the call under measurement.
func touched(n int) []span {
	buf := make([]span, n)
	for i := range buf {
		buf[i].Parent = -1
	}
	return buf[:0]
}

// begin opens a span on the session side and returns its index.
func (s *slot) begin(w uint32, layer layerID, kind spanKind, n int, now int64) int32 {
	s.spans = append(s.spans, span{Window: w, Parent: s.open, Start: now, N: uint16(n), Kind: kind, Layer: layer})
	i := int32(len(s.spans) - 1)
	if layer == layerOuter {
		s.open = i
	}
	return i
}

func (s *slot) end(i int32, now int64) {
	sp := &s.spans[i]
	sp.Dur = now - sp.Start
	if sp.Layer == layerOuter {
		s.open = -1
	}
}

// root records a finished window from the client side.
func (s *slot) root(w uint32, n int, start, end int64) {
	s.roots = append(s.roots, span{Window: w, Parent: -1, Start: start, Dur: end - start, N: uint16(n), Kind: spanWindow, Layer: layerClient})
}

// writeJSONL dumps every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type rec struct {
		Conn   int    `json:"conn"`
		Window uint32 `json:"window"`
		Seq    int    `json:"seq"`
		Parent int32  `json:"parent"`
		Layer  string `json:"layer"`
		Op     string `json:"op"`
		N      uint16 `json:"n"`
		Start  int64  `json:"start_ns"`
		Dur    int64  `json:"dur_ns"`
	}
	for ci, s := range t.slots {
		for _, list := range [][]span{s.roots, s.spans} {
			for i, sp := range list {
				r := rec{ci, sp.Window, i, sp.Parent, layerNames[sp.Layer], spanKindNames[sp.Kind], sp.N, sp.Start, sp.Dur}
				if err := enc.Encode(r); err != nil {
					f.Close()
					return err
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tstore is the timing interposer at the store boundary. It forwards every
// hook the server, hotcache.Wrap and the benchmark look for on the store
// under it, so placing it changes timing only.
type tstore struct {
	inner kvstore.Store
	tr    *tracer
	layer layerID
}

var (
	_ kvstore.Store = (*tstore)(nil)
	_ obs.Provider  = (*tstore)(nil)
)

func (t *tstore) Name() string              { return t.inner.Name() }
func (t *tstore) DRAMFootprint() int64      { return t.inner.DRAMFootprint() }
func (t *tstore) DeviceStats() device.Stats { return t.inner.DeviceStats() }
func (t *tstore) Crash()                    { t.inner.Crash() }
func (t *tstore) Close() error              { return t.inner.Close() }

func (t *tstore) Recover(c *simclock.Clock) error { return t.inner.Recover(c) }

// Log forwards the hook FLUSHALL's store-wide barrier looks for.
func (t *tstore) Log() *wlog.Log {
	if l, ok := t.inner.(interface{ Log() *wlog.Log }); ok {
		return l.Log()
	}
	return nil
}

// Registry implements obs.Provider so server.New registers its metrics in
// the engine's registry, exactly as it does without the interposer.
func (t *tstore) Registry() *obs.Registry {
	if p, ok := t.inner.(obs.Provider); ok {
		return p.Registry()
	}
	return nil
}

// NewSession wraps the inner session. The outer interposer allocates the
// slot; the inner one, constructed further down the same call, shares it.
func (t *tstore) NewSession(c *simclock.Clock) kvstore.Session {
	var sl *slot
	if t.layer == layerOuter {
		sl = t.tr.newSlot()
	}
	inner := t.inner.NewSession(c)
	if sl == nil {
		sl = t.tr.lastSlot()
	}
	s := &tsession{inner: inner, tr: t.tr, slot: sl, layer: t.layer}
	s.vr, _ = inner.(kvstore.ValueReader)
	s.bw, _ = inner.(kvstore.BatchWriter)
	s.cd, _ = inner.(kvstore.ConditionalDeleter)
	s.inc, _ = inner.(kvstore.Incrementer)
	s.sc, _ = inner.(kvstore.Scanner)
	return s
}

// tsession times one session's calls while its slot has a window open.
type tsession struct {
	inner kvstore.Session
	vr    kvstore.ValueReader
	bw    kvstore.BatchWriter
	cd    kvstore.ConditionalDeleter
	inc   kvstore.Incrementer
	sc    kvstore.Scanner

	tr    *tracer
	slot  *slot
	layer layerID
}

// Every capability interface server/conn.go asserts at accept time (and
// hotcache.Wrap asserts on the session under it), plus the Release hook.
var (
	_ kvstore.Session              = (*tsession)(nil)
	_ kvstore.ValueReader          = (*tsession)(nil)
	_ kvstore.BatchWriter          = (*tsession)(nil)
	_ kvstore.ConditionalDeleter   = (*tsession)(nil)
	_ kvstore.Incrementer          = (*tsession)(nil)
	_ kvstore.Scanner              = (*tsession)(nil)
	_ interface{ Release() error } = (*tsession)(nil)
)

type missingCapability struct{}

func (missingCapability) Error() string { return "benchmark: traced store lacks capability" }

// timed runs fn as a span when a window is open, bare otherwise.
func (s *tsession) timed(kind spanKind, n int, fn func()) {
	w := s.slot.window.Load()
	if w == 0 {
		fn()
		return
	}
	i := s.slot.begin(w, s.layer, kind, n, s.tr.now())
	fn()
	s.slot.end(i, s.tr.now())
}

func (s *tsession) GetInto(key, dst []byte) (val []byte, ok bool, err error) {
	w := s.slot.window.Load()
	if w == 0 {
		return s.getInto(key, dst)
	}
	i := s.slot.begin(w, s.layer, spanGet, 1, s.tr.now())
	val, ok, err = s.getInto(key, dst)
	s.slot.end(i, s.tr.now())
	return val, ok, err
}

func (s *tsession) getInto(key, dst []byte) ([]byte, bool, error) {
	if s.vr != nil {
		return s.vr.GetInto(key, dst)
	}
	val, ok, err := s.inner.Get(key)
	if ok {
		val = append(dst, val...)
	}
	return val, ok, err
}

func (s *tsession) Get(key []byte) ([]byte, bool, error) { return s.GetInto(key, nil) }

func (s *tsession) Put(key, value []byte) error {
	w := s.slot.window.Load()
	if w == 0 {
		return s.inner.Put(key, value)
	}
	i := s.slot.begin(w, s.layer, spanPut, 1, s.tr.now())
	err := s.inner.Put(key, value)
	s.slot.end(i, s.tr.now())
	return err
}

func (s *tsession) PutBatch(keys, values [][]byte) (err error) {
	if s.bw == nil {
		return missingCapability{}
	}
	s.timed(spanPutBatch, len(keys), func() { err = s.bw.PutBatch(keys, values) })
	return err
}

func (s *tsession) Flush() (err error) {
	s.timed(spanFlush, 0, func() { err = s.inner.Flush() })
	return err
}

// Delete, DeleteIfPresent, IncrBy, Scan and Snapshot are forwarded untimed:
// no workload issues them; they exist so the server finds every capability.
func (s *tsession) Delete(key []byte) error { return s.inner.Delete(key) }

func (s *tsession) DeleteIfPresent(key []byte) (bool, error) {
	if s.cd == nil {
		return false, missingCapability{}
	}
	return s.cd.DeleteIfPresent(key)
}

func (s *tsession) IncrBy(key []byte, delta int64) (int64, error) {
	if s.inc == nil {
		return 0, missingCapability{}
	}
	return s.inc.IncrBy(key, delta)
}

func (s *tsession) Scan(cursor uint64, limit int) ([]kvstore.KV, uint64, error) {
	if s.sc == nil {
		return nil, 0, missingCapability{}
	}
	return s.sc.Scan(cursor, limit)
}

func (s *tsession) Snapshot() (kvstore.Snapshot, error) {
	if s.sc == nil {
		return nil, missingCapability{}
	}
	return s.sc.Snapshot()
}

func (s *tsession) Clock() *simclock.Clock { return s.inner.Clock() }

// Release forwards the session-recycling hook the server calls at hang-up.
func (s *tsession) Release() error {
	if r, ok := s.inner.(interface{ Release() error }); ok {
		return r.Release()
	}
	return s.inner.Flush()
}
