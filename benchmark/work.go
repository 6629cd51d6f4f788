package main

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// worker is one closed-loop client: a RESP connection (wire workloads) or a
// session (embedded-mixed). It issues its op stream window by window — the
// next window is not sent before the last reply of this one — checks every
// reply, and keeps the per-key last-acknowledged version.
type worker struct {
	id       int
	versions []uint32 // shared; key k is written only by worker k % clients
	exact    bool     // workload has no writes: every read checks its version

	c  *client    // wire
	se embSession // embedded
	sl *slot      // trace slot of the session serving this worker; nil untraced

	key, val [8]byte
	buf      []byte

	attempted int64
	failed    int64
	writes    int64 // SETs / Puts issued, for write_amp's denominator
	firstErr  error
	dead      bool // connection lost: remaining ops count as failed
	windowSeq uint32
}

func (w *worker) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// checkGet validates one read of key k. The key-part must match; the version
// must be exact where this worker can know it — on read-only workloads, and
// on keys it alone writes.
func (w *worker) checkGet(k uint32, v []byte, err error) {
	if err != nil {
		w.fail(fmt.Errorf("GET %08x: %w", k, err))
		return
	}
	ki, ver, ok := valueParts(v)
	switch {
	case !ok || ki != k:
		w.fail(fmt.Errorf("GET %08x: wrong value %x", k, v))
	case (w.exact || int(k)%clients == w.id) && ver != w.versions[k]:
		w.fail(fmt.Errorf("GET %08x: version %d, want %d", k, ver, w.versions[k]))
	}
}

// wireWindow pipelines one window over the connection: queue all, one write,
// read all replies in order.
func (w *worker) wireWindow(win []uint32) {
	for _, op := range win {
		k := op &^ opWrite
		if op&opWrite != 0 {
			w.versions[k]++
			w.writes++
			w.c.queueSet(k, w.versions[k])
		} else {
			w.c.queueGet(k)
		}
	}
	if err := w.c.flush(); err != nil {
		w.dead = true
		w.failed += int64(len(win))
		w.firstErr = errors.Join(w.firstErr, err)
		return
	}
	for i, op := range win {
		k := op &^ opWrite
		var err error
		if op&opWrite != 0 {
			if err = w.c.readOK(); err != nil {
				w.fail(fmt.Errorf("SET %08x: %w", k, err))
			}
		} else {
			var v []byte
			v, err = w.c.readBulk()
			w.checkGet(k, v, err)
		}
		if err != nil && !isReplyError(err) {
			// The stream is broken, not just one reply: nothing after this
			// can be matched to its command.
			w.dead = true
			w.failed += int64(len(win) - i - 1)
			return
		}
	}
}

// isReplyError reports whether err is a well-formed but unwanted reply (null
// or -ERR), after which the connection is still in sync.
func isReplyError(err error) bool { return errors.Is(err, errNull) || errors.Is(err, errReply) }

// embWindow runs one block of ops straight against the session.
func (w *worker) embWindow(win []uint32) {
	for _, op := range win {
		k := op &^ opWrite
		putKey(w.key[:], k)
		if op&opWrite != 0 {
			w.versions[k]++
			w.writes++
			putValue(w.val[:], k, w.versions[k])
			if err := w.se.Put(w.key[:], w.val[:]); err != nil {
				w.fail(fmt.Errorf("Put %08x: %w", k, err))
			}
			continue
		}
		v, ok, err := w.se.GetInto(w.key[:], w.buf[:0])
		if err == nil && !ok {
			err = errNull
		}
		w.checkGet(k, v, err)
		w.buf = v[:0]
	}
}

// phase is one timed run of every worker over its own op stream.
type phase struct {
	depth int
	// tr enables timing: every window's round trip is taken (rtts, max) and
	// one window in sampleEvery is opened as a root span. Nil times nothing —
	// end-to-end numbers come from phases without a clock in the loop.
	tr          *tracer
	sampleEvery int
}

type phaseResult struct {
	wall time.Duration
	ops  int
	rtts [][]int64 // per worker, every window's round trip in ns (timed phases)
}

// runFor measures for d of wall clock: whole slices of sliceOps operations
// per worker, one after another, until d has been measured or the streams are
// used up — so a phase is never shorter than asked, whatever the host's
// speed, and never much longer. After every slice it calls afterSlice, when
// given one, with the number of slices done: the workers are idle then, so
// counters can be read at an exact op count. used is how far into each stream
// the phase got.
func (p phase) runFor(ws []*worker, streams [][]uint32, sliceOps int, d time.Duration, afterSlice func(done int)) (res phaseResult, used int) {
	res.rtts = make([][]int64, len(ws))
	for done := 1; used < len(streams[0]) && res.wall < d; done++ {
		r := p.run(ws, split(streams, used, used+sliceOps))
		used = min(used+sliceOps, len(streams[0]))
		res.wall += r.wall
		res.ops += r.ops
		for i := range r.rtts {
			res.rtts[i] = append(res.rtts[i], r.rtts[i]...)
		}
		if afterSlice != nil {
			afterSlice(done)
		}
	}
	return res, used
}

// kops is the phase's throughput: ops over the wall clock of the whole phase.
func (r phaseResult) kops() float64 { return float64(r.ops) / r.wall.Seconds() / 1e3 }

// run drives all workers concurrently over one slice and returns when the
// last one is done.
// Embedded workers end with a Flush — the final flush barrier — inside the
// timed region, so the phase's throughput is for durable work.
func (p phase) run(ws []*worker, streams [][]uint32) phaseResult {
	res := phaseResult{rtts: make([][]int64, len(ws))}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, w := range ws {
		res.ops += len(streams[i])
		if p.tr != nil {
			res.rtts[i] = make([]int64, 0, len(streams[i])/p.depth+1)
		}
		wg.Add(1)
		go func(w *worker, ops []uint32, rtts *[]int64) {
			defer wg.Done()
			<-start
			p.drive(w, ops, rtts)
		}(w, streams[i], &res.rtts[i])
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	res.wall = time.Since(t0)
	return res
}

func (p phase) drive(w *worker, ops []uint32, rtts *[]int64) {
	w.attempted += int64(len(ops))
	for off := 0; off < len(ops); off += p.depth {
		if w.dead {
			w.failed += int64(len(ops) - off)
			return
		}
		win := ops[off:min(off+p.depth, len(ops))]
		if p.tr == nil {
			w.window(win)
			continue
		}
		w.windowSeq++
		sampled := w.sl != nil && w.windowSeq%uint32(p.sampleEvery) == 0
		if sampled {
			w.sl.window.Store(w.windowSeq)
		}
		t0 := p.tr.now()
		w.window(win)
		t1 := p.tr.now()
		*rtts = append(*rtts, t1-t0)
		if sampled {
			w.sl.window.Store(0)
			w.sl.root(w.windowSeq, len(win), t0, t1)
		}
	}
	if w.se != nil {
		if err := w.se.Flush(); err != nil {
			w.fail(fmt.Errorf("final flush: %w", err))
		}
	}
}

func (w *worker) window(win []uint32) {
	if w.c != nil {
		w.wireWindow(win)
	} else {
		w.embWindow(win)
	}
}

// split cuts one pre-generated stream per client into [from, to) shares.
func split(streams [][]uint32, from, to int) [][]uint32 {
	out := make([][]uint32, len(streams))
	for i, s := range streams {
		out[i] = s[from:min(to, len(s))]
	}
	return out
}
