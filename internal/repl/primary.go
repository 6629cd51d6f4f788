package repl

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chameleondb/internal/simclock"
)

// hub is the primary half of a node: it accepts replica connections, ships
// log entries below the DurableLSN frontier to each, tracks their acks, and
// pins log GC behind the slowest durable replica via named wlog holds.
type hub struct {
	n  *Node
	ln net.Listener

	mu     sync.Mutex
	peers  map[string]*peer // keyed by replica ID; includes held (disconnected) peers
	ackCh  chan struct{}    // closed and replaced on every durable-ack advance
	closed bool

	// waiters counts pending WAIT callers. While nonzero, senders stamp
	// flagAckDurable on outgoing frames so replicas flush and durably ack
	// immediately instead of on their own cadence.
	waiters atomic.Int64

	wg sync.WaitGroup
}

// peer is one replica, connected or recently disconnected but still holding
// its GC floor.
type peer struct {
	id     string
	conn   net.Conn      // nil while held
	notify chan struct{} // capacity 1; durable hook and WAIT prods poke it
	stopc  chan struct{}

	cursor  atomic.Int64 // next LSN the sender will ship
	applied atomic.Int64
	durable atomic.Int64

	holdTimer *time.Timer // pending hold release while disconnected
}

func holdKey(id string) string { return "replica:" + id }

func newHub(n *Node, addr string) (*hub, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &hub{
		n:     n,
		ln:    ln,
		peers: make(map[string]*peer),
		ackCh: make(chan struct{}),
	}, nil
}

// run starts the accept loop and wires the log's durable hook to the
// senders. Called once the node's store is final (Start's synchronous resync
// may have swapped it).
func (h *hub) run() {
	log := h.n.store().Log()
	log.SetDurableHook(h.prodAll)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for {
			conn, err := h.ln.Accept()
			if err != nil {
				return
			}
			h.wg.Add(1)
			go func() {
				defer h.wg.Done()
				h.serve(conn)
			}()
		}
	}()
}

func (h *hub) close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	peers := make([]*peer, 0, len(h.peers))
	for _, p := range h.peers {
		peers = append(peers, p)
	}
	h.mu.Unlock()
	h.ln.Close()
	h.n.store().Log().SetDurableHook(nil)
	for _, p := range peers {
		h.dropPeer(p, true)
	}
	h.wg.Wait()
}

// prodAll wakes every connected sender. Runs from the wlog durable hook
// (possibly under an appender's mu), so it must never block: sends are
// non-blocking into capacity-1 channels.
func (h *hub) prodAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, p := range h.peers {
		if p.conn != nil {
			select {
			case p.notify <- struct{}{}:
			default:
			}
		}
	}
}

// serve performs the handshake for one inbound replica connection and, on
// success, runs its sender until the connection dies.
func (h *hub) serve(conn net.Conn) {
	p, err := h.handshake(conn)
	if err != nil {
		// Best-effort reject so the replica logs a reason instead of EOF.
		conn.SetWriteDeadline(time.Now().Add(time.Second))
		writeFrame(conn, frameReject, encodeReject(err.Error()))
		conn.Close()
		return
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		h.readAcks(p, conn)
	}()
	h.sendLoop(p, conn)
}

// handshake reads the replica's Hello and decides between incremental resume
// and full resync. The GC hold is registered at 0 *before* reading Base, so
// no concurrent FreeBefore can slip between the decision and the hold: once
// the hold exists, Base cannot advance past it.
//
// Incremental resume is legal only when the replica's lineage ID and epoch
// both match ours (same primary lifetime — LSN → content below the ship
// watermark is immutable within one lifetime) and its watermark still lies
// inside our retained log. Anything else gets full=true: the replica wipes
// and replays our compacted prefix from Base, which reconstructs the full
// live state exactly like recovery does. Resuming across a GC'd gap would
// skip settled tombstones and resurrect deleted keys. The random lineage ID
// — not the bare epoch counter, which collides across unrelated primaries
// (every fresh one starts at 1) — is what stops a replica retargeted to a
// different or diverged primary, or a replica of a deposed primary, from
// resuming over an unrelated LSN stream whose epoch happens to match.
func (h *hub) handshake(conn net.Conn) (*peer, error) {
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := h.read(conn)
	if err != nil {
		return nil, fmt.Errorf("hello: %w", err)
	}
	if typ != frameHello {
		return nil, fmt.Errorf("%w: expected hello, got type %d", ErrBadFrame, typ)
	}
	hl, err := decodeHello(payload)
	if err != nil {
		return nil, err
	}
	conn.SetReadDeadline(time.Time{})
	id := hl.ID
	if id == "" {
		id = conn.RemoteAddr().String()
	}

	st := h.n.store()
	log := st.Log()
	key := holdKey(id)

	h.mu.Lock()
	prev := h.peers[id]
	h.mu.Unlock()
	if prev != nil {
		// A reconnect replaces the old registration but inherits its hold —
		// releaseHold=false leaves the wlog floor in place across the swap.
		h.dropPeer(prev, false)
	}

	log.HoldGC(key, 0)
	replID, epoch, _ := st.ReplState()
	base := log.Base()
	tail := log.Tail()
	full := hl.ReplID != replID || hl.Epoch != epoch || hl.Resume < base || hl.Resume > tail
	start := hl.Resume
	if full {
		start = base
		h.n.c.fullSyncs.Add(1)
	}
	log.HoldGC(key, start)

	p := &peer{
		id:     id,
		conn:   conn,
		notify: make(chan struct{}, 1),
		stopc:  make(chan struct{}),
	}
	p.cursor.Store(start)
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		log.ReleaseGCHold(key)
		return nil, fmt.Errorf("hub closed")
	}
	h.peers[id] = p
	h.mu.Unlock()

	if err := h.writeTimed(conn, frameAccept, encodeAccept(accept{ReplID: replID, Epoch: epoch, Start: start, Full: full})); err != nil {
		h.dropPeer(p, true)
		return nil, err
	}
	return p, nil
}

// writeTimed writes one frame under cfg.WriteTimeout. A replica that is alive
// but has stopped reading stalls the sender in TCP backpressure; the deadline
// turns that into a write error, dropping the peer to the held state so its
// GC hold is bounded by HoldTimeout instead of pinning the log until it fills
// and every client write fails.
func (h *hub) writeTimed(conn net.Conn, typ byte, payload []byte) error {
	conn.SetWriteDeadline(time.Now().Add(h.n.cfg.WriteTimeout))
	err := h.write(conn, typ, payload)
	conn.SetWriteDeadline(time.Time{})
	return err
}

func (h *hub) write(conn net.Conn, typ byte, payload []byte) error {
	err := writeFrame(conn, typ, payload)
	if err == nil {
		h.n.c.framesSent.Add(1)
		h.n.c.bytesSent.Add(int64(headerLen + len(payload)))
	}
	return err
}

func (h *hub) read(conn net.Conn) (byte, []byte, error) {
	typ, payload, err := readFrame(conn)
	if err == nil {
		h.n.c.framesReceived.Add(1)
		h.n.c.bytesReceived.Add(int64(headerLen + len(payload)))
	}
	return typ, payload, err
}

// sendLoop ships log entries to one replica: catch up to the durable
// frontier, then block on its advance notifications, falling back to
// heartbeats, each of which first moves the frontier over anything appended
// but not yet behind a barrier. Nothing leaves before it is durable here: a
// chunk that is only written back could still be lost to a power cut on this
// node, and a replica holding it would then hold a write its primary never
// had. Exits when the connection errors or the peer is stopped.
func (h *hub) sendLoop(p *peer, conn net.Conn) {
	log := h.n.store().Log()
	clk := simclock.New(0)
	hb := time.NewTimer(h.n.cfg.Heartbeat)
	defer hb.Stop()
	defer h.peerDisconnected(p)
	for {
		var flags byte
		if h.waiters.Load() > 0 {
			flags = flagAckDurable
		}
		cursor := p.cursor.Load()
		wm := log.DurableLSN()
		if cursor < wm {
			payload, next, count, err := exportRange(log, clk, cursor, wm, h.n.cfg.MaxChunk, flags)
			if err != nil {
				return
			}
			if err := h.writeTimed(conn, frameEntries, payload); err != nil {
				return
			}
			h.n.c.entriesShipped.Add(int64(count))
			p.cursor.Store(next)
			continue
		}
		if !hb.Stop() {
			select {
			case <-hb.C:
			default:
			}
		}
		hb.Reset(h.n.cfg.Heartbeat)
		select {
		case <-p.notify:
		case <-hb.C:
			// A writer that never flushes issues no barrier, so the frontier
			// would stay below its entries for as long as it keeps writing:
			// write back what every appender holds and barrier here, so a
			// replica trails such a writer by one heartbeat at most.
			if wm < log.MinNextLSN() {
				log.SyncAll(clk)
				if log.DurableLSN() > cursor {
					continue
				}
			}
			if err := h.writeTimed(conn, framePing, encodePing(wm, flags)); err != nil {
				return
			}
		case <-p.stopc:
			return
		}
	}
}

// readAcks consumes the replica's ack stream, advancing its watermarks and
// raising its GC hold to its durable LSN — the primary never frees a segment
// a connected replica has not durably applied past.
func (h *hub) readAcks(p *peer, conn net.Conn) {
	log := h.n.store().Log()
	for {
		typ, payload, err := h.read(conn)
		if err != nil {
			h.peerDisconnected(p)
			return
		}
		if typ != frameAck {
			h.peerDisconnected(p)
			return
		}
		a, err := decodeAck(payload)
		if err != nil {
			h.peerDisconnected(p)
			return
		}
		h.n.c.acksReceived.Add(1)
		p.applied.Store(a.Applied)
		if a.Durable > p.durable.Load() {
			p.durable.Store(a.Durable)
			log.HoldGC(holdKey(p.id), a.Durable)
			h.broadcastAck()
		}
	}
}

// broadcastAck wakes every waitDurable caller to re-check its target.
func (h *hub) broadcastAck() {
	h.mu.Lock()
	close(h.ackCh)
	h.ackCh = make(chan struct{})
	h.mu.Unlock()
}

// peerDisconnected transitions a peer to the held state: the connection is
// closed and forgotten but the GC hold stays for cfg.HoldTimeout, preserving
// the replica's chance to resume incrementally. The timer releases the hold
// (and the registration) if the replica has not reconnected by then.
func (h *hub) peerDisconnected(p *peer) {
	h.mu.Lock()
	if h.peers[p.id] != p || p.conn == nil {
		h.mu.Unlock()
		return
	}
	conn := p.conn
	p.conn = nil
	close(p.stopc)
	if !h.closed {
		p.holdTimer = time.AfterFunc(h.n.cfg.HoldTimeout, func() {
			h.expireHold(p)
		})
	}
	h.mu.Unlock()
	conn.Close()
	h.broadcastAck() // waiters must recount: a counted replica may be gone
}

// expireHold drops a disconnected peer whose HoldTimeout elapsed without a
// reconnect, releasing its wlog GC hold. The identity check makes a stale
// timer harmless: a reconnect replaced the registration with a new *peer.
// The release happens under h.mu (HoldGC/ReleaseGCHold take only the log
// mutex, so no lock-order cycle): released after unlocking, a reconnect
// landing in the window would register a fresh hold that this stale timer
// then strips, leaving log GC free to reclaim segments the new peer's sender
// has not shipped — which ScanRange would silently skip.
func (h *hub) expireHold(p *peer) {
	log := h.n.store().Log()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.peers[p.id] != p || p.conn != nil {
		return
	}
	delete(h.peers, p.id)
	log.ReleaseGCHold(holdKey(p.id))
}

// dropPeer removes a peer immediately. releaseHold=false leaves the wlog hold
// in place for a successor registration (reconnect); true releases it
// (shutdown). The release only happens if p still owned the registration —
// and under h.mu, like expireHold — so a racing reconnect that already
// replaced the registration keeps its own hold.
func (h *hub) dropPeer(p *peer, releaseHold bool) {
	log := h.n.store().Log()
	h.mu.Lock()
	owned := h.peers[p.id] == p
	if owned {
		delete(h.peers, p.id)
	}
	if p.holdTimer != nil {
		p.holdTimer.Stop()
	}
	conn := p.conn
	if conn != nil {
		p.conn = nil
		close(p.stopc)
	}
	if releaseHold && owned {
		log.ReleaseGCHold(holdKey(p.id))
	}
	h.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// waitDurable blocks until want replicas have durably acknowledged target or
// the timeout expires, returning the count at return time. It prods every
// sender so replicas learn acks are wanted now (flagAckDurable) instead of on
// their own cadence.
func (h *hub) waitDurable(target int64, want int, timeout time.Duration) int {
	h.waiters.Add(1)
	defer h.waiters.Add(-1)
	h.prodAll()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		h.mu.Lock()
		count := 0
		for _, p := range h.peers {
			if p.conn != nil && p.durable.Load() >= target {
				count++
			}
		}
		ch := h.ackCh
		h.mu.Unlock()
		if count >= want {
			return count
		}
		select {
		case <-ch:
		case <-deadline.C:
			return count
		}
	}
}

func (h *hub) connected() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, p := range h.peers {
		if p.conn != nil {
			n++
		}
	}
	return n
}

func (h *hub) peerStatus() []PeerStatus {
	h.mu.Lock()
	out := make([]PeerStatus, 0, len(h.peers))
	for _, p := range h.peers {
		out = append(out, PeerStatus{
			ID:        p.id,
			Connected: p.conn != nil,
			Cursor:    p.cursor.Load(),
			Applied:   p.applied.Load(),
			Durable:   p.durable.Load(),
		})
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
