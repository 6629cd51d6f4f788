package repl

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"chameleondb/internal/core"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/obs"
	"chameleondb/internal/simclock"
	"chameleondb/internal/wlog"
)

// Roles a node serves in.
const (
	RolePrimary = "primary"
	RoleReplica = "replica"
)

// ErrNeedsReset is reported (via Status.NeedsReset and the link status) when
// the primary demands a full resync but the local store holds diverged state
// and no ResetStore hook was configured. Restarting the process with a fresh
// (or wiped) data directory clears it; chameleon-server's -replicaof startup
// path does exactly that.
var ErrNeedsReset = errors.New("repl: full resync required; local store has diverged state and no reset hook")

// Config parametrizes a replication node. The zero value of every field gets
// a sensible default from Start except Addr/PrimaryAddr, which select the
// node's initial shape: Addr non-empty listens for replicas, PrimaryAddr
// non-empty starts catching up from that primary. Both may be set (a replica
// that can itself be replicated from after promotion — the normal serving
// shape).
type Config struct {
	// Addr is the replication listen address ("" = do not accept replicas).
	Addr string
	// PrimaryAddr, when non-empty, starts the node as a replica of the
	// primary's replication address.
	PrimaryAddr string
	// ID identifies this node to its primary (GC holds and INFO lines key
	// off it). Defaults to the dialing connection's local address.
	ID string
	// HoldTimeout is how long a disconnected replica's GC hold survives
	// before the primary releases it (and with it the chance of an
	// incremental reconnect). Default 30s.
	HoldTimeout time.Duration
	// Heartbeat is the primary's idle ping cadence. Default 100ms.
	Heartbeat time.Duration
	// WriteTimeout bounds every frame write from the primary to a replica. A
	// replica process that is alive but has stopped reading would otherwise
	// block the sender in TCP backpressure forever, with its GC hold pinning
	// the primary's log until it fills and all writes fail; the deadline
	// drops such a peer to the held state, whose HoldTimeout then bounds the
	// pin. Default 10s.
	WriteTimeout time.Duration
	// MaxChunk bounds one Entries frame's payload. Default 256 KiB.
	MaxChunk int
	// DialTimeout bounds replica connect attempts. Default 3s.
	DialTimeout time.Duration
	// ReconnectDelay is the replica's initial retry backoff (doubles to 16x).
	// Default 100ms.
	ReconnectDelay time.Duration
	// ResetStore, when set, is called to rebuild the local store from
	// scratch when the primary demands a full resync over diverged state
	// (epoch mismatch, or the primary GC'd past our watermark). It runs only
	// inside Start, before the store is served; later resync demands latch
	// ErrNeedsReset instead. The node adopts the returned store.
	ResetStore func() (*core.Store, error)
	// AckGate, when set, must return true for a durable ack to leave this
	// replica. The crash-sweep harness injects the simulated device's
	// power-failure latch here, so a "dead" replica can never confirm
	// durability the model already discarded. Production leaves it nil.
	AckGate func() bool
	// OnApply, when set, is called with each key after the replica has
	// applied the replicated record. Replicated applies bypass the serving
	// layer's sessions, so a node that fronts its store with a hot-key cache
	// (hotcache.Wrap) hooks the cache's Invalidate here — otherwise replica
	// reads could serve pre-catch-up values from DRAM. The key aliases the
	// wire frame buffer: use it during the call, do not retain it.
	OnApply func(key []byte)
}

func (c *Config) defaults() {
	if c.HoldTimeout <= 0 {
		c.HoldTimeout = 30 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 100 * time.Millisecond
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.MaxChunk <= 0 || c.MaxChunk > MaxFramePayload-1024 {
		c.MaxChunk = 256 << 10
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 3 * time.Second
	}
	if c.ReconnectDelay <= 0 {
		c.ReconnectDelay = 100 * time.Millisecond
	}
}

// counters is the node's wire accounting, registered as repl_* metrics.
type counters struct {
	framesSent     atomic.Int64
	framesReceived atomic.Int64
	bytesSent      atomic.Int64
	bytesReceived  atomic.Int64
	entriesShipped atomic.Int64
	entriesApplied atomic.Int64
	acksSent       atomic.Int64
	acksReceived   atomic.Int64
	fullSyncs      atomic.Int64
	reconnects     atomic.Int64
	waits          atomic.Int64
}

// Node is one store's replication identity: it can serve a hub of replicas
// (primary half, primary.go) and/or tail a primary (replica half,
// replica.go), and switches between the two at promotion.
type Node struct {
	cfg Config
	c   counters

	mu          sync.Mutex
	st          *core.Store
	role        string
	primaryAddr string
	link        *link
	hub         *hub
	needsReset  bool
	closed      bool
}

// Start builds a node around st. If cfg.PrimaryAddr is set, Start performs
// one synchronous handshake before returning: a full-resync demand over a
// non-empty store is resolved here — via cfg.ResetStore when provided (the
// node adopts and returns the fresh store) — so the caller serves a store
// that is already converging. A primary that cannot be reached yet is not an
// error; the replica keeps retrying in the background.
func Start(st *core.Store, cfg Config) (*Node, error) {
	cfg.defaults()
	n := &Node{cfg: cfg, st: st, role: RolePrimary}
	if cfg.Addr != "" {
		h, err := newHub(n, cfg.Addr)
		if err != nil {
			return nil, err
		}
		n.hub = h
	}
	if cfg.PrimaryAddr != "" {
		n.role = RoleReplica
		n.primaryAddr = cfg.PrimaryAddr
		st.SetReadOnly(true)
		n.startLink(cfg.PrimaryAddr, true)
	} else {
		// Every fresh primary lifetime gets a new lineage ID and epoch:
		// incremental resume is only ever valid within a single primary
		// lifetime, where the LSN → content mapping below the ship watermark
		// is immutable. The random ID is the actual lineage check — bare
		// epoch counters collide across unrelated nodes (every fresh primary
		// would start at 1) — so a replica of any other lifetime, including a
		// deposed primary's, fails the ID comparison at handshake and
		// full-resyncs instead of resuming over a possibly diverged history.
		_, epoch, applied := st.ReplState()
		st.SetReplState(newReplID(), epoch+1, applied)
	}
	n.registerMetrics(n.store().Registry())
	if n.hub != nil {
		n.hub.run()
	}
	return n, nil
}

// Store returns the store the node currently fronts. Start's synchronous
// full-resync path may have swapped it; callers building a serving layer must
// use this, not the store they passed in.
func (n *Node) Store() *core.Store {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.st
}

func (n *Node) store() *core.Store {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.st
}

// Role returns RolePrimary or RoleReplica.
func (n *Node) Role() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Addr returns the replication listen address ("" when not listening).
func (n *Node) Addr() string {
	if n.hub == nil {
		return ""
	}
	return n.hub.ln.Addr().String()
}

// Promote makes the node a primary: the replica link (if any) is torn down
// after finishing its in-flight frame, a fresh replication lineage ID is
// minted (and the epoch bumped), and the read-only gate opens. The new ID is
// the failover safety argument: a deposed primary reconnecting with the old
// lineage can never resume incrementally, so writes it acknowledged but never
// shipped die with its full resync instead of resurrecting (DESIGN.md §8).
func (n *Node) Promote() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errors.New("repl: node closed")
	}
	l := n.link
	n.link = nil
	wasReplica := n.role == RoleReplica
	n.role = RolePrimary
	n.primaryAddr = ""
	n.needsReset = false
	st := n.st
	n.mu.Unlock()
	if l != nil {
		l.stop()
	}
	if wasReplica {
		_, epoch, applied := st.ReplState()
		st.SetReplState(newReplID(), epoch+1, applied)
	}
	st.SetReadOnly(false)
	return nil
}

// ReplicaOf redirects the node: addr "" (or "no one", case-insensitive, as
// the serving layer normalizes) promotes; otherwise the node becomes a
// replica of addr, tearing down any previous link. Becoming a replica of a
// primary whose history has diverged from the local store latches
// ErrNeedsReset (visible in Status and INFO) rather than serving wrong data.
func (n *Node) ReplicaOf(addr string) error {
	if addr == "" {
		return n.Promote()
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errors.New("repl: node closed")
	}
	old := n.link
	n.link = nil
	n.role = RoleReplica
	n.primaryAddr = addr
	n.needsReset = false
	st := n.st
	n.mu.Unlock()
	if old != nil {
		old.stop()
	}
	st.SetReadOnly(true)
	n.startLink(addr, false)
	return nil
}

// Wait implements WAIT numreplicas timeout: it flushes the session, seals
// every appender so the ship frontier covers the session's writes, and
// blocks until numReplicas replicas have durably acknowledged that frontier
// or the timeout expires. It returns the number of replicas that had durably
// acknowledged the target when it returned — the WAIT reply. timeout <= 0
// means a 1h cap rather than forever (a server should not be unboundedly
// hostage to a dead replica).
func (n *Node) Wait(se kvstore.Session, numReplicas int, timeout time.Duration) (int, error) {
	n.c.waits.Add(1)
	if err := se.Flush(); err != nil {
		return 0, err
	}
	hub := n.hub
	if hub == nil {
		return 0, nil
	}
	st := n.store()
	if err := st.Log().SealAll(simclock.New(0)); err != nil {
		return 0, err
	}
	target := st.Log().DurableLSN()
	if timeout <= 0 {
		timeout = time.Hour
	}
	return hub.waitDurable(target, numReplicas, timeout), nil
}

// PeerStatus describes one connected (or recently disconnected but still
// held) replica from the primary's side.
type PeerStatus struct {
	ID        string
	Connected bool
	Cursor    int64 // next LSN to ship
	Applied   int64
	Durable   int64
}

// Status is a point-in-time snapshot of the node for INFO, chameleonctl, and
// tests.
type Status struct {
	Role        string
	ReplID      string
	Epoch       int64
	PrimaryAddr string
	LinkUp      bool
	NeedsReset  bool
	AppliedLSN  int64 // replica: primary LSN applied up to
	DurableLSN  int64 // replica: primary LSN durably applied up to
	Watermark   int64 // primary: ship frontier (wlog DurableLSN)
	Peers       []PeerStatus
}

// Status snapshots the node.
func (n *Node) Status() Status {
	n.mu.Lock()
	st := n.st
	s := Status{
		Role:        n.role,
		PrimaryAddr: n.primaryAddr,
		NeedsReset:  n.needsReset,
	}
	l := n.link
	n.mu.Unlock()
	s.ReplID, s.Epoch, _ = st.ReplState()
	if l != nil {
		s.LinkUp = l.up.Load()
		s.AppliedLSN = l.applied.Load()
		s.DurableLSN = l.durable.Load()
	}
	if n.hub != nil {
		s.Watermark = st.Log().DurableLSN()
		s.Peers = n.hub.peerStatus()
	}
	return s
}

// ConnectedReplicas returns how many replicas are currently attached.
func (n *Node) ConnectedReplicas() int {
	if n.hub == nil {
		return 0
	}
	return n.hub.connected()
}

// InfoSection appends a redis-style "# Replication" INFO section.
func (n *Node) InfoSection(b []byte) []byte {
	s := n.Status()
	app := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	app("# Replication\r\n")
	if s.Role == RolePrimary {
		app("role:master\r\n")
	} else {
		app("role:slave\r\n")
		host, port, _ := net.SplitHostPort(s.PrimaryAddr)
		app("master_host:%s\r\n", host)
		app("master_port:%s\r\n", port)
		switch {
		case s.NeedsReset:
			app("master_link_status:resync_needed\r\n")
		case s.LinkUp:
			app("master_link_status:up\r\n")
		default:
			app("master_link_status:down\r\n")
		}
		app("slave_read_only:1\r\n")
		app("slave_applied_lsn:%d\r\n", s.AppliedLSN)
		app("slave_durable_lsn:%d\r\n", s.DurableLSN)
	}
	app("master_replid:%s\r\n", s.ReplID)
	app("repl_epoch:%d\r\n", s.Epoch)
	connected := 0
	for _, p := range s.Peers {
		if p.Connected {
			connected++
		}
	}
	app("connected_slaves:%d\r\n", connected)
	for i, p := range s.Peers {
		state := "online"
		if !p.Connected {
			state = "held"
		}
		app("slave%d:id=%s,state=%s,cursor=%d,applied=%d,durable=%d,lag=%d\r\n",
			i, p.ID, state, p.Cursor, p.Applied, p.Durable, s.Watermark-p.Durable)
	}
	if s.Watermark != 0 {
		app("master_ship_lsn:%d\r\n", s.Watermark)
	}
	return b
}

// Close tears the node down: the hub stops accepting and drops its peers
// (releasing their GC holds), the replica link disconnects after its
// in-flight frame. The store itself is not closed.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	l := n.link
	n.link = nil
	n.mu.Unlock()
	if l != nil {
		l.stop()
	}
	if n.hub != nil {
		n.hub.close()
	}
	return nil
}

// registerMetrics exposes the node's counters and status gauges in the
// store's registry, so /metrics and INFO share one source.
func (n *Node) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("repl_frames_sent", n.c.framesSent.Load)
	reg.CounterFunc("repl_frames_received", n.c.framesReceived.Load)
	reg.CounterFunc("repl_bytes_sent", n.c.bytesSent.Load)
	reg.CounterFunc("repl_bytes_received", n.c.bytesReceived.Load)
	reg.CounterFunc("repl_entries_shipped", n.c.entriesShipped.Load)
	reg.CounterFunc("repl_entries_applied", n.c.entriesApplied.Load)
	reg.CounterFunc("repl_acks_sent", n.c.acksSent.Load)
	reg.CounterFunc("repl_acks_received", n.c.acksReceived.Load)
	reg.CounterFunc("repl_full_syncs", n.c.fullSyncs.Load)
	reg.CounterFunc("repl_reconnects", n.c.reconnects.Load)
	reg.CounterFunc("repl_waits", n.c.waits.Load)
	reg.GaugeFunc("repl_is_primary", func() int64 {
		if n.Role() == RolePrimary {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("repl_connected_replicas", func() int64 {
		return int64(n.ConnectedReplicas())
	})
	reg.GaugeFunc("repl_link_up", func() int64 {
		n.mu.Lock()
		l := n.link
		n.mu.Unlock()
		if l != nil && l.up.Load() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("repl_applied_lsn", func() int64 {
		n.mu.Lock()
		l := n.link
		n.mu.Unlock()
		if l == nil {
			return 0
		}
		return l.applied.Load()
	})
}

// newReplID mints a replication lineage ID: 40 hex chars of entropy, unique
// per primary lifetime. Two stores share an LSN history iff their IDs match.
func newReplID() string {
	var b [20]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; if it somehow
		// does, a constant-free fallback is still better than panicking in
		// Start. The all-zero ID only risks an unnecessary full resync.
		return "0000000000000000000000000000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// exportRange encodes log entries in [from, to) into an Entries payload of at
// most maxBytes record bytes, returning the payload and the cursor it
// advances to (to when the range was exhausted, the first unshipped entry's
// LSN when the size limit stopped it early). The scan is race-free against
// live appenders because to never exceeds DurableLSN, which never exceeds
// MinNextLSN — see wlog.ScanRange.
// Whatever maxBytes the config allows, the payload never exceeds
// MaxFramePayload: a record that would push it past stops the scan instead,
// so the replica's decoder can never reject a frame the primary would then
// deterministically rebuild (a livelock). The first record is always taken —
// one record always fits, since log entries are bounded by the segment size,
// far below MaxFramePayload — so the cursor always advances.
func exportRange(log *wlog.Log, clk *simclock.Clock, from, to int64, maxBytes int, flags byte) (payload []byte, next int64, count int, err error) {
	payload = appendEntriesHeader(make([]byte, 0, entriesHeader+maxBytes/4), from, to, flags)
	next = to
	err = log.ScanRange(clk, from, to, func(e wlog.Entry) bool {
		rec := recordHeader + len(e.Key) + len(e.Value)
		if count > 0 && (len(payload)-entriesHeader >= maxBytes || len(payload)+rec > MaxFramePayload) {
			next = e.LSN
			return false
		}
		payload = appendRecord(payload, e.LSN, e.Key, e.Value, e.Tombstone())
		count++
		return true
	})
	if err != nil {
		return nil, 0, 0, err
	}
	patchEntriesNext(payload, next)
	return payload, next, count, nil
}
