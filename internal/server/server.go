// Package server is ChameleonDB's network serving layer: a TCP server that
// speaks the RESP2 protocol (package internal/resp) over a kvstore.Store whose
// sessions implement kvstore.ServingSession — every command calls that one
// contract directly, with no fallback for a store that lacks part of it.
//
// The threading model is the Go storage-server idiom (cf. go-nfsd): one
// goroutine and one kvstore.ServingSession per connection over shared engine
// state.
// The session gives each connection a private log appender (its DRAM write
// batch) and a reader-epoch slot on the lock-free get path, so connections
// scale the same way BenchmarkGetParallel's worker goroutines do — no shared
// mutex anywhere on the GET path.
//
// Requests are fully pipelined: the handler decodes every command already
// buffered on the connection (up to Config.MaxPipeline), executes them in
// order into a reply buffer, and only then touches the socket again. Writes
// are acknowledged durably by default: a batch that contains a SET/DEL holds
// its replies until the handler has flushed its own session — one log persist
// for everything the batch wrote. There is no commit window and no shared
// committer: concurrent connections' persists overlap in the medium.
//
// Backpressure is structural: a connection gets no new commands parsed while
// its previous batch is executing (one goroutine), the reply buffer caps at
// MaxPipeline commands per round, and the listener refuses connections past
// MaxConns. Shutdown drains: the listener closes first (late dials are
// refused), live connections finish the batch they are executing — including
// its commit — and then unwind.
package server

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"chameleondb/internal/hotcache"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/obs"
	"chameleondb/internal/resp"
	"chameleondb/internal/simclock"
)

// Config tunes the serving layer. The zero value of every field means "use
// the default" (DefaultConfig's value), so callers set only what they need.
type Config struct {
	// Addr is the TCP listen address.
	Addr string
	// MaxConns caps concurrent connections; past it, new connections get an
	// error reply and are closed. <0 disables the cap.
	MaxConns int
	// MaxPipeline caps commands decoded per batch before replies are
	// flushed, bounding the reply buffer a hostile pipeliner can run up.
	MaxPipeline int
	// ReadTimeout is the per-connection idle limit: a connection that sends
	// no command for this long is closed. <0 disables.
	ReadTimeout time.Duration
	// WriteTimeout bounds one reply-buffer write to the socket. <0 disables.
	WriteTimeout time.Duration
	// AsyncAck, when set, acknowledges writes without flushing the session
	// (replies do not wait for durability — the engine's default in-process
	// contract). The default, false, is durable acks.
	AsyncAck bool
	// ReplyRetainBytes bounds the reply buffer capacity a connection keeps
	// across batches; after a batch whose replies grew past it, the buffer
	// shrinks back to its initial size. 0 uses the resp.Writer default (1 MiB).
	ReplyRetainBytes int
	// Limits bound the RESP parser.
	Limits resp.Limits
	// Repl, when set, wires REPLICAOF/WAIT and the INFO replication section to
	// the replication subsystem (internal/repl.Node implements it). Nil keeps
	// those commands inert: WAIT answers 0 after a flush, REPLICAOF errors.
	Repl Replicator
	// Cache, when set, interposes a hot-key DRAM cache between every
	// connection's session and the store (hotcache.Wrap): reads fill it,
	// writes invalidate it, FLUSHALL empties it. Nil (the default) serves
	// straight from the engine.
	Cache *hotcache.Cache
}

// Replicator is the control surface the replication subsystem exposes to the
// wire protocol.
type Replicator interface {
	// ReplicaOf points the node at a primary; the empty address promotes it
	// back to primary (REPLICAOF NO ONE).
	ReplicaOf(addr string) error
	// Wait flushes the session and blocks until numReplicas connected replicas
	// acknowledge durability up to the resulting watermark, or the timeout
	// elapses; it returns how many had acknowledged when it stopped waiting.
	Wait(se kvstore.Session, numReplicas int, timeout time.Duration) (int, error)
	// InfoSection appends the "# Replication" INFO section.
	InfoSection(b []byte) []byte
}

// DefaultConfig returns production-leaning defaults.
func DefaultConfig() Config {
	return Config{
		Addr:         "127.0.0.1:6379",
		MaxConns:     1024,
		MaxPipeline:  128,
		ReadTimeout:  5 * time.Minute,
		WriteTimeout: time.Minute,
		Limits:       resp.DefaultLimits(),
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Addr == "" {
		c.Addr = d.Addr
	}
	if c.MaxConns == 0 {
		c.MaxConns = d.MaxConns
	}
	if c.MaxPipeline <= 0 {
		c.MaxPipeline = d.MaxPipeline
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = d.ReadTimeout
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = d.WriteTimeout
	}
	return c
}

// Server serves RESP over a kvstore.Store whose sessions are
// kvstore.ServingSessions.
type Server struct {
	cfg     Config
	store   kvstore.Store
	cache   *hotcache.Cache
	metrics *Metrics
	reg     *obs.Registry
	start   time.Time

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining bool

	wg      sync.WaitGroup // live connection handlers
	serveWg sync.WaitGroup // accept loop
}

// New creates a server over store. When the store exposes an obs registry
// (obs.Provider), the server's metrics register into it so one scrape covers
// wire and engine; otherwise the server keeps a private registry, reachable
// via Registry either way.
func New(store kvstore.Store, cfg Config) *Server {
	cfg = cfg.withDefaults()
	// The cache interposes at the store boundary, not per command: every
	// session this server hands out reads through it and invalidates it on
	// write, so no dispatch path can forget to.
	store = hotcache.Wrap(store, cfg.Cache)
	s := &Server{
		cfg:     cfg,
		store:   store,
		cache:   cfg.Cache,
		metrics: &Metrics{},
		conns:   make(map[*conn]struct{}),
		start:   time.Now(),
	}
	if p, ok := store.(obs.Provider); ok && p.Registry() != nil {
		s.reg = p.Registry()
	} else {
		s.reg = obs.NewRegistry("chameleon_server")
	}
	s.metrics.Register(s.reg)
	s.cache.Register(s.reg)
	return s
}

// Metrics returns the serving layer's live counters.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Registry returns the registry the server's metrics are registered in (the
// store's own when it has one).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Listen binds the configured address. Addr is valid afterwards; Serve runs
// the accept loop.
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	return nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// ListenAndServe binds and serves until Shutdown.
func (s *Server) ListenAndServe() error {
	if err := s.Listen(); err != nil {
		return err
	}
	return s.Serve()
}

// Serve accepts connections until the listener closes. Returns nil on a
// Shutdown-initiated close.
func (s *Server) Serve() error {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln == nil {
		return fmt.Errorf("server: Serve before Listen")
	}
	s.serveWg.Add(1)
	defer s.serveWg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.isDraining() {
				return nil
			}
			return err
		}
		s.admit(nc)
	}
}

// admit registers a new connection or refuses it over the wire.
func (s *Server) admit(nc net.Conn) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		nc.Close()
		return
	}
	if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
		s.mu.Unlock()
		s.metrics.ConnsRejected.Add(1)
		w := resp.NewWriter(nc)
		w.Error("ERR max number of clients reached")
		nc.SetWriteDeadline(time.Now().Add(time.Second))
		w.Flush()
		nc.Close()
		return
	}
	c := newConn(s, nc)
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	s.metrics.ConnsAccepted.Add(1)
	s.metrics.ConnsOpen.Add(1)
	go c.serve()
}

// remove unregisters a finished connection.
func (s *Server) remove(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.metrics.ConnsOpen.Add(-1)
	s.metrics.ConnsClosed.Add(1)
	s.wg.Done()
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the server: the listener closes first so late dials are
// refused, and every live connection finishes the pipelined batch it is
// executing (including its commit) and unwinds. Connections idle in a read
// are unblocked by an immediate read deadline. If ctx expires first,
// remaining connections are closed forcibly and ctx.Err is returned. Safe to
// call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	if first {
		if ln != nil {
			ln.Close()
		}
		for _, c := range conns {
			c.nudge()
		}
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.serveWg.Wait()
	return err
}

// newSession builds the per-connection session. Each connection gets its own
// virtual clock: network workers are exactly the per-worker sessions the
// engine was designed around. The store's sessions must implement
// kvstore.ServingSession; one that does not is a programming error.
func (s *Server) newSession() kvstore.ServingSession {
	return s.store.NewSession(simclock.New(0)).(kvstore.ServingSession)
}
