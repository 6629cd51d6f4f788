package server

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"chameleondb/internal/core"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/resp"
	"chameleondb/internal/simclock"
)

// startServer opens a test store (unless one is supplied), binds the server
// on an ephemeral loopback port, and tears both down with the test.
func startServer(t testing.TB, store kvstore.Store, cfg Config) (*Server, string) {
	t.Helper()
	if store == nil {
		st, err := core.Open(core.TestConfig())
		if err != nil {
			t.Fatal(err)
		}
		store = st
		t.Cleanup(func() { st.Close() })
	}
	cfg.Addr = "127.0.0.1:0"
	s := New(store, cfg)
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return s, s.Addr().String()
}

func dialT(t testing.TB, addr string) *resp.Client {
	t.Helper()
	c, err := resp.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeadline(time.Now().Add(30 * time.Second))
	t.Cleanup(func() { c.Close() })
	return c
}

// TestServerE2EPipelinedRace is the ISSUE's flagship test: 32 concurrent
// pipelined clients doing mixed Get/Set/Del against one server. Run under
// -race in CI. Every client owns a key prefix, so every reply is exactly
// predictable — any cross-connection interference shows up as a wrong reply,
// not just as a race report.
func TestServerE2EPipelinedRace(t *testing.T) {
	s, addr := startServer(t, nil, Config{})
	const (
		clients = 32
		rounds  = 20
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := resp.Dial(addr, 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(60 * time.Second))
			for r := 0; r < rounds; r++ {
				key := fmt.Sprintf("c%d-k%d", id, r)
				val := fmt.Sprintf("v%d-%d", id, r)
				// One pipelined batch: SET, GET, EXISTS, DEL, GET.
				c.SendStrings("SET", key, val)
				c.SendStrings("GET", key)
				c.SendStrings("EXISTS", key)
				c.SendStrings("DEL", key)
				c.SendStrings("GET", key)
				if err := c.Flush(); err != nil {
					errs <- fmt.Errorf("client %d flush: %w", id, err)
					return
				}
				want := []func(resp.Reply) error{
					expectSimple("OK"), expectBulk(val), expectInt(1), expectInt(1), expectNull(),
				}
				for i, check := range want {
					rep, err := c.Receive()
					if err != nil {
						errs <- fmt.Errorf("client %d round %d reply %d: %w", id, r, i, err)
						return
					}
					if err := check(rep); err != nil {
						errs <- fmt.Errorf("client %d round %d reply %d: %w", id, r, i, err)
						return
					}
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// A handler counts its batch after the replies are on the wire, so the
	// last clients can get here first.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().CmdsProcessed.Load() < clients*rounds*5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.Metrics().CmdsProcessed.Load(); got < clients*rounds*5 {
		t.Errorf("CmdsProcessed = %d, want >= %d", got, clients*rounds*5)
	}
	// Every round carries a SET and a DEL of a live key, so every round is at
	// least one batch that had to commit before its replies moved.
	if got := s.Metrics().GroupCommits.Load(); got < clients*rounds {
		t.Errorf("GroupCommits = %d, want >= %d", got, clients*rounds)
	}
}

func expectSimple(want string) func(resp.Reply) error {
	return func(r resp.Reply) error {
		if r.Type != resp.TypeSimpleString || r.Text() != want {
			return fmt.Errorf("got %+v, want +%s", r, want)
		}
		return nil
	}
}

func expectBulk(want string) func(resp.Reply) error {
	return func(r resp.Reply) error {
		if r.Type != resp.TypeBulk || r.Null || r.Text() != want {
			return fmt.Errorf("got %+v, want bulk %q", r, want)
		}
		return nil
	}
}

func expectInt(want int64) func(resp.Reply) error {
	return func(r resp.Reply) error {
		if r.Type != resp.TypeInt || r.Int != want {
			return fmt.Errorf("got %+v, want :%d", r, want)
		}
		return nil
	}
}

func expectNull() func(resp.Reply) error {
	return func(r resp.Reply) error {
		if !r.Null {
			return fmt.Errorf("got %+v, want null", r)
		}
		return nil
	}
}

// slowStore gates GetInto so a test can hold a command in flight across
// Shutdown.
type slowStore struct {
	kvstore.Store
	block chan struct{} // GetInto waits on this
	hit   chan struct{} // signaled once a GetInto has entered
	once  sync.Once
}

func (s *slowStore) NewSession(c *simclock.Clock) kvstore.Session {
	return &slowSession{s.Store.NewSession(c).(kvstore.ServingSession), s}
}

type slowSession struct {
	kvstore.ServingSession
	st *slowStore
}

func (se *slowSession) GetInto(key, dst []byte) ([]byte, bool, error) {
	se.st.once.Do(func() { close(se.st.hit) })
	<-se.st.block
	return se.ServingSession.GetInto(key, dst)
}

// TestGracefulShutdown: a command already decoded when Shutdown starts still
// completes and its reply reaches the client; a dial after Shutdown is
// refused; Shutdown itself returns nil.
func TestGracefulShutdown(t *testing.T) {
	st, err := core.Open(core.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	slow := &slowStore{Store: st, block: make(chan struct{}), hit: make(chan struct{})}

	cfg := Config{Addr: "127.0.0.1:0"}
	s := New(slow, cfg)
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve() }()
	addr := s.Addr().String()

	c, err := resp.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(30 * time.Second))
	c.SendStrings("SET", "k", "v")
	c.SendStrings("GET", "k") // blocks server-side in slowSession.GetInto
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	<-slow.hit // the GET is in flight inside the handler

	shutErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutErr <- s.Shutdown(ctx)
	}()

	// Late dials must be refused once the drain began. The listener closes
	// synchronously inside Shutdown, but give the goroutine a moment to get
	// there.
	var dialRefused bool
	for i := 0; i < 100; i++ {
		nc, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			dialRefused = true
			break
		}
		// A connection that sneaks in before ln.Close() is closed unserved.
		nc.Close()
		time.Sleep(10 * time.Millisecond)
	}
	if !dialRefused {
		t.Error("dial during shutdown was never refused")
	}

	// Release the in-flight GET; its reply must still arrive.
	close(slow.block)
	rep, err := c.Receive() // SET reply
	if err != nil {
		t.Fatalf("SET reply during drain: %v", err)
	}
	if rep.Type != resp.TypeSimpleString || rep.Text() != "OK" {
		t.Fatalf("SET reply = %+v, want +OK", rep)
	}
	rep, err = c.Receive() // GET reply
	if err != nil {
		t.Fatalf("GET reply during drain: %v", err)
	}
	if rep.Type != resp.TypeBulk || rep.Text() != "v" {
		t.Fatalf("GET reply = %+v, want bulk \"v\"", rep)
	}

	if err := <-shutErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestMaxConns: past the cap, a connection gets the canonical error reply.
func TestMaxConns(t *testing.T) {
	_, addr := startServer(t, nil, Config{MaxConns: 1})
	c1 := dialT(t, addr)
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	rep, err := resp.NewReader(nc).ReadReply()
	if err != nil {
		t.Fatalf("reading rejection reply: %v", err)
	}
	if rep.Type != resp.TypeError || !strings.Contains(rep.Text(), "max number of clients") {
		t.Fatalf("rejection reply = %+v", rep)
	}
}

// TestCommitPerDirtyBatch: a connection commits by flushing its own session,
// once per batch that wrote and never for one that only read — there is no
// shared committer for concurrent writers to queue behind, so commits equal
// acknowledged write batches exactly, and every one is timed.
func TestCommitPerDirtyBatch(t *testing.T) {
	s, addr := startServer(t, nil, Config{})
	const (
		writers = 16
		sets    = 25
	)
	var wg sync.WaitGroup
	for id := 0; id < writers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := resp.Dial(addr, 5*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(30 * time.Second))
			for r := 0; r < sets; r++ {
				key := fmt.Appendf(nil, "g%d-%d", id, r)
				if err := c.Set(key, []byte("v")); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := c.Get(key); err != nil {
					t.Error(err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	if got := s.Metrics().GroupCommits.Load(); got != writers*sets {
		t.Errorf("GroupCommits = %d, want %d (one per depth-1 SET, none per GET)", got, writers*sets)
	}
	snap := s.Registry().Snapshot()
	if got := snap.Counters["server_group_commit_flushes"]; got != writers*sets {
		t.Errorf("server_group_commit_flushes = %d, want %d", got, writers*sets)
	}
	if got := snap.Histograms["server_commit_us"].Count; got != writers*sets {
		t.Errorf("server_commit_us holds %d samples, want %d", got, writers*sets)
	}
}

// TestPipelineOrder: replies come back in command order within a batch even
// when commands hit different paths (write, read, miss, error).
func TestPipelineOrder(t *testing.T) {
	_, addr := startServer(t, nil, Config{})
	c := dialT(t, addr)
	c.SendStrings("SET", "a", "1")
	c.SendStrings("NOSUCH")
	c.SendStrings("GET", "a")
	c.SendStrings("GET", "missing")
	c.SendStrings("PING")
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	checks := []func(resp.Reply) error{
		expectSimple("OK"),
		func(r resp.Reply) error {
			if r.Type != resp.TypeError || !strings.Contains(r.Text(), "unknown command") {
				return fmt.Errorf("got %+v, want unknown-command error", r)
			}
			return nil
		},
		expectBulk("1"),
		expectNull(),
		expectSimple("PONG"),
	}
	for i, check := range checks {
		rep, err := c.Receive()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if err := check(rep); err != nil {
			t.Errorf("reply %d: %v", i, err)
		}
	}
}

// TestProtocolErrorCloses: a malformed frame earns one -ERR Protocol error
// reply and a closed connection.
func TestProtocolErrorCloses(t *testing.T) {
	s, addr := startServer(t, nil, Config{})
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := nc.Write([]byte("*notanumber\r\n")); err != nil {
		t.Fatal(err)
	}
	r := resp.NewReader(nc)
	rep, err := r.ReadReply()
	if err != nil {
		t.Fatalf("reading error reply: %v", err)
	}
	if rep.Type != resp.TypeError || !strings.Contains(rep.Text(), "Protocol error") {
		t.Fatalf("reply = %+v, want -ERR Protocol error", rep)
	}
	if _, err := r.ReadReply(); err == nil {
		t.Error("connection stayed open after protocol error")
	}
	if s.Metrics().ProtocolErrors.Load() == 0 {
		t.Error("ProtocolErrors not counted")
	}
}

// TestCommands covers the remaining commands' contracts.
// TestEmptySetGet: SET "" "" is acknowledged, so GET "" must reply with the
// empty bulk string $0 — not an error and not a miss. The engine logs that pair
// as an entry whose meta word is all zero.
func TestEmptySetGet(t *testing.T) {
	_, addr := startServer(t, nil, Config{})
	c := dialT(t, addr)
	rep, err := c.DoStrings("SET", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Text() != "OK" {
		t.Fatalf(`SET "" "" = %+v, want +OK`, rep)
	}
	rep, err = c.DoStrings("GET", "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Type != resp.TypeBulk || rep.Null || len(rep.Str) != 0 {
		t.Fatalf(`GET "" = %+v, want $0`, rep)
	}
}

func TestCommands(t *testing.T) {
	_, addr := startServer(t, nil, Config{})
	c := dialT(t, addr)

	// PING with message echoes it.
	rep, err := c.DoStrings("PING", "hello")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Text() != "hello" {
		t.Errorf("PING hello = %+v", rep)
	}
	// EXISTS counts repeats like redis.
	if err := c.Set([]byte("e1"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	rep, err = c.DoStrings("EXISTS", "e1", "e1", "nope")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Int != 2 {
		t.Errorf("EXISTS e1 e1 nope = %+v, want :2", rep)
	}
	// DEL of a missing key is 0 and writes nothing.
	rep, err = c.DoStrings("DEL", "nope")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Int != 0 {
		t.Errorf("DEL nope = %+v, want :0", rep)
	}
	// FLUSHALL is a durability barrier, not a wipe: data survives.
	rep, err = c.DoStrings("FLUSHALL")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Text() != "OK" {
		t.Errorf("FLUSHALL = %+v", rep)
	}
	if val, ok, err := c.Get([]byte("e1")); err != nil || !ok || string(val) != "v" {
		t.Errorf("GET e1 after FLUSHALL = %q %v %v", val, ok, err)
	}
	// COMMAND answers redis-cli's handshake with an empty array.
	rep, err = c.DoStrings("COMMAND")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Type != resp.TypeArray || len(rep.Array) != 0 {
		t.Errorf("COMMAND = %+v, want *0", rep)
	}
	// INFO names the store and carries the stats section.
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	// The persistence section splits the media bytes by purpose; the SET and
	// FLUSHALL above were too few for a last-level compaction. The memory
	// section splits the DRAM the same way.
	for _, want := range []string{"# Server", "store:", "# Stats", "total_commands_processed:",
		"# Persistence", "core_media_bytes_log:", "core_media_bytes_last_compaction:0",
		"# Memory", "core_dram_bytes_abi:", "core_dram_bytes_memtable:", "core_abi_slots:"} {
		if !strings.Contains(info, want) {
			t.Errorf("INFO missing %q:\n%s", want, info)
		}
	}
	// Arity errors don't kill the connection.
	rep, err = c.DoStrings("GET")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Type != resp.TypeError || !strings.Contains(rep.Text(), "wrong number of arguments") {
		t.Errorf("GET with no key = %+v", rep)
	}
	if err := c.Ping(); err != nil {
		t.Errorf("connection dead after arity error: %v", err)
	}
	// QUIT acks then closes.
	rep, err = c.DoStrings("QUIT")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Text() != "OK" {
		t.Errorf("QUIT = %+v", rep)
	}
	if err := c.Ping(); err == nil {
		t.Error("connection alive after QUIT")
	}
}
