package server

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"chameleondb/internal/kvstore"
	"chameleondb/internal/resp"
	"chameleondb/internal/wlog"
)

// pendingCmd tracks one decoded command until its reply reaches the socket,
// so wire latency includes execution, the commit, and the write.
type pendingCmd struct {
	kind cmdKind
	t0   time.Time
}

// connScratchRetain caps the per-connection scratch buffers (GET/MGET value
// buffer, MULTI queue arena) kept across batches, mirroring the RESP reader
// and writer retention caps: one burst of huge values does not pin its
// high-water mark for the connection's lifetime.
const connScratchRetain = 1 << 20

// mgetSpan records one MGET result inside the connection's shared value
// buffer. Offsets, not slices: the buffer may reallocate as later values
// append to it.
type mgetSpan struct {
	off, n int
	hit    bool
}

// argSpan is one queued argument's location in the MULTI arena.
type argSpan struct{ off, n int }

// conn is one client connection: one goroutine, one session, one RESP
// reader/writer pair. The writer buffers replies until the batch's commit —
// the handler's own Session.Flush — has completed, so an ack can never reach
// the wire before the write it acknowledges is durable.
//
// The hot path is allocation-free in steady state: decoded args are spans of
// the reader's reused buffer and flow into the engine without copies (Put
// copies into its log batch before returning), GET values land in the reused
// vbuf via the session's GetInto, and runs of pipelined SETs dispatch through
// its PutBatch, which takes each destination shard's lock once per run.
// Every scratch buffer is cap-bounded so one oversized batch cannot pin its
// high-water mark.
type conn struct {
	srv  *Server
	nc   net.Conn
	r    *resp.Reader
	w    *resp.Writer
	se   kvstore.ServingSession
	pend []pendingCmd

	// vbuf is the reused value buffer for GET/EXISTS/MGET reads (GetInto
	// appends into it); mget records MGET result spans inside it. num is
	// integer-formatting scratch (SCAN cursors).
	vbuf []byte
	mget []mgetSpan
	num  [24]byte

	// runKeys/runVals collect a run of consecutive pipelined SETs whose args
	// are pinned in the reader's buffer (ReadCommandKeep); dispatchRun hands
	// them to PutBatch in one call. MSET borrows the same scratch.
	runKeys [][]byte
	runVals [][]byte

	// MULTI state. Queued commands are copied into the txnBuf arena — decoded
	// args alias the reader's buffer, which is released at batch end — with
	// one argSpan per argument, so queuing allocates nothing in steady state.
	// txnErr latches a queue-time error (unknown command, bad arity); EXEC
	// then aborts the whole transaction, Redis-style. txnArgs is the scratch
	// used to materialize one queued command's args at EXEC time.
	inTxn    bool
	txnErr   bool
	txn      []queuedCmd
	txnBuf   []byte
	txnSpans []argSpan
	txnArgs  [][]byte
}

// queuedCmd is one command buffered between MULTI and EXEC: its args are
// txnSpans[start:start+n] inside the connection's txnBuf arena.
type queuedCmd struct {
	kind  cmdKind
	start int
	n     int
}

func newConn(s *Server, nc net.Conn) *conn {
	c := &conn{
		srv: s,
		nc:  nc,
		r:   resp.NewReaderLimits(nc, s.cfg.Limits),
		w:   resp.NewWriter(nc),
		se:  s.newSession(),
	}
	if s.cfg.ReplyRetainBytes > 0 {
		c.w.SetMaxRetain(s.cfg.ReplyRetainBytes)
	}
	return c
}

// nudge unblocks a handler parked in a read so shutdown does not wait out the
// idle timeout. The handler observes the expired deadline, sees the server
// draining, and unwinds; a handler mid-batch is untouched — execution never
// reads the socket — and finishes its batch first.
func (c *conn) nudge() { c.nc.SetReadDeadline(time.Now()) }

func (c *conn) serve() {
	defer func() {
		c.se.Release()
		c.nc.Close()
		c.srv.remove(c)
	}()
	m := c.srv.metrics
	for {
		if c.srv.isDraining() {
			return
		}
		if t := c.srv.cfg.ReadTimeout; t > 0 {
			c.nc.SetReadDeadline(time.Now().Add(t))
		}
		// First command of a batch: block until the client sends something.
		// ReadCommand releases whatever the previous batch pinned.
		args, err := c.r.ReadCommand()
		if err != nil {
			c.fail(err)
			return
		}
		var (
			dirty   bool // batch contains an unflushed write
			quit    bool
			decErr  error
			decoded int
		)
		c.pend = c.pend[:0]
		for {
			t0 := time.Now()
			m.CmdsInFlight.Add(1)
			kind := commandKind(args[0])
			// Shard-affine dispatch: a run of consecutive SETs is collected,
			// not executed — its args stay pinned in the reader's buffer —
			// and dispatchRun applies the whole run through PutBatch, one
			// shard-lock acquisition per destination shard instead of one per
			// SET. Replies stay in command order because the run is contiguous
			// and is dispatched before the command that ends it executes.
			if kind == cmdSet && len(args) == 3 && !c.inTxn {
				c.runKeys = append(c.runKeys, args[1])
				c.runVals = append(c.runVals, args[2])
			} else {
				c.dispatchRun(&dirty)
				c.execute(kind, args, &dirty, &quit)
			}
			c.pend = append(c.pend, pendingCmd{kind, t0})
			decoded++
			if quit || decoded >= c.srv.cfg.MaxPipeline || c.r.Buffered() == 0 {
				break
			}
			// Pipelining: drain commands the client already sent without
			// touching the socket for replies in between. ReadCommandKeep
			// pins earlier payloads (the SET run above) while decoding the
			// next command.
			if args, decErr = c.r.ReadCommandKeep(); decErr != nil {
				break
			}
		}
		c.dispatchRun(&dirty)
		c.r.Release()
		// Durability before acknowledgment: the buffered replies do not move
		// until every write in the batch is durable. The handler flushes its
		// own session — one log persist, on the file backend one fdatasync —
		// so nothing waits for a timer or another goroutine, and concurrent
		// connections' syncs overlap in the kernel.
		if dirty && !c.srv.cfg.AsyncAck {
			t0 := time.Now()
			err := c.se.Flush()
			m.CommitUs.Record(time.Since(t0).Microseconds())
			m.GroupCommits.Add(1)
			if err != nil {
				// The writes are not durable; acking them would lie. Drop the
				// buffered acks, report the failure, and hang up.
				m.StoreErrors.Add(1)
				m.CmdsInFlight.Add(int64(-len(c.pend)))
				c.w.Reset()
				c.w.Error("ERR commit failed: " + err.Error())
				c.flushReplies()
				return
			}
		}
		if err := c.flushReplies(); err != nil {
			m.CmdsInFlight.Add(int64(-len(c.pend)))
			return
		}
		now := time.Now()
		for _, p := range c.pend {
			m.Wire[wireHistIndex(p.kind)].Record(now.Sub(p.t0).Nanoseconds())
			m.PerCmd[p.kind].Add(1)
		}
		m.CmdsProcessed.Add(int64(len(c.pend)))
		m.CmdsInFlight.Add(int64(-len(c.pend)))
		m.PipelineDepth.Record(int64(len(c.pend)))
		if decErr != nil {
			c.fail(decErr)
			return
		}
		if quit {
			return
		}
	}
}

// dispatchRun applies the collected run of pipelined SETs and emits their
// replies, in command order (the run is contiguous in the pipeline). A
// single SET goes through the plain Put path; longer runs dispatch through
// PutBatch, which groups keys by destination shard and applies each group
// under one shard-lock acquisition. Durability is unchanged — the entries
// land in this connection's session batch and the caller's group commit seals
// them before any +OK reaches the wire. On error every SET in the run reports
// it; a subset of the run may nevertheless have been applied (the same
// ambiguity MSET documents), so the batch stays dirty and commits the subset.
func (c *conn) dispatchRun(dirty *bool) {
	n := len(c.runKeys)
	if n == 0 {
		return
	}
	var err error
	if n == 1 {
		err = c.se.Put(c.runKeys[0], c.runVals[0])
	} else {
		err = c.se.PutBatch(c.runKeys, c.runVals)
	}
	*dirty = true
	if err != nil {
		c.srv.metrics.StoreErrors.Add(int64(n))
		msg := respError(err)
		for i := 0; i < n; i++ {
			c.w.Error(msg)
		}
	} else {
		for i := 0; i < n; i++ {
			c.w.SimpleString("OK")
		}
	}
	c.runKeys = c.runKeys[:0]
	c.runVals = c.runVals[:0]
}

// respError renders a store error as a RESP error string. Errors that carry
// their own Redis error code — today that is core.ErrReadOnly's "READONLY
// You can't write against a read only replica." — pass through verbatim so
// clients see the conventional -READONLY reply; everything else is wrapped
// in the generic ERR code.
func respError(err error) string {
	msg := err.Error()
	if len(msg) >= len("READONLY ") && msg[:len("READONLY ")] == "READONLY " {
		return msg
	}
	return "ERR " + msg
}

// fail terminates the connection on a read error. Protocol violations get a
// final -ERR so a confused client can tell what happened; EOF and deadline
// expiry (idle timeout or a shutdown nudge) close silently.
func (c *conn) fail(err error) {
	if errors.Is(err, resp.ErrProtocol) {
		c.srv.metrics.ProtocolErrors.Add(1)
		c.w.Reset()
		c.w.Error("ERR Protocol error: " + err.Error())
		c.flushReplies()
	}
}

func (c *conn) flushReplies() error {
	if t := c.srv.cfg.WriteTimeout; t > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(t))
	}
	err := c.w.Flush()
	// The shared value buffer follows the same retention policy as the RESP
	// buffers: shrink after the batch that grew it past the cap.
	if cap(c.vbuf) > connScratchRetain {
		c.vbuf = nil
	}
	return err
}

// getInto reads key through the allocation-free path, reusing (and growing)
// the connection's value buffer.
func (c *conn) getInto(key []byte) ([]byte, bool, error) {
	val, ok, err := c.se.GetInto(key, c.vbuf[:0])
	c.vbuf = val[:0]
	return val, ok, err
}

// maxScanCount caps a single SCAN batch so one command cannot buffer an
// unbounded reply.
const maxScanCount = 4096

// execute runs one decoded command, appending its reply to the write buffer.
// args alias the reader's internal buffer: valid only for this call, which is
// fine — the engine copies keys and values into its own arena on writes, and
// GetInto copies values into the connection's vbuf (see the buffer-ownership
// contract, DESIGN.md §7).
func (c *conn) execute(kind cmdKind, args [][]byte, dirty, quit *bool) {
	m := c.srv.metrics
	if c.inTxn && kind != cmdMulti && kind != cmdExec && kind != cmdDiscard {
		c.enqueue(kind, args)
		return
	}
	switch kind {
	case cmdGet:
		if len(args) != 2 {
			c.arity("get")
			return
		}
		val, ok, err := c.getInto(args[1])
		switch {
		case err != nil:
			m.StoreErrors.Add(1)
			c.w.Error(respError(err))
		case !ok:
			c.w.Null()
		default:
			c.w.Bulk(val)
		}
	case cmdSet:
		if len(args) != 3 {
			c.arity("set")
			return
		}
		if err := c.se.Put(args[1], args[2]); err != nil {
			m.StoreErrors.Add(1)
			c.w.Error(respError(err))
			return
		}
		*dirty = true
		c.w.SimpleString("OK")
	case cmdDel:
		if len(args) < 2 {
			c.arity("del")
			return
		}
		// RESP's DEL reports how many keys existed, but the engine's Delete
		// is an unconditional tombstone append. The conditional delete runs
		// probe and tombstone under one shard-lock acquisition, so the count
		// is exact even when another connection races the same key, and an
		// absent key is not tombstoned.
		var n int64
		for _, key := range args[1:] {
			existed, err := c.se.DeleteIfPresent(key)
			if err != nil {
				m.StoreErrors.Add(1)
				c.w.Error(respError(err))
				return
			}
			if existed {
				n++
				*dirty = true
			}
		}
		c.w.Int(n)
	case cmdExists:
		if len(args) < 2 {
			c.arity("exists")
			return
		}
		var n int64
		for _, key := range args[1:] {
			_, ok, err := c.getInto(key)
			if err != nil {
				m.StoreErrors.Add(1)
				c.w.Error(respError(err))
				return
			}
			if ok {
				n++
			}
		}
		c.w.Int(n)
	case cmdPing:
		switch len(args) {
		case 1:
			c.w.SimpleString("PONG")
		case 2:
			c.w.Bulk(args[1])
		default:
			c.arity("ping")
		}
	case cmdInfo:
		var section []byte
		if len(args) > 1 {
			section = args[1]
		}
		c.w.Bulk(c.srv.infoText(section))
	case cmdFlushAll:
		// The engine has no bulk delete; ChameleonDB's FLUSHALL is a
		// store-wide durability barrier instead: persist every appender's
		// buffered entries, then seal this session's batch, so everything
		// acknowledged anywhere is persistent when OK comes back. (Documented
		// in DESIGN.md §7.) The Flush comes last because SyncAll reports
		// nothing: a persist that failed in another connection's appender
		// latches the medium error, and Flush is what returns it.
		if lp, ok := c.srv.store.(interface{ Log() *wlog.Log }); ok {
			if lg := lp.Log(); lg != nil {
				lg.SyncAll(c.se.Clock())
			}
		}
		if err := c.se.Flush(); err != nil {
			m.StoreErrors.Add(1)
			c.w.Error(respError(err))
			return
		}
		// FLUSHALL is also the operator's "known state" point: drop the
		// volatile cache so everything served afterwards is a fresh engine
		// read (over-invalidation is always safe).
		c.srv.cache.InvalidateAll()
		c.w.SimpleString("OK")
	case cmdMGet:
		if len(args) < 2 {
			c.arity("mget")
			return
		}
		// Collect every result before emitting a single byte: a mid-batch
		// store error must produce one canonical -ERR frame, never a
		// partially written array stranded in the pipelined reply buffer.
		// Values accumulate in the shared vbuf with spans (offsets, because
		// append may move the buffer), so a warm connection allocates nothing.
		buf := c.vbuf[:0]
		spans := c.mget[:0]
		for _, key := range args[1:] {
			off := len(buf)
			nb, ok, err := c.se.GetInto(key, buf)
			if err != nil {
				m.StoreErrors.Add(1)
				c.w.Error(respError(err))
				c.vbuf, c.mget = nb[:0], spans[:0]
				return
			}
			buf = nb
			spans = append(spans, mgetSpan{off: off, n: len(buf) - off, hit: ok})
		}
		c.vbuf, c.mget = buf[:0], spans[:0]
		c.w.ArrayHeader(len(spans))
		for _, sp := range spans {
			if sp.hit {
				c.w.Bulk(buf[sp.off : sp.off+sp.n])
			} else {
				c.w.Null()
			}
		}
	case cmdMSet:
		if len(args) < 3 || (len(args)-1)%2 != 0 {
			c.arity("mset")
			return
		}
		// Writes apply through PutBatch (shard-affine groups); on a store
		// error some subset may stay applied (documented deviation: Redis
		// MSET is atomic), but the reply is still a single canonical -ERR
		// frame and dirty stays set, so whatever applied is committed like
		// any other write.
		keys := c.runKeys[:0]
		vals := c.runVals[:0]
		for i := 1; i+1 < len(args); i += 2 {
			keys = append(keys, args[i])
			vals = append(vals, args[i+1])
		}
		err := c.se.PutBatch(keys, vals)
		c.runKeys, c.runVals = keys[:0], vals[:0]
		*dirty = true
		if err != nil {
			m.StoreErrors.Add(1)
			c.w.Error(respError(err))
			return
		}
		c.w.SimpleString("OK")
	case cmdIncr, cmdIncrBy:
		want := 2
		if kind == cmdIncrBy {
			want = 3
		}
		if len(args) != want {
			c.arity(kind.String())
			return
		}
		delta := int64(1)
		if kind == cmdIncrBy {
			var ok bool
			delta, ok = resp.ParseInt(args[2])
			if !ok {
				c.w.Error("ERR value is not an integer or out of range")
				return
			}
		}
		v, err := c.se.IncrBy(args[1], delta)
		if err != nil {
			m.StoreErrors.Add(1)
			c.w.Error(respError(err))
			return
		}
		*dirty = true
		c.w.Int(v)
	case cmdScan:
		// SCAN cursor [MATCH pattern] [COUNT n] [WITHVALUES]. WITHVALUES is
		// this server's extension: values interleave with keys in the reply so
		// a scan does not need an MGET per batch. MATCH filters server-side,
		// per page, after the engine scan — exactly Redis's contract: COUNT
		// governs how many entries the engine visits, not how many survive the
		// filter, so a page may come back empty while the cursor still
		// advances.
		if len(args) < 2 {
			c.arity("scan")
			return
		}
		cursor, ok := resp.ParseUint(args[1])
		if !ok {
			c.w.Error("ERR invalid cursor")
			return
		}
		count := 10
		withValues := false
		var match []byte
		for i := 2; i < len(args); i++ {
			switch {
			case equalFoldUpper(args[i], "COUNT") && i+1 < len(args):
				n, ok := resp.ParseInt(args[i+1])
				if !ok || n < 1 {
					c.w.Error("ERR value is not an integer or out of range")
					return
				}
				if n > maxScanCount {
					n = maxScanCount
				}
				count = int(n)
				i++
			case equalFoldUpper(args[i], "MATCH") && i+1 < len(args):
				match = args[i+1]
				i++
			case equalFoldUpper(args[i], "WITHVALUES"):
				withValues = true
			default:
				c.w.Error("ERR syntax error")
				return
			}
		}
		pairs, next, err := c.se.Scan(cursor, count)
		if err != nil {
			m.StoreErrors.Add(1)
			c.w.Error(respError(err))
			return
		}
		if match != nil {
			kept := pairs[:0]
			for _, kv := range pairs {
				if globMatch(match, kv.Key) {
					kept = append(kept, kv)
				}
			}
			pairs = kept
		}
		c.w.ArrayHeader(2)
		c.w.Bulk(strconv.AppendUint(c.num[:0], next, 10))
		if withValues {
			c.w.ArrayHeader(len(pairs) * 2)
			for _, kv := range pairs {
				c.w.Bulk(kv.Key)
				c.w.Bulk(kv.Value)
			}
		} else {
			c.w.ArrayHeader(len(pairs))
			for _, kv := range pairs {
				c.w.Bulk(kv.Key)
			}
		}
	case cmdReplicaOf:
		if len(args) != 3 {
			c.arity("replicaof")
			return
		}
		repl := c.srv.cfg.Repl
		if repl == nil {
			c.w.Error("ERR replication is not enabled on this server")
			return
		}
		var addr string
		if !equalFoldUpper(args[1], "NO") || !equalFoldUpper(args[2], "ONE") {
			addr = net.JoinHostPort(string(args[1]), string(args[2]))
		}
		if err := repl.ReplicaOf(addr); err != nil {
			m.StoreErrors.Add(1)
			c.w.Error(respError(err))
			return
		}
		c.w.SimpleString("OK")
	case cmdWait:
		// WAIT numreplicas timeout-ms. Flushes this session first so the
		// reply covers every write the connection has issued, then blocks
		// until that watermark is durable on numreplicas replicas or the
		// timeout fires. The reply is how many replicas had acknowledged.
		if len(args) != 3 {
			c.arity("wait")
			return
		}
		num, ok := resp.ParseInt(args[1])
		if !ok || num < 0 {
			c.w.Error("ERR value is not an integer or out of range")
			return
		}
		ms, ok := resp.ParseInt(args[2])
		if !ok || ms < 0 {
			c.w.Error("ERR timeout is not an integer or out of range")
			return
		}
		repl := c.srv.cfg.Repl
		if repl == nil {
			// No replication subsystem: WAIT degrades to a durability barrier
			// on this node alone, answering 0 replicas — same as Redis with no
			// replicas attached.
			if err := c.se.Flush(); err != nil {
				m.StoreErrors.Add(1)
				c.w.Error(respError(err))
				return
			}
			c.w.Int(0)
			return
		}
		n, err := repl.Wait(c.se, int(num), time.Duration(ms)*time.Millisecond)
		if err != nil {
			m.StoreErrors.Add(1)
			c.w.Error(respError(err))
			return
		}
		c.w.Int(int64(n))
	case cmdMulti:
		if c.inTxn {
			c.w.Error("ERR MULTI calls can not be nested")
			return
		}
		c.inTxn = true
		c.txnErr = false
		c.resetTxn()
		c.w.SimpleString("OK")
	case cmdExec:
		if !c.inTxn {
			c.w.Error("ERR EXEC without MULTI")
			return
		}
		aborted := c.txnErr
		c.inTxn, c.txnErr = false, false
		if aborted {
			c.resetTxn()
			c.w.Error("EXECABORT Transaction discarded because of previous errors.")
			return
		}
		// The queued commands run back to back on this connection's session;
		// their replies land inside one array, and their writes ride the same
		// commit as any pipelined batch — every ack in the array is
		// durable when it reaches the wire. Commands from other connections
		// may interleave at the engine (documented deviation from Redis's
		// single-threaded isolation). Args materialize from the txnBuf arena;
		// queued commands can never grow the queue (MULTI/EXEC/DISCARD are
		// rejected at queue time), so iterating c.txn while executing is safe.
		c.w.ArrayHeader(len(c.txn))
		for _, q := range c.txn {
			c.txnArgs = c.txnArgs[:0]
			for _, sp := range c.txnSpans[q.start : q.start+q.n] {
				c.txnArgs = append(c.txnArgs, c.txnBuf[sp.off:sp.off+sp.n])
			}
			c.execute(q.kind, c.txnArgs, dirty, quit)
		}
		c.resetTxn()
	case cmdDiscard:
		if !c.inTxn {
			c.w.Error("ERR DISCARD without MULTI")
			return
		}
		c.inTxn, c.txnErr = false, false
		c.resetTxn()
		c.w.SimpleString("OK")
	case cmdQuit:
		c.w.SimpleString("OK")
		*quit = true
	case cmdCommand:
		// Enough for redis-cli's handshake.
		c.w.ArrayHeader(0)
	default:
		c.w.Error(fmt.Sprintf("ERR unknown command '%s'", args[0]))
	}
}

// resetTxn clears the MULTI queue and its arena, shrinking the arena back
// under the retention cap if one huge transaction grew it.
func (c *conn) resetTxn() {
	c.txn = c.txn[:0]
	c.txnSpans = c.txnSpans[:0]
	if cap(c.txnBuf) > connScratchRetain {
		c.txnBuf = nil
	}
	c.txnBuf = c.txnBuf[:0]
}

// enqueue buffers one command between MULTI and EXEC, copying args into the
// connection's txnBuf arena — the decoded args alias the reader's reused
// buffer, which is released at batch end. One growing arena plus span records
// replaces a fresh [][]byte per command, so a warm connection queues without
// allocating. Unknown commands, wrong arities, and non-transactional commands
// are rejected immediately and poison the transaction — EXEC then aborts,
// Redis-style, instead of burying the error inside the reply array.
func (c *conn) enqueue(kind cmdKind, args [][]byte) {
	switch {
	case kind == cmdUnknown:
		c.txnErr = true
		c.w.Error(fmt.Sprintf("ERR unknown command '%s'", args[0]))
		return
	case kind == cmdQuit || kind == cmdFlushAll:
		c.txnErr = true
		c.w.Error("ERR " + kind.String() + " is not allowed in transactions")
		return
	case !arityOK(kind, len(args)):
		c.txnErr = true
		c.w.Error("ERR wrong number of arguments for '" + kind.String() + "' command")
		return
	}
	start := len(c.txnSpans)
	for _, a := range args {
		off := len(c.txnBuf)
		c.txnBuf = append(c.txnBuf, a...)
		c.txnSpans = append(c.txnSpans, argSpan{off: off, n: len(a)})
	}
	c.txn = append(c.txn, queuedCmd{kind: kind, start: start, n: len(args)})
	c.w.SimpleString("QUEUED")
}

// arityOK validates argument counts at MULTI queue time, mirroring the checks
// each execute case performs.
func arityOK(kind cmdKind, n int) bool {
	switch kind {
	case cmdGet, cmdIncr:
		return n == 2
	case cmdSet, cmdIncrBy:
		return n == 3
	case cmdDel, cmdExists, cmdMGet:
		return n >= 2
	case cmdMSet:
		return n >= 3 && (n-1)%2 == 0
	case cmdPing, cmdInfo:
		return n <= 2
	case cmdScan:
		return n >= 2 && n <= 7
	case cmdReplicaOf, cmdWait:
		return n == 3
	}
	return true
}

func (c *conn) arity(name string) {
	c.w.Error("ERR wrong number of arguments for '" + name + "' command")
}
