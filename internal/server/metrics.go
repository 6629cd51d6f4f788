package server

import (
	"sync/atomic"

	"chameleondb/internal/histogram"
	"chameleondb/internal/obs"
)

// cmdKind enumerates the commands the server serves; it indexes the command
// table, the per-command counters and picks the wire-latency histogram.
type cmdKind int

const (
	cmdGet cmdKind = iota
	cmdSet
	cmdDel
	cmdExists
	cmdPing
	cmdInfo
	cmdFlushAll
	cmdQuit
	cmdCommand
	cmdMGet
	cmdMSet
	cmdIncr
	cmdIncrBy
	cmdScan
	cmdMulti
	cmdExec
	cmdDiscard
	cmdReplicaOf
	cmdWait
	cmdUnknown
	numCmdKinds
)

// txnRule says what a command does between MULTI and EXEC.
type txnRule uint8

const (
	txnQueue   txnRule = iota // queued; EXEC runs it
	txnRefuse                 // refused, and the transaction aborts at EXEC
	txnControl                // MULTI, EXEC, DISCARD: runs at once
)

// cmdSpec is one command's row in the table: its name as metrics and error
// replies spell it, an alias, its argument count bounds counting the command
// name (max 0: unbounded), whether the arguments after the name come in
// pairs, and its transaction rule.
type cmdSpec struct {
	name, alias string
	min, max    int
	pairs       bool
	txn         txnRule
}

// commands is the command table. Its arity bounds are the only arity check,
// plain and inside MULTI alike; lookup tries the rows in order, GET and SET
// first.
var commands = [numCmdKinds]cmdSpec{
	cmdGet:       {name: "get", min: 2, max: 2},
	cmdSet:       {name: "set", min: 3, max: 3},
	cmdDel:       {name: "del", min: 2},
	cmdExists:    {name: "exists", min: 2},
	cmdPing:      {name: "ping", min: 1, max: 2},
	cmdInfo:      {name: "info", min: 1},
	cmdFlushAll:  {name: "flushall", min: 1, txn: txnRefuse},
	cmdQuit:      {name: "quit", min: 1, txn: txnRefuse},
	cmdCommand:   {name: "command", min: 1},
	cmdMGet:      {name: "mget", min: 2},
	cmdMSet:      {name: "mset", min: 3, pairs: true},
	cmdIncr:      {name: "incr", min: 2, max: 2},
	cmdIncrBy:    {name: "incrby", min: 3, max: 3},
	cmdScan:      {name: "scan", min: 2},
	cmdMulti:     {name: "multi", min: 1, txn: txnControl},
	cmdExec:      {name: "exec", min: 1, txn: txnControl},
	cmdDiscard:   {name: "discard", min: 1, txn: txnControl},
	cmdReplicaOf: {name: "replicaof", alias: "slaveof", min: 3, max: 3},
	cmdWait:      {name: "wait", min: 3, max: 3},
	cmdUnknown:   {name: "unknown", txn: txnRefuse},
}

// arityOK reports whether n arguments, the command name included, fit the
// command.
func (s *cmdSpec) arityOK(n int) bool {
	return n >= s.min && (s.max == 0 || n <= s.max) && (!s.pairs || (n-1)%2 == 0)
}

// equalFold reports whether b equals lower ASCII-case-insensitively; lower
// must already be lowercase. No allocation — this is how the dispatch loop
// avoids a strings.ToLower per command.
func equalFold(b []byte, lower string) bool {
	if len(b) != len(lower) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// lookup returns the command called name.
func lookup(name []byte) cmdKind {
	for k := cmdKind(0); k < cmdUnknown; k++ {
		cmd := &commands[k]
		if equalFold(name, cmd.name) || (cmd.alias != "" && equalFold(name, cmd.alias)) {
			return k
		}
	}
	return cmdUnknown
}

// wireHist buckets the per-command latency histograms: the mutating commands
// and gets get their own tails (the commit shows up only on writes), the
// rest share one.
func wireHistIndex(k cmdKind) int {
	switch k {
	case cmdGet:
		return 0
	case cmdSet:
		return 1
	case cmdDel:
		return 2
	case cmdScan:
		return 3
	}
	return 4
}

var wireHistNames = [5]string{"get", "set", "del", "scan", "other"}

// Metrics is the serving layer's observability block. It registers into the
// store's own registry when the store exposes one (obs.Provider), so wire
// metrics and engine metrics come out of the same /stats.json and /metrics
// scrape; every name carries the server_ prefix to keep the namespaces
// apart.
type Metrics struct {
	ConnsAccepted  atomic.Int64
	ConnsRejected  atomic.Int64
	ConnsClosed    atomic.Int64
	ConnsOpen      atomic.Int64
	CmdsInFlight   atomic.Int64 // decoded, reply not yet on the wire
	CmdsProcessed  atomic.Int64
	ProtocolErrors atomic.Int64
	StoreErrors    atomic.Int64 // engine errors surfaced as -ERR replies

	// GroupCommits counts ack-path commits. A connection commits by flushing
	// its own session, so commits and session flushes are one count; it stays
	// registered under both of its old names for readers that divide them.
	GroupCommits atomic.Int64

	PerCmd [numCmdKinds]atomic.Int64

	// Wire is wall-clock latency from command decode to its reply reaching
	// the socket, including the commit — what a loopback client observes
	// minus its own RTT share.
	Wire [5]histogram.Histogram
	// PipelineDepth is the observed commands-per-batch distribution, the
	// direct measure of how much pipelining clients actually achieve.
	PipelineDepth histogram.Histogram
	// CommitUs is the wall-clock time of the ack-path Session.Flush, in
	// microseconds: what durability adds to a batch with a write.
	CommitUs histogram.Histogram
}

// Register wires every metric into r under server_-prefixed names.
func (m *Metrics) Register(r *obs.Registry) {
	r.CounterFunc("server_conns_accepted", m.ConnsAccepted.Load)
	r.CounterFunc("server_conns_rejected", m.ConnsRejected.Load)
	r.CounterFunc("server_conns_closed", m.ConnsClosed.Load)
	r.CounterFunc("server_cmds_processed", m.CmdsProcessed.Load)
	r.CounterFunc("server_protocol_errors", m.ProtocolErrors.Load)
	r.CounterFunc("server_store_errors", m.StoreErrors.Load)
	r.CounterFunc("server_group_commits", m.GroupCommits.Load)
	r.CounterFunc("server_group_commit_flushes", m.GroupCommits.Load)
	for k := cmdKind(0); k < numCmdKinds; k++ {
		r.CounterFunc("server_cmd_"+commands[k].name, m.PerCmd[k].Load)
	}
	r.GaugeFunc("server_conns_open", m.ConnsOpen.Load)
	r.GaugeFunc("server_cmds_inflight", m.CmdsInFlight.Load)
	for i := range m.Wire {
		r.Histogram("server_wire_ns_"+wireHistNames[i], &m.Wire[i])
	}
	r.Histogram("server_pipeline_depth", &m.PipelineDepth)
	r.Histogram("server_commit_us", &m.CommitUs)
}
