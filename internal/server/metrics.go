package server

import (
	"sync/atomic"

	"chameleondb/internal/histogram"
	"chameleondb/internal/obs"
)

// cmdKind enumerates the commands the server serves; it indexes the
// per-command counters and picks the wire-latency histogram.
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

func (k cmdKind) String() string {
	switch k {
	case cmdGet:
		return "get"
	case cmdSet:
		return "set"
	case cmdDel:
		return "del"
	case cmdExists:
		return "exists"
	case cmdPing:
		return "ping"
	case cmdInfo:
		return "info"
	case cmdFlushAll:
		return "flushall"
	case cmdQuit:
		return "quit"
	case cmdCommand:
		return "command"
	case cmdMGet:
		return "mget"
	case cmdMSet:
		return "mset"
	case cmdIncr:
		return "incr"
	case cmdIncrBy:
		return "incrby"
	case cmdScan:
		return "scan"
	case cmdMulti:
		return "multi"
	case cmdExec:
		return "exec"
	case cmdDiscard:
		return "discard"
	case cmdReplicaOf:
		return "replicaof"
	case cmdWait:
		return "wait"
	}
	return "unknown"
}

// equalFoldUpper reports whether b equals upper ASCII-case-insensitively;
// upper must already be uppercase. No allocation — this is how the dispatch
// loop avoids a strings.ToUpper per command.
func equalFoldUpper(b []byte, upper string) bool {
	if len(b) != len(upper) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != upper[i] {
			return false
		}
	}
	return true
}

func commandKind(name []byte) cmdKind {
	switch {
	case equalFoldUpper(name, "GET"):
		return cmdGet
	case equalFoldUpper(name, "SET"):
		return cmdSet
	case equalFoldUpper(name, "DEL"):
		return cmdDel
	case equalFoldUpper(name, "EXISTS"):
		return cmdExists
	case equalFoldUpper(name, "PING"):
		return cmdPing
	case equalFoldUpper(name, "INFO"):
		return cmdInfo
	case equalFoldUpper(name, "FLUSHALL"):
		return cmdFlushAll
	case equalFoldUpper(name, "QUIT"):
		return cmdQuit
	case equalFoldUpper(name, "COMMAND"):
		return cmdCommand
	case equalFoldUpper(name, "MGET"):
		return cmdMGet
	case equalFoldUpper(name, "MSET"):
		return cmdMSet
	case equalFoldUpper(name, "INCR"):
		return cmdIncr
	case equalFoldUpper(name, "INCRBY"):
		return cmdIncrBy
	case equalFoldUpper(name, "SCAN"):
		return cmdScan
	case equalFoldUpper(name, "MULTI"):
		return cmdMulti
	case equalFoldUpper(name, "EXEC"):
		return cmdExec
	case equalFoldUpper(name, "DISCARD"):
		return cmdDiscard
	case equalFoldUpper(name, "REPLICAOF"), equalFoldUpper(name, "SLAVEOF"):
		return cmdReplicaOf
	case equalFoldUpper(name, "WAIT"):
		return cmdWait
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
		r.CounterFunc("server_cmd_"+k.String(), m.PerCmd[k].Load)
	}
	r.GaugeFunc("server_conns_open", m.ConnsOpen.Load)
	r.GaugeFunc("server_cmds_inflight", m.CmdsInFlight.Load)
	for i := range m.Wire {
		r.Histogram("server_wire_ns_"+wireHistNames[i], &m.Wire[i])
	}
	r.Histogram("server_pipeline_depth", &m.PipelineDepth)
	r.Histogram("server_commit_us", &m.CommitUs)
}
