package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"time"

	"chameleondb/internal/core"
	"chameleondb/internal/resp"
	"chameleondb/internal/server"
	"chameleondb/internal/simclock"
)

func init() {
	register("allocs", "Steady-state heap allocations per operation, embedded and over the wire", runAllocs)
}

// allocsWireDepth is the pipelined batch size the wire cases use: deep enough
// that per-batch costs (reply flush, group commit submission) amortize the
// way they do under a real pipelining client.
const allocsWireDepth = 16

// allocsMeasure runs f ops times after a warmup round and a GC, reading the
// global allocation counters around the loop. The counters cover every
// goroutine in the process — which is the point for the wire cases, where the
// serving goroutines do the work and the measuring loop is allocation-free by
// construction. A fixed op count (instead of testing.Benchmark's adaptive
// b.N) keeps the log-region footprint of the write cases bounded and the
// measurement deterministic.
func allocsMeasure(name string, ops int, f func() error) ([]string, error) {
	for i := 0; i < 64; i++ { // warm scratch buffers, pools, first-use paths
		if err := f(); err != nil {
			return nil, fmt.Errorf("%s warmup: %w", name, err)
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		if err := f(); err != nil {
			return nil, fmt.Errorf("%s op %d: %w", name, i, err)
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	n := float64(ops)
	return []string{
		name,
		fmt.Sprintf("%.3f", float64(m1.Mallocs-m0.Mallocs)/n),
		fmt.Sprintf("%.1f", float64(m1.TotalAlloc-m0.TotalAlloc)/n),
		fmt.Sprintf("%.0f", float64(el.Nanoseconds())/n),
	}, nil
}

// runAllocs measures steady-state allocations per operation — the one number
// in this package that is machine-independent, which is why CI gates it with
// a hard ceiling instead of a baseline ratio. Embedded cases drive a Session
// directly (GetInto with a reused dst, Put); wire cases drive a live server
// over loopback TCP with a pre-encoded pipelined batch and an
// allocation-free client loop, so every counted allocation past the client's
// zero belongs to the serving stack: RESP decode, dispatch, engine call,
// reply encode, group commit.
func runAllocs(opt Options) ([]*Report, error) {
	opt = opt.withDefaults()
	rep := &Report{
		ID:      "allocs",
		Title:   "Heap allocations per op (steady state)",
		Columns: []string{"case", "allocs_op", "bytes_op", "ns_op"},
		Notes: []string{
			fmt.Sprintf("value=%dB wire-depth=%d; wire cases include client syscalls but zero client allocations", opt.ValueSize, allocsWireDepth),
			"allocs_op is machine-independent; CI enforces wire_get_hit and wire_set <= 2",
		},
	}

	embedded, err := runAllocsEmbedded(opt)
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, embedded...)

	wire, err := runAllocsWire(opt)
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, wire...)
	return []*Report{rep}, nil
}

func runAllocsEmbedded(opt Options) ([][]string, error) {
	cfg := core.TestConfig()
	cfg.MemTableSlots = 4096
	cfg.MaintenanceWorkers = 0
	s, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	se := s.NewSession(simclock.New(0)).(*core.Session)
	key := []byte("allocs-bench-key")
	miss := []byte("allocs-bench-absent")
	val := make([]byte, opt.ValueSize)
	if err := se.Put(key, val); err != nil {
		return nil, err
	}
	dst := make([]byte, 0, opt.ValueSize+64)

	var rows [][]string
	row, err := allocsMeasure("embedded_get_hit", 100_000, func() error {
		_, ok, err := se.GetInto(key, dst)
		if err != nil || !ok {
			return fmt.Errorf("hit failed: ok=%v err=%v", ok, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)

	row, err = allocsMeasure("embedded_get_miss", 100_000, func() error {
		_, ok, err := se.GetInto(miss, dst)
		if err != nil || ok {
			return fmt.Errorf("miss failed: ok=%v err=%v", ok, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)

	// 100k single-key puts stay well inside TestConfig's log budget and, with
	// maintenance inline, never queue background work that would pollute the
	// counters.
	row, err = allocsMeasure("embedded_put", 100_000, func() error {
		return se.Put(key, val)
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)
	return rows, nil
}

func runAllocsWire(opt Options) ([][]string, error) {
	cfg := chameleonConfig(4096, opt.ValueSize)
	s, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	key := []byte("allocs-wire-key")
	val := make([]byte, opt.ValueSize)
	loader := s.NewSession(simclock.New(0))
	if err := loader.Put(key, val); err != nil {
		return nil, err
	}
	if err := releaseSession(loader); err != nil {
		return nil, err
	}

	srv := server.New(s, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Listen(); err != nil {
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveErr
	}()

	nc, err := net.DialTimeout("tcp", srv.Addr().String(), 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Minute))

	// Pre-encode one pipelined batch per case and its exact expected reply,
	// so the measurement loop is write-bytes / read-bytes and nothing else.
	var getReq, setReq bytes.Buffer
	w := resp.NewWriter(&getReq)
	for i := 0; i < allocsWireDepth; i++ {
		w.Command([]byte("GET"), key)
	}
	w.Flush()
	w = resp.NewWriter(&setReq)
	for i := 0; i < allocsWireDepth; i++ {
		w.Command([]byte("SET"), key, val)
	}
	w.Flush()
	getReply := bytes.Repeat([]byte("$"+strconv.Itoa(len(val))+"\r\n"+string(val)+"\r\n"), allocsWireDepth)
	setReply := bytes.Repeat([]byte("+OK\r\n"), allocsWireDepth)

	// 4000 batches of 16 = 64k ops per case; the SET case appends ~3 MB of
	// log, far inside the configured region.
	const batches = 4000
	runCase := func(name string, req, wantReply []byte) ([]string, error) {
		replyBuf := make([]byte, len(wantReply))
		row, err := allocsMeasure(name, batches, func() error {
			if _, err := nc.Write(req); err != nil {
				return err
			}
			if _, err := io.ReadFull(nc, replyBuf); err != nil {
				return err
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(replyBuf, wantReply) {
			return nil, fmt.Errorf("%s: unexpected reply %q", name, replyBuf)
		}
		// allocsMeasure normalized per batch; renormalize per op.
		for i := 1; i < len(row); i++ {
			v, perr := strconv.ParseFloat(row[i], 64)
			if perr != nil {
				return nil, perr
			}
			row[i] = fmt.Sprintf("%.3f", v/allocsWireDepth)
		}
		return row, nil
	}

	var rows [][]string
	row, err := runCase("wire_get_hit", getReq.Bytes(), getReply)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)
	row, err = runCase("wire_set", setReq.Bytes(), setReply)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)
	return rows, nil
}

// AllocsPerOp extracts the allocs_op value of the named case from an allocs
// report. The CI gate reads wire_get_hit and wire_set through this.
func AllocsPerOp(r *Report, name string) (float64, error) {
	col := -1
	for i, c := range r.Columns {
		if c == "allocs_op" {
			col = i
		}
	}
	if col < 0 {
		return 0, fmt.Errorf("allocs report has no allocs_op column")
	}
	for _, row := range r.Rows {
		if len(row) > col && row[0] == name {
			return strconv.ParseFloat(row[col], 64)
		}
	}
	return 0, fmt.Errorf("allocs report has no %q row", name)
}

// NetBenchPipelineGain extracts the netbench headline ratio the CI gate
// compares: throughput at the top connection count with the deepest pipeline
// over the same connections at depth 1. The ratio is what batching buys once
// per-command overheads (decode, dispatch, reply, group-commit submission)
// are amortized — machine-robust where raw kops is not, and the first number
// to fall if a per-command allocation or lock sneaks back into the hot path.
func NetBenchPipelineGain(r *Report) (int, float64, error) {
	maxConns := 0
	for _, row := range r.Rows {
		if len(row) < 4 {
			return 0, 0, fmt.Errorf("netbench row %v: too short", row)
		}
		conns, err := strconv.Atoi(row[0])
		if err != nil {
			return 0, 0, fmt.Errorf("netbench row %v: %w", row, err)
		}
		if conns > maxConns {
			maxConns = conns
		}
	}
	kopsAt := map[int]float64{}
	maxDepth := 0
	for _, row := range r.Rows {
		conns, _ := strconv.Atoi(row[0])
		if conns != maxConns {
			continue
		}
		depth, err1 := strconv.Atoi(row[1])
		kops, err2 := strconv.ParseFloat(row[3], 64)
		if err1 != nil || err2 != nil {
			return 0, 0, fmt.Errorf("netbench row %v: malformed", row)
		}
		kopsAt[depth] = kops
		if depth > maxDepth {
			maxDepth = depth
		}
	}
	base, ok1 := kopsAt[1]
	deep, ok2 := kopsAt[maxDepth]
	if !ok1 || !ok2 || maxDepth <= 1 || base <= 0 {
		return 0, 0, fmt.Errorf("netbench report lacks depth-1 and depth-%d rows at %d conns", maxDepth, maxConns)
	}
	return maxConns, deep / base, nil
}
