package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"chameleondb/internal/device"
	"chameleondb/internal/device/filedev"
	"chameleondb/internal/pmem"
	"chameleondb/internal/resp"
	"chameleondb/internal/simclock"
	"chameleondb/internal/wlog"
)

// Micro-drives cost one layer's public primitive in isolation, with the
// workloads' record shape (8 B key, 8 B value), the way PAPERS.md's
// "Persistent Memory I/O Primitives" does: measure each primitive alone, then
// show (unexplained_frac) how much of the end-to-end span they account for.

// loopReader serves a pre-encoded command window over and over.
type loopReader struct {
	buf []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.buf[l.off:])
	l.off = (l.off + n) % len(l.buf)
	return n, nil
}

// microResp times resp.Reader.ReadCommand over a window of GETs and
// resp.Writer.Bulk (+Flush per 16 replies) over the replies to them.
func microResp(n int) (parseNs, encodeNs float64, err error) {
	c := &client{}
	for i := 0; i < 4096; i++ {
		c.queueGet(uint32(i))
	}
	r := resp.NewReader(&loopReader{buf: c.out})
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := r.ReadCommand(); err != nil {
			return 0, 0, fmt.Errorf("micro resp parse: %w", err)
		}
	}
	parseNs = float64(time.Since(t0).Nanoseconds()) / float64(n)

	w := resp.NewWriter(io.Discard)
	var val [valLen]byte
	t0 = time.Now()
	for i := 0; i < n; i++ {
		w.Bulk(val[:])
		if i%wireDepth == wireDepth-1 {
			if err := w.Flush(); err != nil {
				return 0, 0, fmt.Errorf("micro resp encode: %w", err)
			}
		}
	}
	encodeNs = float64(time.Since(t0).Nanoseconds()) / float64(n)
	return parseNs, encodeNs, nil
}

// microLog times wlog.Appender.Append and wlog.Log.Read on a scratch
// simulated arena, and pmem.Arena.Persist of one 4 KiB chunk.
func microLog(n int) (appendNs, readNs, persistNs float64, err error) {
	dev := device.New(device.OptanePmem)
	logBytes := int64(n)*wlog.EntrySize(keyLen, valLen) + 4*wlog.DefaultSegmentSize
	arena := pmem.NewArena(dev, logBytes+(8<<20))
	lg, err := wlog.New(arena, logBytes)
	if err != nil {
		return 0, 0, 0, err
	}
	ap := lg.NewAppender()
	clk := simclock.New(0)
	lsns := make([]int64, n)
	var key, val [8]byte
	t0 := time.Now()
	for i := range lsns {
		putKey(key[:], uint32(i))
		putValue(val[:], uint32(i), 1)
		if lsns[i], err = ap.Append(clk, uint64(i)*0x9e3779b97f4a7c15, key[:], val[:], 0); err != nil {
			return 0, 0, 0, fmt.Errorf("micro wlog append: %w", err)
		}
	}
	if err := ap.Flush(clk); err != nil {
		return 0, 0, 0, err
	}
	appendNs = float64(time.Since(t0).Nanoseconds()) / float64(n)

	r := newRng(1)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if _, err := lg.Read(clk, lsns[r.intn(uint32(n))]); err != nil {
			return 0, 0, 0, fmt.Errorf("micro wlog read: %w", err)
		}
	}
	readNs = float64(time.Since(t0).Nanoseconds()) / float64(n)

	off, err := arena.Alloc(4 << 20)
	if err != nil {
		return 0, 0, 0, err
	}
	persists := n / 10
	t0 = time.Now()
	for i := 0; i < persists; i++ {
		arena.Persist(clk, off+int64(i%1024)*wlog.DefaultChunkSize, wlog.DefaultChunkSize)
	}
	persistNs = float64(time.Since(t0).Nanoseconds()) / float64(persists)
	return appendNs, readNs, persistNs, nil
}

// microFileSync times filedev.Dev.WriteDurable(4 KiB chunk, sync=true): one
// pwrite plus one fdatasync in dir — the primitive under every persist on
// the file backend.
func microFileSync(dir string, n int) (p50us float64, err error) {
	d, err := filedev.Open(filedev.Options{Dir: filepath.Join(dir, "microsync"), Capacity: 8 << 20, AccessUnit: 256})
	if err != nil {
		return 0, err
	}
	chunk := make([]byte, wlog.DefaultChunkSize)
	lat := make([]int64, n)
	for i := range lat {
		chunk[0] = byte(i)
		t0 := time.Now()
		if err := d.WriteDurable(int64(i%512)*wlog.DefaultChunkSize, chunk, true); err != nil {
			d.Close()
			return 0, err
		}
		lat[i] = time.Since(t0).Nanoseconds()
	}
	if err := d.Close(); err != nil {
		return 0, err
	}
	return float64(percentile(lat, 50)) / 1e3, nil
}

// percentile sorts v in place and returns its q-th percentile (nearest rank).
func percentile(v []int64, q float64) int64 {
	if len(v) == 0 {
		return 0
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	i := int(q/100*float64(len(v))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(v) {
		i = len(v) - 1
	}
	return v[i]
}

// calibSink keeps the calibration kernel's result alive.
var calibSink uint64

// calibMs runs a fixed 200k-step dependent hash chain over a 1 MiB table: a
// CPU+memory kernel whose time says how fast the host is right now.
func calibMs(table []uint64) float64 {
	t0 := time.Now()
	h := uint64(1)
	for i := 0; i < 200_000; i++ {
		h = (h ^ table[h&uint64(len(table)-1)]) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	calibSink += h
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

func newCalibTable() []uint64 {
	t := make([]uint64, 1<<17)
	r := newRng(42)
	for i := range t {
		t[i] = r.next()
	}
	return t
}

// cpuTimes reads the aggregate "cpu" line of /proc/stat: total and steal
// jiffies. ok is false where /proc/stat is missing or unreadable.
func cpuTimes() (total, steal uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	fields := strings.Fields(line)
	if err != nil || len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest* are already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// processCPU returns the user+system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// envStamp is printed with every result: what ran, where.
type envStamp struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Backend    string `json:"backend"`
	FS         string `json:"tmp_fs"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	Keys       int    `json:"keys"`
	WarmOps    int    `json:"warm_ops"`
	Ops        int    `json:"measured_ops"`
	// Measured is the untraced run's timing, in full: the throughput that
	// no end-to-end metric carries (README, "Throughput is not a gate") and
	// every round's set-up time.
	Measured measuredStamp `json:"measured"`
}

type measuredStamp struct {
	ThroughputKops float64   `json:"throughput_kops"` // measured ops / measured wall clock
	Seconds        float64   `json:"measured_s"`
	SetupS         []float64 `json:"setup_s"`
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func newEnvStamp() envStamp {
	return envStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
	}
}
