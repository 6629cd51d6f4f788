package server

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"chameleondb/internal/resp"
)

// buildServerBinary compiles cmd/chameleon-server into dir and returns the
// binary path. The test's working directory is inside the module, so the
// import path resolves without extra flags.
func buildServerBinary(t *testing.T, dir string) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(dir, "chameleon-server")
	cmd := exec.Command(goTool, "build", "-o", bin, "chameleondb/cmd/chameleon-server")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build chameleon-server: %v\n%s", err, out)
	}
	return bin
}

// serverProc is a chameleon-server child process bound to an ephemeral port.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	out  *bytes.Buffer
}

// startServerProc execs the server binary against dataDir and waits for its
// startup banner to learn the listen address.
func startServerProc(t *testing.T, bin, dataDir string) *serverProc {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-backend", "file",
		"-dir", dataDir,
		"-shards", "8",
		"-arena-mb", "16",
		"-log-mb", "8",
	)
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start server: %v", err)
	}
	p := &serverProc{cmd: cmd, out: &errBuf}
	t.Cleanup(func() {
		if p.cmd.ProcessState == nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	})

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				rest := line[i+len("listening on "):]
				addrCh <- strings.Fields(rest)[0]
			}
		}
		close(addrCh)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			p.cmd.Process.Kill()
			p.cmd.Wait()
			t.Fatalf("server exited before listening; stderr:\n%s", errBuf.String())
		}
		p.addr = addr
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		p.cmd.Wait()
		t.Fatalf("timed out waiting for server banner; stderr:\n%s", errBuf.String())
	}
	return p
}

func restartValue(i int) []byte {
	return []byte(fmt.Sprintf("val-%05d-%s", i, strings.Repeat("x", i%64)))
}

// TestServerRestartDurability is the restart-durability e2e: a real
// chameleon-server child process on the file backend is loaded with pipelined
// SETs, SIGKILLed mid-load with a batch in flight, and restarted on the same
// directory. Every SET the client saw acknowledged must be readable after the
// restart; in-flight unacknowledged SETs may have landed or not, but a key
// that is present must carry the value that was written.
//
// The host-metadata record is rewritten when the log maps a segment, not per
// acknowledged batch, so nearly every ack here lands in a chunk reserved after
// the last record: the test asserts that (INFO's filedev_meta_syncs), and then
// that the restarted server's own appends — which resume from a tail derived
// from the segment directory — did not land on any of them, by restarting once
// more and reading everything back. A last round covers the record a clean
// shutdown leaves: SIGTERM, restart, acks, SIGKILL, restart, read.
func TestServerRestartDurability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs a server binary")
	}
	work := t.TempDir()
	bin := buildServerBinary(t, work)
	dataDir := filepath.Join(work, "data")
	if err := os.Mkdir(dataDir, 0o755); err != nil {
		t.Fatal(err)
	}

	p := startServerProc(t, bin, dataDir)

	const (
		batchSize = 16
		ackTarget = 600
	)
	var (
		mu     sync.Mutex
		ackOps int                  // total SETs acknowledged (counts overwrites)
		acked  = make(map[int]bool) // reply received: durably acknowledged
		sent   = make(map[int]bool) // on the wire: may or may not have landed
	)
	loadDone := make(chan error, 1)
	go func() {
		c, err := resp.Dial(p.addr, 5*time.Second)
		if err != nil {
			loadDone <- err
			return
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(2 * time.Minute))
		for i := 0; ; {
			batch := make([]int, 0, batchSize)
			mu.Lock()
			for len(batch) < batchSize {
				// Mostly-fresh keys so the final in-flight batch holds keys
				// never acked before; every 4th op rewrites an older key
				// (same per-key value) so overwrites ride along.
				k := i
				if i%4 == 3 {
					k = i / 8
				}
				c.Send([]byte("SET"), []byte(fmt.Sprintf("rk-%05d", k)), restartValue(k))
				sent[k] = true
				batch = append(batch, k)
				i++
			}
			mu.Unlock()
			if err := c.Flush(); err != nil {
				loadDone <- err
				return
			}
			for _, k := range batch {
				rp, err := c.Receive()
				if err != nil {
					loadDone <- err // killed mid-batch: expected
					return
				}
				if err := rp.Err(); err != nil {
					loadDone <- err
					return
				}
				mu.Lock()
				acked[k] = true
				ackOps++
				mu.Unlock()
			}
		}
	}()

	// Wait for enough acknowledged writes, then pull the plug.
	deadline := time.Now().Add(90 * time.Second)
	for {
		mu.Lock()
		n := ackOps
		mu.Unlock()
		if n >= ackTarget {
			break
		}
		select {
		case err := <-loadDone:
			t.Fatalf("loader exited early: %v\nserver stderr:\n%s", err, p.out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d acks (have %d)", ackTarget, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// 600 acks of ~100 B fit the log's first 1 MiB segment: one record at
	// boot, one when that segment was mapped, none for the acks.
	if n := metaSyncs(t, p.addr); n < 1 || n > 3 {
		t.Fatalf("filedev_meta_syncs = %d after %d acked SETs, want the boot record plus one per mapped segment", n, ackTarget)
	}
	if err := p.cmd.Process.Kill(); err != nil { // SIGKILL: no shutdown path runs
		t.Fatal(err)
	}
	p.cmd.Wait()
	if err := <-loadDone; err == nil {
		t.Fatal("loader finished cleanly despite SIGKILL")
	}

	// Restart on the same directory. The banner only prints after recovery, so
	// a successful dial means the log replay completed.
	p2 := startServerProc(t, bin, dataDir)
	c, err := resp.Dial(p2.addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial restarted server: %v\nstderr:\n%s", err, p2.out.String())
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(2 * time.Minute))

	mu.Lock()
	ackedKeys := make([]int, 0, len(acked))
	for k := range acked {
		ackedKeys = append(ackedKeys, k)
	}
	unacked := make([]int, 0, len(sent))
	for k := range sent {
		if !acked[k] {
			unacked = append(unacked, k)
		}
	}
	mu.Unlock()
	if len(ackedKeys) == 0 {
		t.Fatal("no acked keys recorded")
	}
	verify := func(c *resp.Client, when string) {
		t.Helper()
		for _, k := range ackedKeys {
			got, ok, err := c.Get([]byte(fmt.Sprintf("rk-%05d", k)))
			if err != nil {
				t.Fatalf("GET rk-%05d %s: %v", k, when, err)
			}
			if !ok {
				t.Fatalf("acknowledged key rk-%05d lost %s", k, when)
			}
			if !bytes.Equal(got, restartValue(k)) {
				t.Fatalf("key rk-%05d corrupted %s: got %q want %q", k, when, got, restartValue(k))
			}
		}
		for _, k := range unacked {
			got, ok, err := c.Get([]byte(fmt.Sprintf("rk-%05d", k)))
			if err != nil {
				t.Fatalf("GET unacked rk-%05d %s: %v", k, when, err)
			}
			if ok && !bytes.Equal(got, restartValue(k)) {
				t.Fatalf("unacked key rk-%05d present with wrong value %q %s", k, got, when)
			}
		}
	}
	verify(c, "across SIGKILL restart")
	t.Logf("verified %d acked keys (+%d in-flight) across SIGKILL restart", len(ackedKeys), len(unacked))

	// The restarted server must still accept writes and shut down cleanly.
	const postKeys = 64
	for i := 0; i < postKeys; i++ {
		if err := c.Set([]byte(fmt.Sprintf("post-restart-%02d", i)), restartValue(i)); err != nil {
			t.Fatalf("SET after restart: %v", err)
		}
	}
	if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p2.cmd.Wait(); err != nil {
		t.Fatalf("graceful shutdown after restart: %v\nstderr:\n%s", err, p2.out.String())
	}

	// Third generation, after a clean Close: the post-restart appends went
	// above every LSN the first process acknowledged, so nothing acked before
	// the SIGKILL was overwritten, and they are durable themselves.
	p3 := startServerProc(t, bin, dataDir)
	c3, err := resp.Dial(p3.addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial third server: %v\nstderr:\n%s", err, p3.out.String())
	}
	defer c3.Close()
	c3.SetDeadline(time.Now().Add(2 * time.Minute))
	verify(c3, "after the restarted server's own writes")
	for i := 0; i < postKeys; i++ {
		got, ok, err := c3.Get([]byte(fmt.Sprintf("post-restart-%02d", i)))
		if err != nil || !ok || !bytes.Equal(got, restartValue(i)) {
			t.Fatalf("post-restart-%02d after clean restart: %q ok=%v err=%v", i, got, ok, err)
		}
	}

	// SIGTERM then SIGKILL: the third generation reopened from the clean
	// Close's exact-tail record and acknowledges inside the segment that tail
	// lies in. Killed, its acks must still be below the tail the fourth
	// generation recovers to.
	for i := 0; i < postKeys; i++ {
		if err := c3.Set([]byte(fmt.Sprintf("post-clean-%02d", i)), restartValue(i)); err != nil {
			t.Fatalf("SET after clean restart: %v", err)
		}
	}
	if err := p3.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	p3.cmd.Wait()
	p4 := startServerProc(t, bin, dataDir)
	c4, err := resp.Dial(p4.addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial fourth server: %v\nstderr:\n%s", err, p4.out.String())
	}
	defer c4.Close()
	c4.SetDeadline(time.Now().Add(2 * time.Minute))
	verify(c4, "after SIGTERM, restart, SIGKILL")
	for _, prefix := range []string{"post-restart", "post-clean"} {
		for i := 0; i < postKeys; i++ {
			key := fmt.Sprintf("%s-%02d", prefix, i)
			got, ok, err := c4.Get([]byte(key))
			if err != nil || !ok || !bytes.Equal(got, restartValue(i)) {
				t.Fatalf("%s after SIGTERM, restart, SIGKILL: %q ok=%v err=%v", key, got, ok, err)
			}
		}
	}
}

// metaSyncs reads filedev_meta_syncs from a live server's INFO.
func metaSyncs(t *testing.T, addr string) int {
	t.Helper()
	c, err := resp.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(30 * time.Second))
	rep, err := c.DoStrings("INFO", "persistence")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(rep.Text(), "\r\n") {
		if v, ok := strings.CutPrefix(line, "filedev_meta_syncs:"); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("INFO persistence: %q", line)
			}
			return n
		}
	}
	t.Fatalf("INFO persistence carries no filedev_meta_syncs:\n%s", rep.Text())
	return 0
}
