package repl

import (
	"fmt"
	"testing"
	"time"

	"chameleondb/internal/core"
	"chameleondb/internal/hotcache"
	"chameleondb/internal/kvstore"
	"chameleondb/internal/simclock"
)

// cachedNode is one chain member: a store fronted by a hot-key DRAM cache,
// with replicated applies invalidating the cache through Config.OnApply —
// exactly how chameleon-server wires a serving replica.
type cachedNode struct {
	st    *core.Store
	cache *hotcache.Cache
	node  *Node
	sess  kvstore.Session
}

func startCachedNode(t *testing.T, primaryAddr, id string) *cachedNode {
	t.Helper()
	st := openStore(t, core.TestConfig())
	cache := hotcache.New(256 << 10)
	cfg := fastConfig()
	cfg.Addr = "127.0.0.1:0" // every chain member can serve downstreams
	cfg.PrimaryAddr = primaryAddr
	cfg.ID = id
	cfg.OnApply = cache.Invalidate
	n, err := Start(st, cfg)
	if err != nil {
		t.Fatalf("start %s: %v", id, err)
	}
	t.Cleanup(func() { n.Close() })
	se := hotcache.Wrap(st, cache).NewSession(simclock.New(0))
	t.Cleanup(func() {
		if r, ok := se.(interface{ Release() error }); ok {
			r.Release()
		}
	})
	return &cachedNode{st: st, cache: cache, node: n, sess: se}
}

// mustGet reads k through the node's cache-fronted session.
func (cn *cachedNode) mustGet(t *testing.T, k string) (string, bool) {
	t.Helper()
	v, ok, err := cn.sess.Get([]byte(k))
	if err != nil {
		t.Fatalf("get %q: %v", k, err)
	}
	return string(v), ok
}

// waitChainDurable blocks until the downstream link has durably applied
// everything its upstream's log has made durable. The downstream watermark is
// in the upstream's LSN space, so the comparison is direct.
func waitChainDurable(t *testing.T, upstream *core.Store, down *Node, what string) {
	t.Helper()
	target := upstream.Log().DurableLSN()
	waitFor(t, what, func() bool { return down.Status().DurableLSN >= target })
}

// TestChainedReplicasInvalidateCaches is the chain e2e: primary -> R1 -> R2,
// every node fronting its store with a hot-key DRAM cache. R1 both tails the
// primary and re-ships its applied stream to R2 off its own log's durable hook.
// The test proves the properties the chain must compose from per-link
// guarantees:
//   - data written at the primary reaches R2 through the intermediate hop;
//   - each hop's cache actually serves hits (the chain is measured warm, not
//     accidentally cold);
//   - replicated applies — which bypass the serving layer's sessions —
//     invalidate each hop's cache, so no node ever serves a pre-catch-up
//     value or a deleted key from DRAM.
func TestChainedReplicasInvalidateCaches(t *testing.T) {
	const keys = 100
	key := func(i int) string { return fmt.Sprintf("chain-%03d", i) }

	pst := openStore(t, core.TestConfig())
	pn := startPrimary(t, pst, fastConfig())
	pse := session(t, pst)
	for i := 0; i < keys; i++ {
		if err := pse.Put([]byte(key(i)), []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}

	r1 := startCachedNode(t, pn.Addr(), "r1")
	r2 := startCachedNode(t, r1.node.Addr(), "r2")

	if got, err := pn.Wait(pse, 1, 10*time.Second); err != nil || got != 1 {
		t.Fatalf("WAIT on primary = %d, %v", got, err)
	}
	waitChainDurable(t, r1.st, r2.node, "R2 catch-up through R1")

	// Warm every cache: two passes, because TinyLFU admission deliberately
	// requires a second encounter (doorkeeper first). Then prove the caches
	// are live — a cold cache would make the staleness checks below vacuous.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < keys; i++ {
			for _, cn := range []*cachedNode{r1, r2} {
				if v, ok := cn.mustGet(t, key(i)); !ok || v != "v1" {
					t.Fatalf("%s pre-update read %q = %q,%v", cn.node.cfg.ID, key(i), v, ok)
				}
			}
		}
	}
	for _, cn := range []*cachedNode{r1, r2} {
		if s := cn.cache.Stats(); s.Hits == 0 {
			t.Fatalf("%s cache served no hits after warmup: %+v", cn.node.cfg.ID, s)
		}
	}

	// Overwrite everything at the primary and delete a slice of it. Both
	// mutations arrive at R1 and R2 as replicated applies, which bypass the
	// cache-wrapping sessions — only the OnApply hook stands between a
	// warmed cache and serving v1 (or a deleted key) forever.
	for i := 0; i < keys; i++ {
		if err := pse.Put([]byte(key(i)), []byte("v2")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < keys; i += 5 {
		if err := pse.Delete([]byte(key(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := pn.Wait(pse, 1, 10*time.Second); err != nil || got != 1 {
		t.Fatalf("WAIT after update = %d, %v", got, err)
	}
	waitChainDurable(t, r1.st, r2.node, "R2 convergence on v2")

	for _, cn := range []*cachedNode{r1, r2} {
		if s := cn.cache.Stats(); s.Invalidations == 0 {
			t.Fatalf("%s cache saw no invalidations from replicated applies", cn.node.cfg.ID)
		}
		for i := 0; i < keys; i++ {
			v, ok := cn.mustGet(t, key(i))
			if i%5 == 0 {
				if ok {
					t.Fatalf("%s served deleted key %q = %q from cache", cn.node.cfg.ID, key(i), v)
				}
				continue
			}
			if !ok || v != "v2" {
				t.Fatalf("%s stale read %q = %q,%v (want v2)", cn.node.cfg.ID, key(i), v, ok)
			}
		}
	}

	// The hop topology really is a chain: the primary sees one replica (R1),
	// R1 sees one (R2).
	if pn.ConnectedReplicas() != 1 || r1.node.ConnectedReplicas() != 1 {
		t.Fatalf("chain shape: primary=%d r1=%d connected replicas",
			pn.ConnectedReplicas(), r1.node.ConnectedReplicas())
	}
}
