package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"testing"

	"chameleondb"
	"chameleondb/internal/core"
	"chameleondb/internal/hotcache"
)

// smokeScale shrinks every workload 200x: a few thousand keys, a fraction of
// a second each, the same code paths.
const smokeScale = 200

func smoke(t *testing.T, name string, traced bool) (*runResult, resultLine) {
	t.Helper()
	res, err := runWorkload(runConfig{spec: findWorkload(name), seed: 7, seconds: 20, scale: smokeScale, trace: traced})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	line, err := report(io.Discard, io.Discard, res, traced)
	if err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d (first: %v)", name, line.Correct, line.Attempted, line.Failed, res.FirstErr)
	}
	return res, line
}

func metricNames(table []metricSpec) map[string]bool {
	names := map[string]bool{}
	for _, m := range table {
		names[m.Name] = true
	}
	return names
}

func lineNames(line resultLine) map[string]bool {
	names := map[string]bool{}
	for name := range line.Metrics {
		names[name] = true
	}
	return names
}

// TestWorkloadsSmoke runs all four workloads end to end — preload, warm-up,
// measured phase, crash, recover, read-back — and checks that each prints
// exactly the end-to-end metrics, none of them zero.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		_, line := smoke(t, w.Name, false)
		if got, want := lineNames(line), metricNames(endToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: printed metrics %v, want %v", w.Name, got, want)
		}
		for name, mv := range line.Metrics {
			if !(mv.Value > 0) || math.IsInf(mv.Value, 0) {
				t.Errorf("%s: %s = %v, want a positive finite number", w.Name, name, mv.Value)
			}
		}
	}
}

// TestTracedSmoke runs the traced stack on the workload that uses most of it
// (durable SETs: put, putbatch and flush spans on both sides of the cache, a
// depth-1 phase, the file backend's reopen) and on the embedded one.
func TestTracedSmoke(t *testing.T) {
	res, line := smoke(t, "write-durable", true)
	if got, want := lineNames(line), metricNames(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("printed metrics %v, want %v", got, want)
	}
	for _, name := range []string{
		"server.commit_wait_us_p50", "core.flush_us_p50", "server.flushes_per_commit", "filedev.syncs_per_set",
		"server.set_rtt_p50_us", "core.putbatch_ns_per_key", "core.reopen_ms", "filedev.sync_write_us_p50",
	} {
		if !(line.Metrics[name].Value > 0) {
			t.Errorf("%s = %v, want > 0 on write-durable", name, line.Metrics[name].Value)
		}
	}
	if len(res.SpanTable) != 2 {
		t.Fatalf("span table has %d rows, want throughput and depth-1", len(res.SpanTable))
	}
	for _, row := range res.SpanTable {
		if row.Samples == 0 || math.Abs(row.Sum-row.RTT) > 1e-6*row.RTT {
			t.Errorf("span table row %+v: parts do not sum to the round trip", row)
		}
	}

	_, line = smoke(t, "embedded-mixed", true)
	for _, name := range []string{"core.put_ns_p50", "core.get_ns_p50", "hotcache.self_ns_per_put", "hotcache.hit_ratio"} {
		if !(line.Metrics[name].Value > 0) {
			t.Errorf("%s = %v, want > 0 on embedded-mixed", name, line.Metrics[name].Value)
		}
	}
}

// TestEmbeddedStackMatchesFacade holds embeddedCoreConfig to the facade's own
// (unexported) mapping: the same writes and reads through chameleondb.Open and
// through the hand-built stack of the traced run must leave the same flush,
// compaction, probe and byte counts. A default or a mapping that drifts on
// one side only shows up here.
func TestEmbeddedStackMatchesFacade(t *testing.T) {
	const keys, ops = 5000, 60_000
	o := embeddedOptions(keys, ops)
	db, err := chameleondb.Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st, err := core.Open(embeddedCoreConfig(o))
	if err != nil {
		t.Fatal(err)
	}
	byHand := newCoreHandle(st, hotcache.New(cacheBytes(keys)))
	defer byHand.close()

	drive := func(se embSession) {
		var key, val [8]byte
		var buf []byte
		r := newRng(3)
		for i := 0; i < ops; i++ {
			k := r.intn(keys)
			putKey(key[:], k)
			if i%2 == 0 {
				putValue(val[:], k, uint32(i))
				if err := se.Put(key[:], val[:]); err != nil {
					t.Fatal(err)
				}
				continue
			}
			v, _, err := se.GetInto(key[:], buf[:0])
			if err != nil {
				t.Fatal(err)
			}
			buf = v
		}
		if err := se.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	drive(db.NewSession())
	drive(byHand.session())

	got, k, d := db.Stats(), st.Stats(), st.DeviceStats()
	want := chameleondb.Stats{
		Puts: k.Puts, Flushes: k.Flushes, Spills: k.Spills,
		UpperCompactions: k.UpperCompactions, LastCompactions: k.LastCompactions, Dumps: k.Dumps,
		GetMemTable: k.GetMemTable, GetABI: k.GetABI, GetDumped: k.GetDumped,
		GetUpper: k.GetUpper, GetLast: k.GetLast, GetMiss: k.GetMiss,
		LogicalBytesWritten: d.LogicalBytesWritten, MediaBytesWritten: d.MediaBytesWritten, MediaBytesRead: d.MediaBytesRead,
		DRAMFootprintBytes: byHand.dramBytes(),
	}
	if got != want {
		t.Errorf("facade and hand-built stack diverge:\n facade  %+v\n by hand %+v", got, want)
	}
	if got.Flushes == 0 || got.UpperCompactions == 0 || got.GetABI == 0 {
		t.Errorf("the drive is too small to tell geometries apart: %+v", got)
	}
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json and spec.go together:
// every workload and metric the contract names is one the program prints, with
// the same unit, direction and bound, and the other way round.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var contract struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(contract.Command, want) {
		t.Errorf("command %v, want %v", contract.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(contract.Paths, want) {
		t.Errorf("paths %v, want %v", contract.Paths, want)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c := contract.Workloads[i]; c.Name != w.Name || c.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go has %q (%q)", i, c.Name, c.Why, w.Name, w.Why)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, spec.go has %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.Bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match spec.go's %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", contract.EndToEnd, endToEnd, true)
	check("per_layer", contract.PerLayer, perLayer, false)
}

// TestZipfianShape pins the instrument's skew: at theta 0.99 over the
// read-hot keyspace at least three draws in four land on the hottest tenth of
// the ranks — which is why a cache of a tenth of the keys serves read-hot.
func TestZipfianShape(t *testing.T) {
	const keys, draws = 1_000_000, 200_000
	z, r := newZipfian(keys), newRng(1)
	hot := 0
	for i := 0; i < draws; i++ {
		rank := z.rank(r)
		if rank >= keys {
			t.Fatalf("rank %d out of range", rank)
		}
		if rank < keys/10 {
			hot++
		}
		if k := scramble(rank, keys); k >= keys || k != scramble(rank, keys) {
			t.Fatalf("scramble(%d) = %d: out of range or not a function", rank, k)
		}
	}
	if share := float64(hot) / draws; share < 0.75 {
		t.Errorf("hottest 10%% of ranks drew %.3f of the load, want >= 0.75", share)
	}
}

// TestGeneratorIsSeeded checks the contract's "same seed, same inputs", and
// that each key has exactly one writer.
func TestGeneratorIsSeeded(t *testing.T) {
	spec := *findWorkload("embedded-mixed")
	spec.Keys = 1001
	a, b := generate(&spec, 5000, 42, 1, nil), generate(&spec, 5000, 42, 1, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different op streams")
	}
	if c := generate(&spec, 5000, 43, 1, nil); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same op stream")
	}
	for client, stream := range a {
		for _, op := range stream {
			k := int(op &^ opWrite)
			if k >= spec.Keys {
				t.Fatalf("key %d outside keyspace %d", k, spec.Keys)
			}
			if op&opWrite != 0 && k%clients != client {
				t.Fatalf("client %d writes key %d, which belongs to client %d", client, k, k%clients)
			}
		}
	}
}

// TestQuartilesMatchPython compares with statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, [3]float64{27.5, 55, 82.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.v)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}
