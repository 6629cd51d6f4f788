// Command benchmark is the repository's benchmark (BENCHMARK.json): one
// process that assembles the serving stack the way cmd/chameleon-server does
// — or the embedded facade — drives it closed-loop from two clients, checks
// every reply, crashes and recovers the store, reads every key back, and
// prints every metric by name and unit as JSON on the last line of stdout.
//
//	go run ./benchmark -workload read-hot -seed 1             end-to-end metrics
//	go run ./benchmark -workload write-durable -seed 1 -trace 1   per-layer metrics + span table
//	go run ./benchmark -repeat 5                              repeatability check
//
// See benchmark/README.md for what each workload and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// metricValue is one metric as the contract prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of stdout.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// report prints the run — environment stamp, span table (traced) and the
// result line on out, stage timings and warnings on diag — and returns the
// result line, built by walking the metric table of the requested kind: the
// one place metric names reach the output.
func report(out, diag io.Writer, res *runResult, traced bool) (resultLine, error) {
	fmt.Fprintln(diag, "stages:", strings.Join(res.Stages, " "))
	for _, w := range res.Warnings {
		fmt.Fprintf(diag, "\n*** WARNING: %s ***\n\n", w)
	}
	if res.FirstErr != nil {
		fmt.Fprintf(diag, "first failed operation: %v\n", res.FirstErr)
	}
	table := endToEnd
	if traced {
		table = perLayer
	}
	line := resultLine{
		Correct:   res.Failed == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   make(map[string]metricValue, len(table)),
	}
	for _, ms := range table {
		line.Metrics[ms.Name] = metricValue{res.Metrics[ms.Name], ms.Unit}
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]any{"env": res.Env}); err != nil {
		return line, err
	}
	if traced {
		if err := enc.Encode(map[string]any{
			"span_table":     res.SpanTable,
			"tracer_cost_ns": map[string]float64{"clock_read": res.TracerNs[0], "span": res.TracerNs[1]},
		}); err != nil {
			return line, err
		}
	}
	return line, enc.Encode(line)
}

func main() {
	// Two clients and the server on two Ps: the target host has two cores,
	// and the stack's own defaults (maintenance pool size) key off this.
	runtime.GOMAXPROCS(clients)

	var (
		workload = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Uint64("seed", 1, "workload seed: same seed, same inputs")
		seconds  = flag.Int("seconds", 15, "wall-clock seconds the measured phase lasts")
		trace    = flag.Int("trace", 0, "1: traced run, print per-layer metrics and the span table; 0: end-to-end metrics")
		traceOut = flag.String("trace-out", "", "traced run: write every span as JSONL to this file")
		repeat   = flag.Int("repeat", 0, "run every workload this many times in two interleaved sets and check repeatability")
	)
	flag.Parse()
	if *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be >= 1, and there are no positional arguments")
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatCheck(*repeat, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	spec := findWorkload(*workload)
	if spec == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown -workload %q (want one of: %s)\n", *workload, workloadNames())
		os.Exit(2)
	}
	res, err := runWorkload(runConfig{
		spec: spec, seed: *seed, seconds: *seconds,
		trace: *trace != 0, traceOut: *traceOut,
	})
	if err != nil {
		// A run that could not finish prints no result.
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := report(os.Stdout, os.Stderr, res, *trace != 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !line.Correct {
		os.Exit(1)
	}
}
