// Command chameleon-bench regenerates the tables and figures of the
// ChameleonDB paper's evaluation in virtual time. Run a single experiment
// with -experiment <id>, or every registered experiment with -experiment all.
// Wall-clock questions belong to `go run ./benchmark` (benchmark/README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"chameleondb/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (fig1, fig2, fig3, fig6, fig10, fig11tab2, fig12, fig13tab3, tab4, fig14tab5, fig15, fig16, fig17, ablations, gpmdumps, scan) or 'all' or 'list'")
		keys       = flag.Int64("keys", 1_000_000, "dataset size (keys loaded)")
		ops        = flag.Int64("ops", 1_000_000, "measured-phase operations")
		threads    = flag.Int("threads", 16, "maximum worker count")
		valueSize  = flag.Int("value-size", 8, "value size in bytes")
		seed       = flag.Int64("seed", 1, "random seed")
		asJSON     = flag.Bool("json", false, "emit reports as JSON (including the store's metrics snapshot) instead of text tables")
	)
	flag.Parse()

	if *experiment == "list" {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	opt := bench.Options{Keys: *keys, Ops: *ops, Threads: *threads, ValueSize: *valueSize, Seed: *seed}
	var exps []bench.Experiment
	if *experiment == "all" {
		exps = bench.Experiments()
	} else {
		e, ok := bench.Lookup(*experiment)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -experiment list)\n", *experiment)
			os.Exit(1)
		}
		exps = []bench.Experiment{e}
	}
	var all []*bench.Report
	for _, e := range exps {
		reports, err := e.Run(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		all = append(all, reports...)
		if !*asJSON {
			for _, r := range reports {
				r.Print(os.Stdout)
			}
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(all); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
