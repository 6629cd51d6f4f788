package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// repeatCheck is the repeatability harness: every workload n times in two
// interleaved sets (A and B alternate, so slow host epochs hit both), each
// run a fresh process with its own seed, the way the pipeline runs them. For
// every workload x end-to-end metric it prints both medians and quartiles
// and judges them the way the pipeline does, only harder: the inter-quartile
// range as a share of the median — of each set, and of both pooled — must
// stay within the metric's bound (the pipeline lets setup_s off this one; this
// check does not), and set B's median may not be worse than set A's by more
// than the bound. Throughput, which is not a gate, gets the same line without
// a verdict, so that its spread on this host is on record.
func repeatCheck(n, seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type key struct{ workload, metric, set string }
	values := map[key][]float64{}
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			for si, set := range []string{"A", "B"} {
				seed := 1000*(si+1) + i
				env, line, err := runChild(self, w.Name, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s set %s run %d: %w", w.Name, set, i, err)
				}
				for name, mv := range line.Metrics {
					k := key{w.Name, name, set}
					values[k] = append(values[k], mv.Value)
				}
				k := key{w.Name, throughputStamp, set}
				values[k] = append(values[k], env.Measured.ThroughputKops)
				fmt.Fprintf(os.Stderr, "run %d/%d %s set %s seed %d: setup %.2f s, throughput %.1f kops/s\n",
					i+1, n, w.Name, set, seed, line.Metrics["setup_s"].Value, env.Measured.ThroughputKops)
			}
		}
	}

	fmt.Printf("%-15s %-19s %-6s | %10s %10s %10s %6s | %10s %10s %10s %6s | %7s %7s %s\n",
		"workload", "metric", "bound", "A.q1", "A.median", "A.q3", "A.iqr", "B.q1", "B.median", "B.q3", "B.iqr", "A+B.iqr", "B-vs-A", "verdict")
	failed := 0
	rows := append(append([]metricSpec(nil), endToEnd...), metricSpec{Name: throughputStamp, Better: "higher"})
	for _, w := range workloads {
		for _, ms := range rows {
			a, b := values[key{w.Name, ms.Name, "A"}], values[key{w.Name, ms.Name, "B"}]
			aq1, amed, aq3 := quartiles(a)
			bq1, bmed, bq3 := quartiles(b)
			aiqr, biqr := ratio(aq3-aq1, amed), ratio(bq3-bq1, bmed)
			pq1, pmed, pq3 := quartiles(append(append([]float64(nil), a...), b...))
			piqr := ratio(pq3-pq1, pmed)
			worse := ratio(bmed-amed, amed) // lower is better
			if ms.Better == "higher" {
				worse = -worse
			}
			bound, verdict := "-", "not a gate"
			if ms.Bound > 0 {
				bound, verdict = strconv.FormatFloat(ms.Bound, 'g', -1, 64), "PASS"
				if worse > ms.Bound || max(aiqr, biqr, piqr) > ms.Bound {
					verdict = "FAIL"
					failed++
				}
			}
			fmt.Printf("%-15s %-19s %-6s | %10.4f %10.4f %10.4f %5.1f%% | %10.4f %10.4f %10.4f %5.1f%% | %6.1f%% %+6.1f%% %s\n",
				w.Name, ms.Name, bound, aq1, amed, aq3, 100*aiqr, bq1, bmed, bq3, 100*biqr, 100*piqr, 100*worse, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d workload x metric pairs are not repeatable within their bounds", failed)
	}
	return nil
}

// throughputStamp names the untraced run's throughput in the repeat table.
const throughputStamp = "(throughput_kops)"

// runChild runs one workload in a child process and parses its environment
// stamp (first line) and result (last line).
func runChild(self, workload string, seed, seconds int) (envStamp, resultLine, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return envStamp{}, resultLine{}, err
	}
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			lines = append(lines, append([]byte(nil), sc.Bytes()...))
		}
	}
	if len(lines) < 2 {
		return envStamp{}, resultLine{}, fmt.Errorf("output has %d lines, want a stamp and a result", len(lines))
	}
	var stamp struct {
		Env envStamp `json:"env"`
	}
	if err := json.Unmarshal(lines[0], &stamp); err != nil {
		return envStamp{}, resultLine{}, fmt.Errorf("stamp line %q: %w", lines[0], err)
	}
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return stamp.Env, line, fmt.Errorf("result line %q: %w", lines[len(lines)-1], err)
	}
	return stamp.Env, line, nil
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns (the
// default "exclusive" method), since that is what the pipeline computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	if len(d) < 2 {
		if len(d) == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		m := len(d) + 1
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
