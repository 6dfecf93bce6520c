package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness mode
// reads: each end-to-end metric's bound, as a share of the median.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs every workload n times, each run in a fresh process
// of this binary with seed base+i, reversing the workload order on
// every other round so that no workload always runs first. It prints
// each end-to-end metric's median, quartiles, minimum and maximum, and
// flags a spread (interquartile range over median) above the metric's
// bound, or above a third of it.
func steadiness(n int, base uint64, seconds int, benchPath string, out io.Writer) error {
	bounds := map[string]float64{}
	if b, err := os.ReadFile(benchPath); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(b, &bf); err != nil {
			return fmt.Errorf("%s: %w", benchPath, err)
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	runs := map[string][]*result{}
	for i := 0; i < n; i++ {
		order := append([]string(nil), workloadNames...)
		if i%2 == 1 {
			for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
				order[l], order[r] = order[r], order[l]
			}
		}
		for _, w := range order {
			seed := base + uint64(i)
			res, err := runChild(self, w, seed, seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			fmt.Fprintf(out, "run %d %s seed %d: correct=%v attempted=%d failed=%d", i, w, seed, res.Correct, res.Attempted, res.Failed)
			for _, m := range endToEnd {
				fmt.Fprintf(out, " %s=%.4g", m.name, res.Metrics[m.name].Value)
			}
			fmt.Fprintln(out)
			runs[w] = append(runs[w], res)
		}
	}
	for _, w := range workloadNames {
		fmt.Fprintf(out, "\n%s (%d runs)\n", w, len(runs[w]))
		fmt.Fprintf(out, "%-16s %12s %12s %12s %12s %12s %8s %7s\n", "metric", "median", "q1", "q3", "min", "max", "spread", "bound")
		var failedShares []float64
		for _, r := range runs[w] {
			failedShares = append(failedShares, float64(r.Failed)/float64(r.Attempted))
		}
		for _, m := range endToEnd {
			var xs []float64
			for _, r := range runs[w] {
				xs = append(xs, r.Metrics[m.name].Value)
			}
			q1, q2, q3 := quartiles(xs)
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				lo, hi = min(lo, x), max(hi, x)
			}
			spread := (q3 - q1) / q2
			flag := ""
			if b, ok := bounds[m.name]; ok {
				switch {
				case spread > b:
					flag = "  OVER BOUND"
				case spread > b/3:
					flag = "  over a third of the bound"
				}
			}
			fmt.Fprintf(out, "%-16s %12.5g %12.5g %12.5g %12.5g %12.5g %8.4f %7.3g%s\n",
				m.name, q2, q1, q3, lo, hi, spread, bounds[m.name], flag)
		}
		fmt.Fprintf(out, "failed share per run: %v\n", failedShares)
	}
	return nil
}

// errNoResult marks a child run that printed no result line.
var errNoResult = errors.New("no result line")

// runChild runs one untraced workload run in a fresh process and
// parses its result line.
func runChild(self, w string, seed uint64, seconds int) (*result, error) {
	cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil || res.Attempted == 0 {
		return nil, errNoResult
	}
	return &res, nil
}
