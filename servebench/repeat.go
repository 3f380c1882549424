package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the repeat command reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatRuns runs one workload n times, each in a fresh process with
// seeds seed, seed+1, ..., and prints the median and quartiles of every
// metric. A metric whose quartile spread, as a share of its median,
// exceeds its bound in BENCHMARK.json is flagged, and the command then
// fails.
func repeatRuns(workload string, seed int64, seconds, trace, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	if data, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bs benchSpec
		if err := json.Unmarshal(data, &bs); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bs.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, s, err)
		}
		res, err := lastResult(out)
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, s, err)
		}
		fmt.Fprintf(os.Stderr, "run %d seed %d: attempted=%d failed=%d\n", i+1, s, res.Attempted, res.Failed)
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-30s %12s %12s %12s %8s %8s\n", "metric", "q1", "median", "q3", "spread", "bound")
	var flagged []string
	for _, name := range names {
		q1, med, q3 := quartiles(values[name])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		bound, hasBound := bounds[name]
		mark, boundCol := "", "-"
		if hasBound {
			boundCol = strconv.FormatFloat(bound, 'f', 2, 64)
			// setup_s is exempt: its bound guards the median only.
			if spread > bound && name != "setup_s" {
				mark = "  SPREAD EXCEEDS BOUND"
				flagged = append(flagged, name)
			}
		}
		fmt.Printf("%-30s %12.4f %12.4f %12.4f %8.3f %8s %s%s\n", name, q1, med, q3, spread, boundCol, units[name], mark)
	}
	if len(flagged) > 0 {
		return fmt.Errorf("%s: spread exceeds bound for %s", workload, strings.Join(flagged, ", "))
	}
	return nil
}

// lastResult parses the result object on the last line of a run's output.
func lastResult(out []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("last output line is not a result: %w", err)
	}
	return res, nil
}

// quartiles returns the first quartile, median and third quartile of v
// as Python's statistics.quantiles(v, n=4) computes them (the default
// "exclusive" method), so the spread matches what the benchmark's
// acceptance check computes.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
