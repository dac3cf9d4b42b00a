package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// spreadMain is the steadiness tool: given the saved standard output of
// several runs, it prints every metric's median, quartiles and
// interquartile spread over the runs — the figures the benchmark's
// bounds are judged by — followed by the same for the raw timings and
// the reference kernel, so normalized and raw spreads sit side by side.
func spreadMain(paths []string, w io.Writer) error {
	if len(paths) == 0 {
		return fmt.Errorf("spread: need saved run outputs")
	}
	metrics := map[string][]float64{}
	raw := map[string][]float64{}
	incorrect := 0
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		res, rawLine, err := parseOutput(string(data))
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		if !res.Correct || res.Failed > 0 {
			incorrect++
		}
		for k, m := range res.Metrics {
			metrics[k] = append(metrics[k], m.Value)
		}
		for k, v := range rawLine {
			raw[k] = append(raw[k], v)
		}
	}
	fmt.Fprintf(w, "%d runs, %d incorrect or with failed operations\n", len(paths), incorrect)
	printSpreads(w, "metric", metrics)
	printSpreads(w, "raw", raw)
	return nil
}

// parseOutput extracts the result line (the last line) and the raw line
// of one run's standard output.
func parseOutput(out string) (*result, map[string]float64, error) {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, nil, fmt.Errorf("last line is not a result: %w", err)
	}
	rawLine := map[string]float64{}
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "raw "); ok {
			if err := json.Unmarshal([]byte(rest), &rawLine); err != nil {
				return nil, nil, fmt.Errorf("raw line: %w", err)
			}
		}
	}
	return &res, rawLine, nil
}

func printSpreads(w io.Writer, title string, vals map[string][]float64) {
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %4s %12s %12s %12s %8s\n", title, "n", "q1", "median", "q3", "spread")
	for _, k := range names {
		xs := vals[k]
		q1, _, q3 := quartiles(xs)
		fmt.Fprintf(w, "%-28s %4d %12.5g %12.5g %12.5g %8.4f\n", k, len(xs), q1, median(xs), q3, spread(xs))
	}
}
