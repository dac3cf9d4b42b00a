package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the definition the benchmark's
// steadiness is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 4, 2, 3, 10, 7, 8, 9, 6}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1.5, 2.5, 10, 0.5, 7}, [3]float64{1, 2.5, 8.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestSpread(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 7, 8, 9, 6}
	if got, want := spread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{4, 4, 4, 4}); got != 0 {
		t.Errorf("spread of equal values = %v, want 0", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 down to 1
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalize(t *testing.T) {
	// A hypervisor taking a quarter of the busy time stretches 3 s of
	// work to 4 s of wall clock without slowing the kernel's CPU time.
	if got := normalize(4, 0.25, 0.016, 0.016); !near(got, 3) {
		t.Errorf("normalized with steal = %v, want 3", got)
	}
	// A contended core that slows the kernel fourfold is credited with
	// half that, the kernel's measured over-response.
	if got := normalize(6, 0, 0.016, 0.064); !near(got, 3) {
		t.Errorf("normalized on a slow host = %v, want 3", got)
	}
	// On the reference host state a program change shows in full.
	if got := normalize(1.5, 0, 0.016, 0.016); !near(got, 1.5) {
		t.Errorf("normalized faster program = %v, want 1.5", got)
	}
}

func TestOpMedianAveragesInputs(t *testing.T) {
	// Two inputs of different cost: a median over all five ops lands on
	// whichever input ran more ops; the mean of per-input medians does
	// not.
	r := &run{}
	for _, op := range []struct {
		input int
		raw   float64
	}{{0, 1}, {0, 1.2}, {0, 0.8}, {1, 3}, {1, 3.2}} {
		r.endOp(op.input, op.raw)
	}
	if got, want := r.opMedian(), (1+3.1)/2; !near(got, want) {
		t.Errorf("opMedian = %v, want %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "bench.op", Parent: -1, Start: 0, End: 100},
		{Name: "floc.run", Parent: 0, Start: 10, End: 30},
		{Name: "floc.run", Parent: 0, Start: 20, End: 50},     // overlaps its sibling
		{Name: "service.run", Parent: 0, Start: 90, End: 120}, // leaves the parent
		{Name: "floc.seed", Parent: 1, Start: 10, End: 15},
	}
	want := []int64{100 - 40 - 10, 20 - 5, 30, 30, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	layers := layerSelf(spans)
	if !near(layers["bench"], 50e-9) || !near(layers["floc"], 50e-9) || !near(layers["service"], 30e-9) {
		t.Errorf("layer self times %v", layers)
	}
}

func TestParseOutput(t *testing.T) {
	out := "noise\nraw {\"wall_s\":2.5}\n{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"wall_s\":{\"value\":2,\"unit\":\"s\"}}}\n"
	res, raw, err := parseOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 3 || res.Metrics["wall_s"].Value != 2 || raw["wall_s"] != 2.5 {
		t.Errorf("parsed %+v, raw %v", res, raw)
	}
	if _, _, err := parseOutput("no result here"); err == nil {
		t.Error("output without a result line parsed")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables here and the
// metric lists in BENCHMARK.json the same, names, units and order.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s/%s, benchmark %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s/%s, benchmark %s/%s", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not one of %s", w.Name, workloadNames())
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %s, benchmark %s", strings.Join(names, ", "), workloadNames())
	}
}
