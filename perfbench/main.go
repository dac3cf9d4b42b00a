// Command perfbench is deltacluster's end-to-end benchmark. One run
// executes one workload for a fixed measuring window, checks every
// output, and prints its metrics as the last line of standard output:
//
//	perfbench --workload grid-phase2 --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate
// run that records spans at every layer boundary and reports the
// per-layer metrics. Every timing is host-normalized (normalize): the
// share of busy CPU time the hypervisor stole is taken out, and the
// rest is scaled by the reference kernel's time (ref.go).
//
//	perfbench spread OUT...
//
// reads saved run outputs and prints each metric's median and
// interquartile spread, normalized and raw, and
//
//	perfbench calibrate N
//
// compares the reference kernel with a fixed FLOC job over N samples.
// NOTES.md explains the workloads and the steadiness evidence.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times set-up is timed; setup_s is the
// median.
const setupRepeats = 15

// refZero is R0, the reference kernel's median CPU time in the host
// state the benchmark was calibrated in; normalized timings read as
// seconds in that state.
const refZero = 0.016

// minPasses is the fewest passes a run makes, even past --seconds, so
// every median has at least three samples.
const minPasses = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
}

// workload is one of the benchmark's input sets. prepare builds inputs
// from the seed, untimed; setupOnce is one timed repeat of the
// program's own set-up; pass runs the fixed work once; finish runs the
// checks that are too slow to repeat every pass.
type workload interface {
	prepare(r *run) error
	setupOnce(r *run) error
	pass(r *run, n int) error
	finish(r *run) error
	close()
}

var workloads = map[string]func() workload{
	"grid-phase2":      func() workload { return newGridPhase2() },
	"default-anchored": func() workload { return newDefaultAnchored() },
	"serve-lineage":    func() workload { return &serveLineage{} },
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		if err := spreadMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "calibrate" {
		if err := calibrateMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: grid-phase2 | default-anchored | serve-lineage")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; equal seeds give equal inputs")
	flag.Float64Var(&o.seconds, "seconds", 30, "measuring window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "with --trace 1, also write the spans as JSON lines to this file")
	flag.Parse()
	o.trace = traceFlag == 1
	mk, ok := workloads[o.workload]
	if !ok || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res, err := execute(o, mk())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// endToEnd lists the end-to-end metrics in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"op_p50_s", "s"},
	{"ok_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one run's raw measurements. Timings are raw seconds
// until report normalizes them.
type run struct {
	opts options
	ref  *refKernel
	tr   tracer

	refCPU    []float64 // the reference kernel's CPU seconds, per run of it
	setup     []float64
	ops       []float64
	opInputs  []int // which of the pass's inputs each op ran on
	passes    []float64
	passEvals []int64 // floc gain evaluations per pass

	attempted, failed int
	problems          []string
	opFailed          bool

	// layer holds per-layer samples by metric name, and residuals the
	// traced run's breakdown check measured.
	layer     map[string][]float64
	residuals []float64

	// untracedPasses and tracedPasses split the traced run's pass times
	// for trace.overhead.
	untracedPasses, tracedPasses []float64
	passTraced                   bool

	// setupWin and loopWin hold what host normalization needs from the
	// set-up repeats and from the measured passes.
	setupWin, loopWin window
}

func newRun(o options) *run {
	return &run{opts: o, ref: newRefKernel(), tr: tracer{}, layer: map[string][]float64{}}
}

// beforeCall collects the heap, so every timed call starts from the
// same state, then samples the reference kernel.
func (r *run) beforeCall() {
	runtime.GC()
	// The kernel's CPU time is read for its own thread only, so work
	// other goroutines do meanwhile (servers, the coordinator's loops)
	// is not charged to it.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c := threadCPUSeconds()
	r.ref.run()
	r.refCPU = append(r.refCPU, threadCPUSeconds()-c)
}

// fail records a failed check or operation; the run's correct flag
// goes false and the current operation counts as failed.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	r.opFailed = true
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
}

// beginOp starts counting one operation; endOp closes it.
func (r *run) beginOp() { r.attempted++; r.opFailed = false }

// endOp closes an operation on the pass's input number input.
func (r *run) endOp(input int, raw float64) {
	if r.opFailed {
		r.failed++
	}
	r.ops = append(r.ops, raw)
	r.opInputs = append(r.opInputs, input)
}

// opMedian is op_p50_s before normalization: the median operation time
// on each of the pass's inputs, averaged over the inputs. Operations on
// different inputs do different amounts of work, so a median over all
// of them would jump between the inputs' modes from run to run.
func (r *run) opMedian() float64 {
	byInput := map[int][]float64{}
	for i, v := range r.ops {
		byInput[r.opInputs[i]] = append(byInput[r.opInputs[i]], v)
	}
	sum := 0.0
	for _, xs := range byInput {
		sum += median(xs)
	}
	return sum / float64(len(byInput))
}

// note records one per-layer sample.
func (r *run) note(name string, v float64) { r.layer[name] = append(r.layer[name], v) }

func execute(o options, w workload) (*result, error) {
	r := newRun(o)
	r.tr.on = o.trace
	defer w.close()
	if err := w.prepare(r); err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	mark := r.markWindow()
	for i := 0; i < setupRepeats; i++ {
		r.beforeCall()
		if err := w.setupOnce(r); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	r.setupWin = mark()
	mark = r.markWindow()
	start := time.Now()
	var passWall []float64
	for n := 0; ; n++ {
		// Stop before a pass that would end past the window; a pass
		// never starts just to be cut short.
		elapsed := time.Since(start).Seconds()
		if n >= minPasses && elapsed+median(passWall) > o.seconds {
			break
		}
		passStart := time.Now()
		// The traced run alternates untraced and traced passes, so
		// trace.overhead compares the two within one run.
		r.passTraced = o.trace && n%2 == 1
		r.tr.on = r.passTraced
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)
		before := len(r.ops)
		if err := w.pass(r, n); err != nil {
			return nil, err
		}
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		passRaw := 0.0
		for _, v := range r.ops[before:] {
			passRaw += v
		}
		r.passes = append(r.passes, passRaw)
		passWall = append(passWall, time.Since(passStart).Seconds())
		if o.trace {
			if r.passTraced {
				r.tracedPasses = append(r.tracedPasses, passRaw)
			} else {
				r.untracedPasses = append(r.untracedPasses, passRaw)
			}
			r.note("go.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
			r.note("go.gc_cycles", float64((m1.NumGC-m0.NumGC)-(m1.NumForcedGC-m0.NumForcedGC)))
		}
	}
	r.loopWin = mark()
	r.tr.on = o.trace
	if err := w.finish(r); err != nil {
		return nil, err
	}
	if o.trace && o.spans != "" {
		if err := writeSpans(o.spans, r.tr.spans); err != nil {
			return nil, err
		}
	}
	return r.report(), nil
}

// window is one stretch of a run, set-up or measurement: the share of
// busy CPU time the hypervisor stole in it, and the reference kernel's
// CPU times sampled in it. Each stretch is normalized by its own
// figures, so set-up, which takes a few seconds, is not judged by the
// host's state minutes later.
type window struct {
	refs   []float64
	stolen float64
}

// ref is the window's reference-kernel time, R_run: the median CPU time
// of its kernel samples.
func (w window) ref() float64 { return median(w.refs) }

func (w window) norm(raw float64) float64 { return normalize(raw, w.stolen, refZero, w.ref()) }

// markWindow starts a window; calling the returned function ends it.
func (r *run) markWindow() func() window {
	n, steal0, cpu0 := len(r.refCPU), stealSeconds(), cpuSeconds()
	return func() window {
		w := window{refs: r.refCPU[n:]}
		if st, c := stealSeconds()-steal0, cpuSeconds()-cpu0; st+c > 0 {
			w.stolen = st / (st + c)
		}
		return w
	}
}

// norm host-normalizes a raw timing taken in the measured passes.
func (r *run) norm(raw float64) float64 { return r.loopWin.norm(raw) }

func (r *run) report() *result {
	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	raw := map[string]float64{
		"setup_s":  median(r.setup),
		"wall_s":   median(r.passes),
		"op_p50_s": r.opMedian(),
	}
	if r.opts.trace {
		r.layerMetrics(res)
	} else {
		vals := map[string]float64{
			"ok_ratio":    1 - float64(r.failed)/float64(max(r.attempted, 1)),
			"peak_rss_mb": peakRSSMB(),
		}
		for name, v := range raw {
			vals[name] = r.norm(v)
		}
		vals["setup_s"] = r.setupWin.norm(raw["setup_s"])
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
	}
	res.Correct = len(r.problems) == 0
	r.printReport(raw)
	// The raw line carries what the result line cannot: unnormalized
	// timings and the normalization's inputs, for the spread mode.
	rawLine := map[string]float64{
		"ref_s": r.loopWin.ref(), "ref_spread": spread(r.loopWin.refs), "stolen": r.loopWin.stolen,
		"setup_ref_s": r.setupWin.ref(), "setup_stolen": r.setupWin.stolen,
		"passes": float64(len(r.passes)),
	}
	for k, v := range raw {
		rawLine[k] = v
	}
	b, _ := json.Marshal(rawLine) // a map of finite floats always marshals
	fmt.Println("raw " + string(b))
	return res
}

func (r *run) printReport(raw map[string]float64) {
	w := os.Stderr
	fmt.Fprintf(w, "perfbench %s seed %d: %d passes, %d ops (%d failed), trace %v\n",
		r.opts.workload, r.opts.seed, len(r.passes), r.attempted, r.failed, r.opts.trace)
	for _, x := range []struct {
		name string
		w    window
	}{{"set-up", r.setupWin}, {"passes", r.loopWin}} {
		fmt.Fprintf(w, "  %s: stolen share %.4f; ref kernel median %.5fs CPU (refZero %.3fs) over %d samples, spread %.3f\n",
			x.name, x.w.stolen, x.w.ref(), refZero, len(x.w.refs), spread(x.w.refs))
	}
	fmt.Fprintf(w, "  %-9s raw %.4fs  normalized %.4fs\n", "setup_s", raw["setup_s"], r.setupWin.norm(raw["setup_s"]))
	for _, n := range []string{"wall_s", "op_p50_s"} {
		fmt.Fprintf(w, "  %-9s raw %.4fs  normalized %.4fs\n", n, raw[n], r.norm(raw[n]))
	}
	if p, ok := tailPercentile(len(r.ops)); ok {
		fmt.Fprintf(w, "  op p%g: %.4fs normalized (%d ops)\n", p, r.norm(percentile(r.ops, p)), len(r.ops))
	}
	fmt.Fprintf(w, "  set-up times raw: %s\n", floats(r.setup))
	fmt.Fprintf(w, "  pass times raw: %s\n", floats(r.passes))
	if len(r.passEvals) > 0 {
		fmt.Fprintf(w, "  floc gain evaluations per pass: %v\n", r.passEvals)
	}
	if len(r.residuals) > 0 {
		fmt.Fprintf(w, "  breakdown residuals (|parts-total|/total): max %.4f over %d\n", maxOf(r.residuals), len(r.residuals))
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "  problem:", p)
	}
}

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(parts, " ")
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 { return rusageSeconds(syscall.RUSAGE_SELF) }

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not
// name.
const rusageThread = 1

// threadCPUSeconds is the calling OS thread's CPU time.
func threadCPUSeconds() float64 { return rusageSeconds(rusageThread) }

func rusageSeconds(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// stealSeconds is the host's total steal time so far, from the steal
// ticks on /proc/stat's first line (USER_HZ, 100 per second on Linux);
// 0 where it is unavailable.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return float64(ticks) / 100
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
