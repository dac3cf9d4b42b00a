package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"deltacluster/internal/cluster"
	"deltacluster/internal/eval"
	"deltacluster/internal/floc"
	"deltacluster/internal/matrix"
	"deltacluster/internal/synth"
)

// The library workloads call internal/floc directly, the way
// cmd/floc and cmd/experiments do.
//
// grid-phase2 is the Table 3 cell 3000×100 with 50 embedded clusters,
// swept through k ∈ {20, 50} × gain mode {exact, incremental} under
// the experiments' performance configuration (random seeding, row p
// 0.05, column p 0.2). MaxIterations is capped at 10 and every job must
// reach it, so phase 2 — the decide/apply loop over the cluster
// kernel — does the same work whatever the seed.
//
// default-anchored is floc.DefaultConfig as cmd/floc runs it: auto
// seeding (anchored at this contrast), exact gains, all cores. Anchored
// seeding is nearly all of its time and phase 2 rarely improves, the
// reverse of grid-phase2. Its 3000×100 job is also the one place the
// benchmark reports clustering quality.

const (
	gridRows, gridCols = 3000, 100
	gridClusters       = 50
	gridDelta          = 15
	gridMaxIterations  = 10
	yeastK, yeastDelta = 30, 20
)

// libInput is one matrix of a library workload: its CSV encoding, the
// matrix as generated, and the matrix as set-up decoded it, which is
// what FLOC runs on.
type libInput struct {
	name  string
	csv   []byte
	gen   *matrix.Matrix
	m     *matrix.Matrix
	truth []cluster.Spec
}

// libJob is one FLOC call of the operation.
type libJob struct {
	label string
	input int
	cfg   floc.Config
}

type libWorkload struct {
	build func(seed int64) ([]*libInput, []libJob, error)

	// wantIterations, when positive, is the improving-iteration count
	// every job must report; fewer means the run converged early and
	// the pass's work changed.
	wantIterations int
	// altWorkers is the worker count the first job is repeated at in
	// finish; its fingerprint must not change.
	altWorkers int

	inputs       []*libInput
	jobs         []libJob
	fingerprints []string
	callTimes    []float64 // first job's raw call times, for floc.scaling
}

func newGridPhase2() *libWorkload {
	return &libWorkload{build: buildGrid, wantIterations: gridMaxIterations, altWorkers: 2}
}

func newDefaultAnchored() *libWorkload {
	return &libWorkload{build: buildDefault, altWorkers: 1}
}

// tableGrid generates the Table 3 cell the paper's way (Section 6.2):
// embedded volume (0.04·N)·(0.1·M) with the same aspect, residue 5.
func tableGrid(seed int64) (*libInput, error) {
	rows, cols := gridRows, gridCols
	ds, err := synth.Generate(synth.Config{
		Rows: rows, Cols: cols, NumClusters: gridClusters,
		VolumeMean:    (0.04 * float64(rows)) * (0.1 * float64(cols)),
		RowColRatio:   (0.04 * float64(rows)) / (0.1 * float64(cols)),
		TargetResidue: 5,
	}, seed)
	if err != nil {
		return nil, err
	}
	return newLibInput("grid3000x100", ds)
}

func newLibInput(name string, ds *synth.Dataset) (*libInput, error) {
	var buf bytes.Buffer
	if err := matrix.Write(&buf, ds.Matrix, matrix.IOOptions{}); err != nil {
		return nil, err
	}
	return &libInput{name: name, csv: buf.Bytes(), gen: ds.Matrix, truth: ds.Embedded}, nil
}

func buildGrid(seed int64) ([]*libInput, []libJob, error) {
	in, err := tableGrid(seed)
	if err != nil {
		return nil, nil, err
	}
	var jobs []libJob
	for _, k := range []int{20, 50} {
		for _, mode := range []floc.GainMode{floc.GainExact, floc.GainIncremental} {
			cfg := floc.DefaultConfig(k, gridDelta)
			cfg.Seed = seed
			cfg.SeedMode = floc.SeedRandom
			cfg.SeedRowProbability = 0.05
			cfg.SeedColProbability = 0.2
			cfg.MaxIterations = gridMaxIterations
			cfg.Workers = 1
			cfg.GainMode = mode
			jobs = append(jobs, libJob{label: fmt.Sprintf("k%d-%s", k, mode), cfg: cfg})
		}
	}
	return []*libInput{in}, jobs, nil
}

func buildDefault(seed int64) ([]*libInput, []libJob, error) {
	grid, err := tableGrid(seed)
	if err != nil {
		return nil, nil, err
	}
	yds, err := synth.Yeast(synth.DefaultYeastConfig(), seed)
	if err != nil {
		return nil, nil, err
	}
	yeast, err := newLibInput("yeast2884x17", yds)
	if err != nil {
		return nil, nil, err
	}
	gcfg := floc.DefaultConfig(gridClusters, gridDelta)
	gcfg.Seed = seed
	ycfg := floc.DefaultConfig(yeastK, yeastDelta)
	ycfg.Seed = seed
	return []*libInput{grid, yeast}, []libJob{
		{label: "grid-k50-default", input: 0, cfg: gcfg},
		{label: "yeast-k30-default", input: 1, cfg: ycfg},
	}, nil
}

func (w *libWorkload) prepare(r *run) error {
	var err error
	w.inputs, w.jobs, err = w.build(r.opts.seed)
	return err
}

// setupOnce decodes every input the way cmd/floc loads a file and
// builds its derived caches — the set-up a user pays before FLOC runs.
func (w *libWorkload) setupOnce(r *run) error {
	total := 0.0
	for i, in := range w.inputs {
		t := time.Now()
		m, err := matrix.Read(bytes.NewReader(in.csv), matrix.IOOptions{})
		if err != nil {
			return fmt.Errorf("decoding %s: %w", in.name, err)
		}
		decoded := time.Since(t).Seconds()
		m.EnsureDerived()
		total += time.Since(t).Seconds()
		if !m.Equal(in.gen) {
			r.fail("%s: decoded matrix differs from the generated one", in.name)
		}
		in.m = m
		if r.opts.trace && i == 0 {
			r.note("matrix.decode_s.csv", decoded)
			r.note("matrix.derived_s", time.Since(t).Seconds()-decoded)
			if err := noteDecodes(r, in.gen); err != nil {
				return err
			}
		}
	}
	r.setup = append(r.setup, total)
	return nil
}

// noteDecodes times the JSON and DCMX decodes of m and records both
// encoded sizes. JSON goes through the public route a Go client has:
// encoding/json into rows, then matrix.NewFromRows.
func noteDecodes(r *run, m *matrix.Matrix) error {
	rows := make([][]float64, m.Rows())
	for i := range rows {
		rows[i] = m.Row(i)
	}
	js, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	runtime.GC()
	t := time.Now()
	var back [][]float64
	if err := json.Unmarshal(js, &back); err != nil {
		return err
	}
	jm, err := matrix.NewFromRows(back)
	if err != nil {
		return err
	}
	r.note("matrix.decode_s.json", time.Since(t).Seconds())
	bin := matrix.EncodeBinary(m)
	runtime.GC()
	t = time.Now()
	bm, err := matrix.DecodeBinary(bin, -1)
	if err != nil {
		return err
	}
	r.note("matrix.decode_s.dcmx", time.Since(t).Seconds())
	if !jm.Equal(m) || !bm.Equal(m) {
		r.fail("JSON or DCMX round trip changed the matrix")
	}
	r.note("matrix.bytes.json", float64(len(js)))
	r.note("matrix.bytes.dcmx", float64(len(bin)))
	return nil
}

// pass runs the pass's one operation: every job, in order.
func (w *libWorkload) pass(r *run, n int) error {
	r.beginOp()
	id := r.attempted
	root := r.tr.open("bench.op", id, -1)
	var opRaw float64
	var sums flocTimes
	var incrIter, exactIter float64
	var evals, actions int64
	for j, job := range w.jobs {
		in := w.inputs[job.input]
		r.beforeCall()
		res, ft, err := r.flocCall(in.m, job.cfg, floc.RunOptions{}, id, root)
		opRaw += ft.call
		if err != nil {
			r.fail("%s: %v", job.label, err)
			continue
		}
		if j == 0 {
			w.callTimes = append(w.callTimes, ft.call)
		}
		evals += res.GainEvaluations
		actions += res.ActionsApplied
		w.check(r, j, in, res)
		if r.passTraced {
			sums.add(ft)
			if job.cfg.GainMode == floc.GainIncremental {
				incrIter += ft.iterate
			} else {
				exactIter += ft.iterate
			}
			r.note("floc.iterations", float64(res.Iterations))
			if j == 0 {
				noteQuality(r, in, res, job.cfg.MaxResidue)
			}
		}
	}
	r.tr.end(root)
	r.endOp(0, opRaw)
	r.passEvals = append(r.passEvals, evals)
	if r.passTraced {
		sums.note(r)
		r.note("floc.gain_evals", float64(evals))
		r.note("floc.actions", float64(actions))
		if phase2 := sums.iterate + sums.tail; phase2 > 0 {
			r.note("floc.evals_per_s", float64(evals)/phase2)
		}
		if incrIter > 0 && exactIter > 0 {
			r.note("floc.incr_over_exact", incrIter/exactIter)
		}
	}
	return nil
}

// check verifies one job's output: the pass-to-pass fingerprint, the
// iteration count where the workload fixes it, and every residue
// against a from-scratch recomputation.
func (w *libWorkload) check(r *run, j int, in *libInput, res *floc.Result) {
	fp := fingerprint(res)
	if len(w.fingerprints) <= j {
		w.fingerprints = append(w.fingerprints, fp)
	} else if w.fingerprints[j] != fp {
		r.fail("%s: fingerprint %s differs from the first pass's %s", w.jobs[j].label, fp, w.fingerprints[j])
	}
	if w.wantIterations > 0 && res.Iterations != w.wantIterations {
		r.fail("%s: %d improving iterations, want %d (early convergence changes the pass's work)",
			w.jobs[j].label, res.Iterations, w.wantIterations)
	}
	checkResidues(r, w.jobs[j].label, in.m, res.Clusters)
}

// finish repeats the first job at the other worker count: the
// decide-phase worker count must never change the result.
func (w *libWorkload) finish(r *run) error {
	if len(w.fingerprints) == 0 {
		return nil
	}
	job := w.jobs[0]
	cfg := job.cfg
	cfg.Workers = w.altWorkers
	r.beforeCall()
	res, ft, err := r.flocCall(w.inputs[job.input].m, cfg, floc.RunOptions{}, -1, -1)
	if err != nil {
		r.fail("%s at workers %d: %v", job.label, w.altWorkers, err)
		return nil
	}
	if fp := fingerprint(res); fp != w.fingerprints[0] {
		r.fail("%s: workers %d fingerprint %s differs from %s", job.label, w.altWorkers, fp, w.fingerprints[0])
	}
	if r.opts.trace {
		// floc.scaling is 1-worker time over 2-worker time.
		one, two := median(w.callTimes), ft.call
		if w.altWorkers == 1 {
			one, two = two, one
		}
		r.note("floc.scaling", one/two)
	}
	return nil
}

func (w *libWorkload) close() {}

// flocTimes splits one FLOC call at its progress callbacks: seed runs
// from the call to the first callback, iterate from the first to the
// last, tail from the last to the return (the final non-improving
// iteration and the polish). Untraced calls fill only call.
type flocTimes struct {
	call, seed, iterate, tail float64
}

func (f *flocTimes) add(o flocTimes) {
	f.call += o.call
	f.seed += o.seed
	f.iterate += o.iterate
	f.tail += o.tail
}

func (f flocTimes) note(r *run) {
	r.note("floc.seed_s", f.seed)
	r.note("floc.iterate_s", f.iterate)
	r.note("floc.tail_s", f.tail)
}

// flocCall runs FLOC and, when tracing, splits the call at its
// progress callbacks, records the spans of an operation's calls (op ≥
// 0), and checks that the parts add up to the run time FLOC reports.
func (r *run) flocCall(m *matrix.Matrix, cfg floc.Config, opts floc.RunOptions, op, parent int) (*floc.Result, flocTimes, error) {
	traced := r.tr.on
	var marks []int64
	if traced {
		inner := opts.OnProgress
		opts.OnProgress = func(p floc.Progress) {
			marks = append(marks, now())
			if inner != nil {
				inner(p)
			}
		}
	}
	start := time.Now()
	t0 := now()
	res, err := floc.RunWithOptions(context.Background(), m, cfg, opts)
	var ft flocTimes
	ft.call = time.Since(start).Seconds()
	t1 := now()
	if !traced || err != nil {
		return res, ft, err
	}
	first, last := t1, t1
	if len(marks) > 0 {
		first, last = marks[0], marks[len(marks)-1]
	}
	if op >= 0 {
		id := r.tr.add("floc.run", op, parent, t0, t1)
		r.tr.add("floc.seed", op, id, t0, first)
		r.tr.add("floc.iterate", op, id, first, last)
		r.tr.add("floc.tail", op, id, last, t1)
	}
	ft.seed, ft.iterate, ft.tail = float64(first-t0)/1e9, float64(last-first)/1e9, float64(t1-last)/1e9
	if d := res.Duration.Seconds(); d > 0 {
		r.residuals = append(r.residuals, math.Abs(ft.seed+ft.iterate+ft.tail-d)/d)
	}
	return res, ft, nil
}

// fingerprint hashes everything the determinism guarantee covers:
// objective, counters, residue trace and every cluster's membership
// and residue, at full precision.
func fingerprint(res *floc.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "avg=%.17g iter=%d actions=%d gains=%d\n",
		res.AvgResidue, res.Iterations, res.ActionsApplied, res.GainEvaluations)
	for _, v := range res.ResidueTrace {
		fmt.Fprintf(h, "trace %.17g\n", v)
	}
	for c, cl := range res.Clusters {
		fmt.Fprintf(h, "cluster %d rows=%v cols=%v residue=%.17g\n", c, cl.Rows(), cl.Cols(), cl.Residue())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// residueTolerance is the relative agreement a reported residue must
// have with a from-scratch recomputation. Bit equality does not hold:
// the engine keeps running sums.
const residueTolerance = 1e-6

func checkResidues(r *run, label string, m *matrix.Matrix, clusters []*cluster.Cluster) {
	for c, cl := range clusters {
		got := cl.Residue()
		want := cluster.ResidueOf(m, cl.Rows(), cl.Cols())
		if !residueClose(got, want) {
			r.fail("%s: cluster %d residue %.17g, from scratch %.17g", label, c, got, want)
		}
	}
}

func residueClose(got, want float64) bool {
	if math.IsNaN(got) || math.IsNaN(want) {
		return math.IsNaN(got) && math.IsNaN(want)
	}
	return math.Abs(got-want) <= residueTolerance*math.Max(math.Abs(want), 1e-12)
}

// noteQuality records the paper's recall and precision of the
// significant clusters against the embedded truth.
func noteQuality(r *run, in *libInput, res *floc.Result, delta float64) {
	sig := floc.Significant(res.Clusters, delta)
	rec, prec := eval.RecallPrecision(in.m, in.truth, eval.Specs(sig))
	r.note("eval.recall", rec)
	if !math.IsNaN(prec) { // no significant cluster: precision is undefined
		r.note("eval.precision", prec)
	}
}
