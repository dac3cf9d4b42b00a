package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"deltacluster/internal/cluster"
	"deltacluster/internal/coord"
	"deltacluster/internal/floc"
	"deltacluster/internal/matrix"
	"deltacluster/internal/service"
	"deltacluster/internal/synth"
)

// serve-lineage drives deltaserve as a user does: one closed-loop
// client against an in-process coordinator over two backends, all on
// real localhost HTTP. Each cycle submits a matrix, polls and fetches
// the result, appends rows with PATCH, reclusters, and polls and
// fetches the warm child's result. A round is four cycles on one
// matrix, covering JSON and DCMX submissions against JSON and DRES
// result downloads; a pass is one round per matrix. FLOC is held to one
// iteration, so transport, queueing, proxying, replication and the
// stream write path are a large share of a cycle, and the writes
// (PATCH, recluster) sit beside the reads, so a change that speeds one
// at the other's cost shows.

const (
	serveRows, serveCols = 1000, 50
	serveAppend          = 50
	// serveLineages is how many generated matrices a pass cycles
	// through; the FLOC work of one matrix varies with its data, and
	// several average it out.
	serveLineages = 4
	// serveWarmupSeed generates set-up's warm-up lineage.
	serveWarmupSeed    = -1
	serveClusters      = 50
	serveK             = 10
	serveDelta         = 15
	serveMaxIterations = 1
	// servePoll is the client's poll cadence; it bounds how late the
	// client sees a finished job.
	servePoll = 2 * time.Millisecond
	// serveTTL keeps finished jobs readable long enough for the client
	// (which fetches within milliseconds) while bounding what the
	// stores retain, so memory does not grow with the cycle count.
	serveTTL = time.Second
	// serveReplicas bounds each backend's peer-replica table. The
	// default (1024) keeps replicas of long-finished jobs, so memory
	// grew with the number of cycles a run made; the jobs alive within
	// one TTL need far fewer.
	serveReplicas = 64
	// serveTimeout bounds one cycle step; past it the cycle fails.
	serveTimeout = 60 * time.Second
)

type serveLineage struct {
	lineages []*lineage
	// warmup is the lineage set-up's warm-up cycles run. It does not
	// depend on the seed, so set-up does the same work in every run.
	warmup *lineage
	dep    *deployment
	client *http.Client
}

// lineage is one submission and its appended delta, encoded every way
// the cycle sends them, with the results the library gives for the
// root and for the warm child.
type lineage struct {
	seed       int64
	root       *matrix.Matrix
	appendRows [][]float64
	truth      []cluster.Spec

	jsonSubmit, binSubmit, patchBody []byte
	wantRoot, wantChild              *service.ResultView
}

// deployment is a coordinator over two backends.
type deployment struct {
	nodes   []*service.Server
	nodeTS  []*httptest.Server
	coord   *coord.Coordinator
	coordTS *httptest.Server
}

func startDeployment() (*deployment, error) {
	d := &deployment{}
	var urls []string
	for i := 0; i < 2; i++ {
		svc := service.New(service.Options{
			Workers: 1, CheckpointEvery: 1, Seed: int64(i + 1),
			TTL: serveTTL, MaxReplicaEntries: serveReplicas,
		})
		ts := httptest.NewServer(svc.Handler())
		d.nodes = append(d.nodes, svc)
		d.nodeTS = append(d.nodeTS, ts)
		urls = append(urls, ts.URL)
	}
	c, err := coord.New(coord.Options{Backends: urls, Replication: 1, TTL: serveTTL})
	if err != nil {
		d.stop()
		return nil, err
	}
	d.coord = c
	d.coordTS = httptest.NewServer(c.Handler())
	return d, nil
}

func (d *deployment) url() string { return d.coordTS.URL }

// stop shuts the coordinator, then the backends, and waits for each.
func (d *deployment) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if d.coordTS != nil {
		d.coordTS.Close()
		_ = d.coord.Shutdown(ctx) // a stop that fails leaves nothing to retry
	}
	for i, ts := range d.nodeTS {
		ts.Close()
		_ = d.nodes[i].Shutdown(ctx)
	}
}

func (s *serveLineage) prepare(r *run) error {
	s.client = &http.Client{Timeout: serveTimeout}
	for i := 0; i <= serveLineages; i++ {
		seed := r.opts.seed*serveLineages + int64(i)
		if i == serveLineages {
			seed = serveWarmupSeed
		}
		l, err := newLineage(seed)
		if err != nil {
			return err
		}
		if err := l.replay(r); err != nil {
			return err
		}
		if i == serveLineages {
			s.warmup = l
		} else {
			s.lineages = append(s.lineages, l)
		}
	}
	return nil
}

// newLineage generates one matrix and splits it: the first serveRows
// rows are the submission, the rest the appended delta, so appended
// rows extend the embedded clusters the way new objects would.
func newLineage(seed int64) (*lineage, error) {
	rows := serveRows + serveAppend
	ds, err := synth.Generate(synth.Config{
		Rows: rows, Cols: serveCols, NumClusters: serveClusters,
		VolumeMean:    (0.04 * float64(serveRows)) * (0.1 * float64(serveCols)),
		RowColRatio:   (0.04 * float64(serveRows)) / (0.1 * float64(serveCols)),
		TargetResidue: 5,
	}, seed)
	if err != nil {
		return nil, err
	}
	all := make([][]float64, rows)
	for i := range all {
		all[i] = ds.Matrix.Row(i)
	}
	l := &lineage{seed: seed, appendRows: all[serveRows:]}
	if l.root, err = matrix.NewFromRows(all[:serveRows]); err != nil {
		return nil, err
	}
	for _, sp := range ds.Embedded {
		var keep []int
		for _, i := range sp.Rows {
			if i < serveRows {
				keep = append(keep, i)
			}
		}
		if len(keep) > 0 {
			l.truth = append(l.truth, cluster.Spec{Rows: keep, Cols: sp.Cols})
		}
	}

	params := &service.FLOCParams{
		K: serveK, Delta: serveDelta, Seed: seed, MaxIterations: serveMaxIterations,
		Seeding: "random", Workers: 1, Attempts: 1,
	}
	l.jsonSubmit, err = json.Marshal(service.SubmitRequest{
		Algorithm: service.AlgoFLOC,
		Matrix:    service.MatrixPayload{Rows: service.RowsJSON(all[:serveRows])},
		FLOC:      params,
	})
	if err != nil {
		return nil, err
	}
	l.binSubmit, err = service.EncodeBinarySubmit(&service.SubmitRequest{Algorithm: service.AlgoFLOC, FLOC: params}, l.root)
	if err != nil {
		return nil, err
	}
	patch := service.MatrixPatchRequest{}
	for _, row := range l.appendRows {
		pr := make([]*float64, len(row))
		for j := range row {
			pr[j] = &row[j]
		}
		patch.AppendRows = append(patch.AppendRows, pr)
	}
	if l.patchBody, err = json.Marshal(patch); err != nil {
		return nil, err
	}
	return l, nil
}

// serveConfig is the floc.Config the service builds from the
// submission's parameters.
func serveConfig(seed int64) floc.Config {
	cfg := floc.DefaultConfig(serveK, serveDelta)
	cfg.Seed = seed
	cfg.SeedMode = floc.SeedRandom
	cfg.MaxIterations = serveMaxIterations
	cfg.Workers = 1
	return cfg
}

// replay runs the lineage through the library: the root job, then the
// warm start from its final checkpoint on the patched matrix. Their
// results are what every served cycle must return bit for bit. A root
// that never improves has no checkpoint and its recluster is refused
// with 409 no_checkpoint, so set-up insists on at least one improving
// iteration.
func (l *lineage) replay(r *run) error {
	cfg := serveConfig(l.seed)
	opts := floc.RunOptions{KeepFinalCheckpoint: true}
	if r.opts.trace {
		opts.CheckpointEvery = 1
		opts.OnCheckpoint = func(ck *floc.Checkpoint) error {
			t := time.Now()
			b, err := floc.EncodeCheckpoint(ck)
			r.note("floc.checkpoint_s", time.Since(t).Seconds())
			r.note("floc.checkpoint_bytes", float64(len(b)))
			return err
		}
	}
	r.beforeCall()
	root, ft, err := r.flocCall(l.root, cfg, opts, -1, -1)
	if err != nil {
		return fmt.Errorf("library root run: %w", err)
	}
	if root.FinalCheckpoint == nil {
		return fmt.Errorf("library root run made no improving iteration; its lineage cannot be reclustered (409 no_checkpoint)")
	}
	l.wantRoot = resultView(root, cfg.Seed, false)
	checkResidues(r, "library root", l.root, root.Clusters)

	grown := l.root.Clone()
	if err := grown.AppendRows(l.appendRows); err != nil {
		return err
	}
	ccfg := cfg
	ccfg.Seed = root.FinalCheckpoint.Seed
	child, err := floc.RunWithOptions(context.Background(), grown, ccfg, floc.RunOptions{
		WarmStart:           &floc.WarmStart{Checkpoint: root.FinalCheckpoint, ParentRows: serveRows},
		KeepFinalCheckpoint: true,
	})
	if err != nil {
		return fmt.Errorf("library warm start: %w", err)
	}
	l.wantChild = resultView(child, ccfg.Seed, true)
	checkResidues(r, "library warm child", grown, child.Clusters)

	if r.opts.trace {
		ft.note(r)
		r.note("floc.iterations", float64(root.Iterations))
		r.note("floc.gain_evals", float64(root.GainEvaluations))
		r.note("floc.actions", float64(root.ActionsApplied))
		if p2 := ft.iterate + ft.tail; p2 > 0 {
			r.note("floc.evals_per_s", float64(root.GainEvaluations)/p2)
		}
		noteQuality(r, &libInput{m: l.root, truth: l.truth}, root, serveDelta)
		cold, err := floc.Run(grown, cfg)
		if err != nil {
			return err
		}
		if cold.Iterations > 0 {
			r.note("stream.warm_iter_ratio", float64(child.Iterations)/float64(cold.Iterations))
		}
		two := cfg
		two.Workers = 2
		t := time.Now()
		if _, err := floc.Run(l.root, two); err != nil {
			return err
		}
		r.note("floc.scaling", ft.call/time.Since(t).Seconds())
	}
	return nil
}

// resultView renders a library result the way the service reports it.
func resultView(res *floc.Result, seed int64, warm bool) *service.ResultView {
	v := &service.ResultView{
		Algorithm:  service.AlgoFLOC,
		AvgResidue: res.AvgResidue,
		Iterations: res.Iterations,
		BestSeed:   seed,
		Attempts:   1,
		WarmStart:  warm,
	}
	for _, c := range res.Clusters {
		sp := c.Spec()
		v.Clusters = append(v.Clusters, service.ClusterView{Rows: sp.Rows, Cols: sp.Cols, Volume: c.Volume(), Residue: c.Residue()})
	}
	return v
}

// sameResult compares a served result with the library's, bit for bit
// on every float; the run's duration is the only field left out.
func sameResult(got, want *service.ResultView) error {
	g, w := *got, *want
	g.DurationMillis, w.DurationMillis = 0, 0
	if math.Float64bits(g.AvgResidue) != math.Float64bits(w.AvgResidue) {
		return fmt.Errorf("avg residue %.17g, library %.17g", g.AvgResidue, w.AvgResidue)
	}
	gb, _ := json.Marshal(g) // ResultView holds only finite floats, ints and strings
	wb, _ := json.Marshal(w)
	if !bytes.Equal(gb, wb) {
		return fmt.Errorf("result differs from the library run (iterations %d vs %d, warm %v vs %v)",
			g.Iterations, w.Iterations, g.WarmStart, w.WarmStart)
	}
	return nil
}

// setupOnce times a deployment's start until the coordinator is ready,
// plus one warm-up cycle per encoding. The last repeat's deployment
// stays up for the measurement.
func (s *serveLineage) setupOnce(r *run) error {
	if s.dep != nil {
		s.dep.stop()
		s.dep = nil
		s.client.CloseIdleConnections()
		r.beforeCall()
	}
	if r.opts.trace && len(r.setup) == 0 {
		if err := s.noteMatrix(r); err != nil {
			return err
		}
		r.beforeCall()
	}
	t := time.Now()
	dep, err := startDeployment()
	if err != nil {
		return err
	}
	s.dep = dep
	if err := s.waitReady(); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if _, err := s.cycle(r, -1, s.warmup, i == 1, i == 1); err != nil {
			return fmt.Errorf("warm-up cycle: %w", err)
		}
	}
	r.setup = append(r.setup, time.Since(t).Seconds())
	return nil
}

// noteMatrix records the matrix layer's decode figures on the served
// matrix.
func (s *serveLineage) noteMatrix(r *run) error {
	var buf bytes.Buffer
	root := s.lineages[0].root
	if err := matrix.Write(&buf, root, matrix.IOOptions{}); err != nil {
		return err
	}
	t := time.Now()
	m, err := matrix.Read(&buf, matrix.IOOptions{})
	if err != nil {
		return err
	}
	r.note("matrix.decode_s.csv", time.Since(t).Seconds())
	t = time.Now()
	m.EnsureDerived()
	r.note("matrix.derived_s", time.Since(t).Seconds())
	return noteDecodes(r, root)
}

func (s *serveLineage) waitReady() error {
	deadline := time.Now().Add(serveTimeout)
	for time.Now().Before(deadline) {
		st, _, err := s.do(http.MethodGet, "/readyz", "", "", nil)
		if err == nil && st == http.StatusOK {
			return nil
		}
		time.Sleep(servePoll)
	}
	return fmt.Errorf("coordinator not ready after %v", serveTimeout)
}

// pass runs one round per lineage. A round is one operation: four
// cycles on the lineage's matrix, alternating JSON and DCMX submissions
// and JSON and DRES downloads. Single cycles are bimodal by encoding, so
// their median would jump between the modes from run to run; a round's
// time is not.
func (s *serveLineage) pass(r *run, n int) error {
	for i, l := range s.lineages {
		r.beginOp()
		op := r.attempted
		var raw float64
		for c := 0; c < 4; c++ {
			binIn, binOut := c%2 == 1, c/2 == 1
			var before, after coord.MetricsView
			if r.passTraced {
				s.getJSON("/metrics", &before)
			}
			r.beforeCall()
			t, err := s.cycle(r, op, l, binIn, binOut)
			raw += t
			if err != nil {
				r.fail("round %d (lineage seed %d, binary in %v, binary out %v): %v", op, l.seed, binIn, binOut, err)
			}
			if r.passTraced {
				s.getJSON("/metrics", &after)
				r.note("coord.replica_puts", float64(after.Replication.ReplicaPuts-before.Replication.ReplicaPuts))
				r.note("coord.checkpoint_pulls", float64(after.Replication.CheckpointPulls-before.Replication.CheckpointPulls))
			}
		}
		r.endOp(i, raw)
	}
	return nil
}

// jobTimes is what one job's final poll and fetch tell the client.
type jobTimes struct {
	view     service.JobView
	sent     int64 // request that created the job left the client
	accepted int64 // its 2xx answer arrived
	fetched  int64 // the result arrived
}

// cycle runs one lineage cycle and returns its raw duration. op < 0
// marks a warm-up cycle, which is never traced.
func (s *serveLineage) cycle(r *run, op int, l *lineage, binIn, binOut bool) (float64, error) {
	start := time.Now()
	t0 := now()

	var body []byte
	ctype := "application/json"
	if binIn {
		body, ctype = l.binSubmit, service.ContentTypeBinaryMatrix
	} else {
		body = l.jsonSubmit
	}
	rootT := jobTimes{sent: now()}
	st, resp, err := s.do(http.MethodPost, "/v1/jobs", ctype, "", body)
	rootT.accepted = now()
	if err != nil || st != http.StatusAccepted {
		return time.Since(start).Seconds(), httpErr("submit", st, resp, err)
	}
	var sub coord.SubmitResponse
	if err := json.Unmarshal(resp, &sub); err != nil {
		return time.Since(start).Seconds(), err
	}
	id := sub.Job.ID
	got, err := s.await(r, id, binOut, &rootT)
	if err != nil {
		return time.Since(start).Seconds(), err
	}

	patchSent := now()
	st, resp, err = s.do(http.MethodPatch, "/v1/jobs/"+id+"/matrix", "application/json", "", l.patchBody)
	patchDone := now()
	if err != nil || st != http.StatusOK {
		return time.Since(start).Seconds(), httpErr("patch", st, resp, err)
	}
	childT := jobTimes{sent: now()}
	st, resp, err = s.do(http.MethodPost, "/v1/jobs/"+id+":recluster", "", "", nil)
	childT.accepted = now()
	if err != nil || st != http.StatusAccepted {
		return time.Since(start).Seconds(), httpErr("recluster", st, resp, err)
	}
	var rr service.ReclusterResponse
	if err := json.Unmarshal(resp, &rr); err != nil {
		return time.Since(start).Seconds(), err
	}
	child, err := s.await(r, rr.Job.ID, binOut, &childT)
	raw := time.Since(start).Seconds()
	if err != nil {
		return raw, err
	}
	t1 := childT.fetched

	// Output checks, outside the timed cycle.
	if err := sameResult(got, l.wantRoot); err != nil {
		r.fail("root job: %v", err)
	}
	if err := sameResult(child, l.wantChild); err != nil {
		r.fail("recluster child: %v", err)
	}
	if op < 0 || !r.passTraced {
		return raw, nil
	}
	root := r.tr.add("bench.cycle", op, -1, t0, t1)
	parts := s.traceJob(r, op, root, rootT, true) + float64(t1-patchSent)
	recl := r.tr.add("stream.recluster", op, root, patchSent, t1)
	r.tr.add("stream.patch", op, recl, patchSent, patchDone)
	s.traceJob(r, op, recl, childT, false)
	r.note("stream.patch_s", float64(patchDone-patchSent)/1e9)
	r.note("stream.recluster_s", float64(childT.fetched-patchSent)/1e9)
	cyc := float64(t1 - t0)
	r.residuals = append(r.residuals, math.Abs(parts-cyc)/cyc)
	return raw, nil
}

// traceJob records one job's submit, queue, run and result spans from
// the backend's stamps and returns their summed length in ns; a stamp
// outside the client's own interval makes a span negative, which the
// breakdown check then sees as a residual. Submit runs up to the
// backend's Created stamp, so time the coordinator spends replicating
// after the backend accepted the job overlaps the queue and run spans
// instead of being counted twice.
func (s *serveLineage) traceJob(r *run, op, parent int, jt jobTimes, front bool) float64 {
	v := jt.view
	created, started, finished := at(v.Created), at(*v.Started), at(*v.Finished)
	r.tr.add("service.submit", op, parent, jt.sent, created)
	r.tr.add("service.queue", op, parent, created, started)
	r.tr.add("service.run", op, parent, started, finished)
	r.tr.add("service.result", op, parent, finished, jt.fetched)
	if front {
		r.note("service.submit_s", float64(created-jt.sent)/1e9)
		r.note("coord.submit_lag_s", float64(jt.accepted-created)/1e9)
	}
	r.note("service.queue_wait_s", float64(started-created)/1e9)
	r.note("service.run_s", float64(finished-started)/1e9)
	r.note("service.result_s", float64(jt.fetched-finished)/1e9)
	sum := 0.0
	for _, d := range []int64{created - jt.sent, started - created, finished - started, jt.fetched - finished} {
		sum += math.Abs(float64(d))
	}
	return sum
}

// await polls a job until it is terminal, then fetches and decodes its
// result in the requested encoding; jt.fetched marks the decoded result.
func (s *serveLineage) await(r *run, id string, binOut bool, jt *jobTimes) (*service.ResultView, error) {
	deadline := time.Now().Add(serveTimeout)
	polls, useful := 0, 0
	for {
		var v service.JobView
		st, resp, err := s.do(http.MethodGet, "/v1/jobs/"+id, "", "", nil)
		polls++
		if err != nil || st != http.StatusOK {
			return nil, httpErr("poll", st, resp, err)
		}
		if err := json.Unmarshal(resp, &v); err != nil {
			return nil, err
		}
		if v.State == service.StateDone {
			useful++
			jt.view = v
			break
		}
		if v.State == service.StateFailed || v.State == service.StateCancelled {
			return nil, fmt.Errorf("job %s ended %s: %s", id, v.State, v.Error)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s still %s after %v", id, v.State, serveTimeout)
		}
		time.Sleep(servePoll)
	}
	if r.passTraced {
		r.note("service.poll_useful_ratio", float64(useful)/float64(polls))
	}
	accept := ""
	if binOut {
		accept = service.ContentTypeBinaryMatrix
	}
	st, resp, err := s.do(http.MethodGet, "/v1/jobs/"+id+"/result", "", accept, nil)
	if err != nil || st != http.StatusOK {
		return nil, httpErr("result", st, resp, err)
	}
	if v := jt.view; v.Started == nil || v.Finished == nil {
		return nil, fmt.Errorf("job %s is done without start and finish stamps", id)
	}
	rv := &service.ResultView{}
	if binOut {
		rv, err = service.DecodeBinaryResult(resp)
	} else {
		err = json.Unmarshal(resp, rv)
	}
	jt.fetched = now()
	return rv, err
}

func (s *serveLineage) do(method, path, ctype, accept string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.dep.url()+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// getJSON reads a JSON document for the traced run's counters; a
// failed read leaves v zero and shows as a zero delta.
func (s *serveLineage) getJSON(path string, v any) {
	if st, data, err := s.do(http.MethodGet, path, "", "", nil); err == nil && st == http.StatusOK {
		_ = json.Unmarshal(data, v) // see above
	}
}

func httpErr(step string, status int, body []byte, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", step, err)
	}
	return fmt.Errorf("%s: HTTP %d: %s", step, status, bytes.TrimSpace(body))
}

func (s *serveLineage) finish(r *run) error { return nil }

func (s *serveLineage) close() {
	if s.dep != nil {
		s.dep.stop()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}
