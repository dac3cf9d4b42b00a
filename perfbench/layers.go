package main

// layerMetric is one per-layer figure of the traced run. Timings are
// host-normalized like the end-to-end ones; counts and ratios are not.
// A layer a workload does not pass through reports 0: the workload
// spent no time and did no work there (NOTES.md lists which workload
// drives which layer).
type layerMetric struct {
	name, unit string
	timing     bool
}

// layerMetrics lists every per-layer metric in BENCHMARK.json order.
var layerMetrics = []layerMetric{
	{"floc.seed_s", "s", true},
	{"floc.iterate_s", "s", true},
	{"floc.tail_s", "s", true},
	{"floc.iterations", "count", false},
	{"floc.gain_evals", "count", false},
	{"floc.actions", "count", false},
	{"floc.evals_per_s", "1/s", false},
	{"floc.incr_over_exact", "ratio", false},
	{"floc.scaling", "ratio", false},
	{"floc.checkpoint_s", "s", true},
	{"floc.checkpoint_bytes", "bytes", false},
	{"matrix.decode_s.csv", "s", true},
	{"matrix.decode_s.json", "s", true},
	{"matrix.decode_s.dcmx", "s", true},
	{"matrix.derived_s", "s", true},
	{"matrix.bytes.json", "bytes", false},
	{"matrix.bytes.dcmx", "bytes", false},
	{"service.submit_s", "s", true},
	{"service.queue_wait_s", "s", true},
	{"service.run_s", "s", true},
	{"service.result_s", "s", true},
	{"service.poll_useful_ratio", "ratio", false},
	{"coord.submit_lag_s", "s", true},
	{"coord.replica_puts", "count", false},
	{"coord.checkpoint_pulls", "count", false},
	{"stream.patch_s", "s", true},
	{"stream.recluster_s", "s", true},
	{"stream.warm_iter_ratio", "ratio", false},
	{"eval.recall", "ratio", false},
	{"eval.precision", "ratio", false},
	{"go.alloc_mb", "MB", false},
	{"go.gc_cycles", "count", false},
	{"self.bench_s", "s", true},
	{"self.floc_s", "s", true},
	{"self.service_s", "s", true},
	{"self.stream_s", "s", true},
	{"ref.s", "s", false},
	{"ref.spread", "ratio", false},
	{"trace.overhead", "ratio", false},
	{"trace.residual_max", "ratio", false},
}

// breakdownTolerance is how far a FLOC call's or serve cycle's parts
// may sum from its total before the traced run fails.
const breakdownTolerance = 0.05

// selfLayers are the span layers whose self time is reported, per
// traced operation.
var selfLayers = []string{"bench", "floc", "service", "stream"}

func (r *run) layerMetrics(res *result) {
	r.layer["ref.s"] = []float64{r.loopWin.ref()}
	r.layer["ref.spread"] = []float64{spread(r.loopWin.refs)}
	if len(r.tracedPasses) > 0 && len(r.untracedPasses) > 0 {
		r.layer["trace.overhead"] = []float64{median(r.tracedPasses) / median(r.untracedPasses)}
	}
	r.layer["trace.residual_max"] = []float64{maxOf(r.residuals)}
	if worst := maxOf(r.residuals); worst > breakdownTolerance {
		r.fail("breakdown residual %.4f exceeds %.2f: the layers do not account for the time", worst, breakdownTolerance)
	}
	ops := map[int]bool{}
	for _, s := range r.tr.spans {
		if s.Parent < 0 && s.layer() == "bench" {
			ops[s.Op] = true
		}
	}
	self := layerSelf(r.tr.spans)
	for _, l := range selfLayers {
		if len(ops) > 0 {
			r.layer["self."+l+"_s"] = []float64{self[l] / float64(len(ops))}
		}
	}
	for _, lm := range layerMetrics {
		v := 0.0
		if xs := r.layer[lm.name]; len(xs) > 0 {
			v = median(xs)
			if lm.timing {
				v = r.norm(v)
			}
		}
		res.Metrics[lm.name] = metric{v, lm.unit}
	}
}
