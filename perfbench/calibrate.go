package main

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"deltacluster/internal/floc"
	"deltacluster/internal/stats"
)

// calibrateMain is the evidence behind the host normalization. It runs
// one fixed FLOC job (grid-phase2's first, k=20 exact on the seed-1
// matrix) n times, each after a reference-kernel sample, and prints the
// job's spread raw, with each sample's stolen share taken out, and
// normalized as the benchmark does, with the kernel's correlation to
// the job. Per sample the kernel is noisier than a run's median;
// NOTES.md has the run-level evidence.
func calibrateMain(args []string, w io.Writer) error {
	n := 30
	if len(args) > 0 {
		v, err := strconv.Atoi(args[0])
		if err != nil || v < 4 {
			return fmt.Errorf("calibrate: want a sample count ≥ 4, got %q", args[0])
		}
		n = v
	}
	inputs, jobs, err := buildGrid(1)
	if err != nil {
		return err
	}
	m := inputs[0].gen
	m.EnsureDerived()
	r := newRun(options{})
	var raw, unstolen, perKernel []float64
	for i := 0; i < n; i++ {
		r.beforeCall()
		t, c, st := time.Now(), cpuSeconds(), stealSeconds()
		if _, err := floc.Run(m, jobs[0].cfg); err != nil {
			return err
		}
		wall, cpu, steal := time.Since(t).Seconds(), cpuSeconds()-c, stealSeconds()-st
		raw = append(raw, wall)
		unstolen = append(unstolen, normalize(wall, steal/(steal+cpu), 1, 1))
		perKernel = append(perKernel, normalize(wall, steal/(steal+cpu), refZero, r.refCPU[i]))
	}
	corr := stats.PearsonR(raw, r.refCPU)
	if math.IsNaN(corr) {
		corr = 0
	}
	fmt.Fprintf(w, "job %s, %d samples: median %.4fs\n", jobs[0].label, n, median(raw))
	fmt.Fprintf(w, "  spread raw %.4f, stolen share taken out %.4f, normalized %.4f\n",
		spread(raw), spread(unstolen), spread(perKernel))
	fmt.Fprintf(w, "  kernel median %.5fs CPU, spread %.4f, correlation with the job r=%+.3f\n",
		median(r.refCPU), spread(r.refCPU), corr)
	return nil
}
