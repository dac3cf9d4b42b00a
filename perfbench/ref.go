package main

import "math"

// The reference kernel is fixed, stdlib-only work that runs before
// every timed operation. Its CPU time, median over the run, is reported
// as ref.s beside the program's figures: when ref.s moves between two
// runs, the host ran slower or faster, not the program. The work never
// changes, so a change to the program cannot move it.
//
// It is the cluster kernel's inner loop — row and column bases and
// absolute residues over a block that stays in L1, like FLOC's
// evaluation pack. Of the parts tried (this loop, sorting a 512 KiB
// slice, random reads over 32 MiB, NOTES.md), its time correlated best
// with a fixed FLOC job's.

const (
	refBlockRows, refBlockCols = 64, 32
	refReps                    = 2500
)

type refKernel struct {
	block []float64
	sink  float64
}

func newRefKernel() *refKernel {
	k := &refKernel{block: make([]float64, refBlockRows*refBlockCols)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range k.block {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.block[i] = 600 * float64(x>>11) / (1 << 53)
	}
	return k
}

// run does the kernel's fixed work once.
func (k *refKernel) run() {
	var rowMean [refBlockRows]float64
	var colMean [refBlockCols]float64
	acc := 0.0
	for rep := 0; rep < refReps; rep++ {
		all := 0.0
		for i := 0; i < refBlockRows; i++ {
			s := 0.0
			for _, v := range k.block[i*refBlockCols : (i+1)*refBlockCols] {
				s += v
			}
			rowMean[i] = s / refBlockCols
			all += s
		}
		for j := 0; j < refBlockCols; j++ {
			s := 0.0
			for i := 0; i < refBlockRows; i++ {
				s += k.block[i*refBlockCols+j]
			}
			colMean[j] = s / refBlockRows
		}
		base := all / (refBlockRows * refBlockCols)
		for i := 0; i < refBlockRows; i++ {
			row := k.block[i*refBlockCols : (i+1)*refBlockCols]
			for j, v := range row {
				acc += math.Abs(v - rowMean[i] - colMean[j] + base)
			}
		}
		// Perturb one entry so no repetition can be folded away.
		k.block[rep%len(k.block)] += 1e-9
	}
	k.sink += acc
}
