package bench

import (
	"fmt"
	"time"

	"flint/internal/core"
	"flint/internal/rf"
	"flint/internal/treeexec"
)

// InterpBackend measures the interpreted treeexec engines with host
// wall-clock time. The CAGS implementations run on the grouped
// (probability-preordered) node layout, which is the memory-layout half
// of Chen et al.'s optimization — the half that applies to native trees.
type InterpBackend struct {
	// MinDuration is the minimum measured wall time per implementation;
	// passes over the test set repeat until it is reached. Default 10ms.
	MinDuration time.Duration
	// WithExtensions adds the softfloat baseline, the precoded
	// extension and the forest-arena (flat-flint / flat-batch)
	// measurements to the paper's four core implementations.
	WithExtensions bool
}

// Name implements Backend.
func (b *InterpBackend) Name() string { return "interp" }

func (b *InterpBackend) minDuration() time.Duration {
	if b.MinDuration <= 0 {
		return 10 * time.Millisecond
	}
	return b.MinDuration
}

// timeInference measures ns per inference for fn, which must run one full
// pass over the test set and return the number of inferences performed.
func (b *InterpBackend) timeInference(fn func() int) float64 {
	// Warm-up pass: faults, caches, branch predictors.
	n := fn()
	if n == 0 {
		return 0
	}
	var total int
	start := time.Now()
	elapsed := time.Duration(0)
	for elapsed < b.minDuration() {
		total += fn()
		elapsed = time.Since(start)
	}
	return float64(elapsed.Nanoseconds()) / float64(total)
}

// Measure implements Backend.
func (b *InterpBackend) Measure(w *Workload) (map[Impl]float64, error) {
	naive, err := treeexec.NewFloat32(w.Forest)
	if err != nil {
		return nil, err
	}
	cagsEng, err := treeexec.NewFloat32(w.CAGSForest)
	if err != nil {
		return nil, err
	}
	flint, err := treeexec.NewFLInt(w.Forest)
	if err != nil {
		return nil, err
	}
	cagsFlint, err := treeexec.NewFLInt(w.CAGSForest)
	if err != nil {
		return nil, err
	}

	rows := w.Test.Features
	if len(rows) == 0 {
		return nil, fmt.Errorf("bench: empty test set")
	}
	// Pre-encode once: the reinterpretation is a zero-cost pointer cast
	// in the paper's C realization (Listing 2), so its cost is excluded
	// here too.
	encoded := make([][]int32, len(rows))
	for i, x := range rows {
		encoded[i] = core.EncodeFeatures32(nil, x)
	}

	var sink int32
	out := map[Impl]float64{
		ImplNaive: b.timeInference(func() int {
			for _, x := range rows {
				sink += naive.Predict(x)
			}
			return len(rows)
		}),
		ImplCAGS: b.timeInference(func() int {
			for _, x := range rows {
				sink += cagsEng.Predict(x)
			}
			return len(rows)
		}),
		ImplFLInt: b.timeInference(func() int {
			for _, xi := range encoded {
				sink += flint.PredictEncoded(xi)
			}
			return len(rows)
		}),
		ImplCAGSFLInt: b.timeInference(func() int {
			for _, xi := range encoded {
				sink += cagsFlint.PredictEncoded(xi)
			}
			return len(rows)
		}),
	}

	if b.WithExtensions {
		soft, err := treeexec.NewSoftFloat(w.Forest)
		if err != nil {
			return nil, err
		}
		pre, err := treeexec.NewPrecoded(w.CAGSForest)
		if err != nil {
			return nil, err
		}
		keys := make([][]uint32, len(rows))
		for i, x := range rows {
			keys[i] = core.PrecodeFeatures32(nil, x)
		}
		out[ImplSoftFloat] = b.timeInference(func() int {
			for _, xi := range encoded {
				sink += soft.PredictEncoded(xi)
			}
			return len(rows)
		})
		out[ImplPrecoded] = b.timeInference(func() int {
			for _, k := range keys {
				sink += pre.PredictPrecoded(k)
			}
			return len(rows)
		})
	}
	if b.WithExtensions {
		// The forest-arena engine: single-row traversal over the
		// contiguous arena (the layout effect alone), and the blocked
		// batch kernel. One worker and the serial block path: this
		// isolates the kernel (arena layout + blocked row loop, encode
		// included) from worker-pool dispatch, which belongs to
		// throughput benchmarks, not to a per-inference cost sweep.
		flat, err := treeexec.NewFlat(w.CAGSForest, treeexec.FlatFLInt)
		if err != nil {
			return nil, err
		}
		out[ImplFlat] = b.timeInference(func() int {
			for _, xi := range encoded {
				sink += flat.PredictEncoded(xi)
			}
			return len(rows)
		})
		batchOut := make([]int32, len(rows))
		out[ImplFlatBatch] = b.timeInference(func() int {
			batchOut = flat.PredictBatch(rows, batchOut, 1, 0)
			sink += batchOut[0]
			return len(rows)
		})
		// The quantized compact arena through the same serial blocked
		// path, on its one walk: the layout/footprint effect against
		// ImplFlatBatch. Forests beyond the compact limits fall back
		// inside NewFlat and are skipped here, not failed.
		compact, err := treeexec.NewFlat(w.CAGSForest, treeexec.FlatCompact)
		if err != nil {
			return nil, err
		}
		if compact.Variant() == treeexec.FlatCompact {
			out[ImplFlatCompact] = b.timeInference(func() int {
				batchOut = compact.PredictBatch(rows, batchOut, 1, 0)
				sink += batchOut[0]
				return len(rows)
			})
		}
	}

	if sink == -1 {
		return nil, fmt.Errorf("bench: impossible sink value") // keep sink alive
	}
	var _ rf.Predictor = naive
	return out, nil
}
