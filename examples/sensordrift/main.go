// Sensordrift: an end-to-end workload on the gas sensor array drift
// stand-in (128 features, 6 gas classes). Chemical sensors age, so a
// model trained on early acquisition batches degrades on later ones —
// the property that gives the original UCI dataset its name.
//
// The example trains on the first acquisition period, then serves the
// later periods through a drift-armed Batcher: the detector compares
// the live traffic reservoir against the calibration baseline on the
// engine's quantized split ranks, and when the distribution shifts it
// re-times the engine on the drifted traffic automatically — the closed
// loop the package doc's "Drift-aware serving" section describes.
// Accuracy per batch is printed alongside, exposing the model-level
// drift the detector is reacting to, and a final retrain on recent rows
// shows the mitigation the recalibration trigger would hand off to.
package main

import (
	"fmt"
	"log"
	"time"

	"flint"
)

func main() {
	log.SetFlags(0)

	const rows = 6000
	data, err := flint.GenerateDataset("gas", rows, 3)
	if err != nil {
		log.Fatal(err)
	}

	// Rows are generated in acquisition order: train on the first third.
	cut := rows / 3
	train := &flint.Dataset{
		Name:       "gas-early",
		Features:   data.Features[:cut],
		Labels:     data.Labels[:cut],
		NumClasses: data.NumClasses,
	}
	forest, err := flint.Train(train, flint.TrainConfig{NumTrees: 15, MaxDepth: 10, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}

	// CAGS grouping (hot-path node layout) + the compact serving arena.
	grouped, err := flint.Reorder(forest)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := flint.NewFlatEngineVariant(grouped, flint.FlatCompact)
	if err != nil {
		log.Fatal(err)
	}

	// Serve through a Batcher armed with drift detection. The baseline
	// is the training distribution; a huge CheckEvery keeps the
	// background cadence out of the way so the explicit CheckDrift calls
	// below make the example's output deterministic (a deployment would
	// leave the cadence in charge and never call CheckDrift by hand).
	pool := flint.NewBatcherSampled(engine, 0, 0, 512, 1)
	defer pool.Close()
	if err := pool.EnableDriftDetection(flint.DriftConfig{
		CheckEvery: 1 << 40,
		Budget:     25 * time.Millisecond,
		Cooldown:   time.Microsecond,
	}, train.Features); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("trained on batch 1 (%d rows), %d nodes, serving via %s/x%d\n",
		cut, forest.NumNodes(), engine.Kernel(), engine.Interleave())
	fmt.Println("serving later acquisition batches (sensor drift degrades accuracy; PSI distance tracks the shift):")
	const batches = 4
	batchSize := (rows - cut) / batches
	out := make([]int32, batchSize)
	prevTriggers := uint64(0)
	for b := 0; b < batches; b++ {
		lo := cut + b*batchSize
		hi := lo + batchSize
		out = pool.Predict(data.Features[lo:hi], out)
		correct := 0
		for i, y := range out {
			if y == data.Labels[lo+i] {
				correct++
			}
		}
		st := pool.CheckDrift()
		note := ""
		if st.Triggers > prevTriggers {
			note = fmt.Sprintf("  -> drift trigger #%d: re-timed the %s walk (x%d) on sampled traffic (source %q)",
				st.Triggers, engine.Kernel(), engine.Interleave(), engine.CalibrationSource())
			prevTriggers = st.Triggers
		}
		fmt.Printf("  batch %d (rows %5d..%5d): accuracy %.3f, drift distance %.3f%s\n",
			b+2, lo, hi, float64(correct)/float64(hi-lo), st.Distance, note)
	}
	st := pool.DriftStats()
	fmt.Printf("detector: %d checks, %d triggers, %d suppressed, baseline %d rows\n",
		st.Checks, st.Triggers, st.Suppressed, st.BaselineRows)

	// Recalibration re-times the serving mode on the shifted traffic;
	// recovering accuracy needs the other half of the loop — retraining
	// on recent data, the standard drift mitigation.
	recent := &flint.Dataset{
		Name:       "gas-recent",
		Features:   data.Features[rows-cut:],
		Labels:     data.Labels[rows-cut:],
		NumClasses: data.NumClasses,
	}
	retrained, err := flint.Train(recent, flint.TrainConfig{NumTrees: 15, MaxDepth: 10, Seed: 4})
	if err != nil {
		log.Fatal(err)
	}
	rg, err := flint.Reorder(retrained)
	if err != nil {
		log.Fatal(err)
	}
	re, err := flint.NewFLIntEngine(rg)
	if err != nil {
		log.Fatal(err)
	}
	lastLo := cut + (batches-1)*batchSize
	fmt.Printf("after retraining on recent rows: batch %d accuracy %.3f\n",
		batches+1, flint.Accuracy(re, data.Features[lastLo:lastLo+batchSize], data.Labels[lastLo:lastLo+batchSize]))
}
