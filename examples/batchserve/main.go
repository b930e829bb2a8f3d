// Command batchserve demonstrates the serving configuration of the
// forest-arena engine on the registry API: the batch kernel calibrated
// once at startup, one engine per arena layout (16-byte FLInt and, when
// the forest fits it, the quantized 8-byte compact arena) compiled from a
// CAGS-reordered forest, and one ServedModel — engine, Batcher worker
// pool, traffic reservoir and calibration record as a single unit —
// registered in a ModelRegistry for the process lifetime. Predictions
// reuse one output slice, so the steady state classifies request
// batches with zero allocations; concurrent Predict calls interleave
// over the model's shared pool.
//
// It also walks the adaptive serving lifecycle end to end:
//
//	serve → reservoir sample → Recalibrate → SaveCalibration
//	                                              │
//	Swap in a fresh model → LoadCalibration → serve ┘  (warm start)
//
// The model samples served rows into a fixed-capacity reservoir as a
// side effect of Predict (allocation-free; Vitter's Algorithm R over a
// stride-decimated view of the stream). Recalibrate re-times the
// interleave width on that sample — real traffic, not synthetic
// approximations — and installs the winner atomically, so it is safe
// while requests are in flight; call it periodically in a real server.
// SaveCalibration persists gates + width + sample stamped with the
// model's registry name, and the restart is a registry hot swap: the
// replacement model builds off-line, Swap flips the slot's pointer and
// drains the old model without dropping traffic, and LoadCalibration
// warm-starts the replacement from the record (fingerprint- and
// name-checked) instead of re-paying any calibration ladder. See
// cmd/flintserve for the same registry behind a network front-end.
package main

import (
	"bytes"
	"fmt"
	"log"
	"runtime"
	"time"

	"flint"
)

func main() {
	data, err := flint.GenerateDataset("magic", 4000, 1)
	if err != nil {
		log.Fatal(err)
	}
	train, test := data.Split(0.75, 1)
	forest, err := flint.Train(train, flint.TrainConfig{NumTrees: 30, MaxDepth: 20, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	grouped, err := flint.Reorder(forest) // keep CAGS locality inside the arena
	if err != nil {
		log.Fatal(err)
	}

	// Measure, once, the FLInt arena sizes past which the 2/4/8-way
	// interleaved walks win on this host; FLInt engines built afterwards
	// pick their width from the result. (The compact arena's one walk
	// reads no width.)
	gates := flint.Calibrate(0)
	fmt.Printf("calibrated interleave gates (bytes): flint x2>=%d x4>=%d x8>=%d\n",
		gates.Min2, gates.Min4, gates.Min8)

	// Prefer the 8-byte compact arena when the forest fits its
	// encoding; it halves the cache footprint at identical predictions.
	variant := flint.FlatFLInt
	if ok, reason := flint.Compactable(grouped); ok {
		variant = flint.FlatCompact
	} else {
		fmt.Printf("compact arena unavailable: %s\n", reason)
	}
	engine, err := flint.NewFlatEngineVariant(grouped, variant)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s arena: %d nodes, %d bytes (%.1f B/node), %d/%d split-on features, x%d interleave\n",
		engine.Name(), engine.ArenaNodes(), engine.ArenaBytes(),
		float64(engine.ArenaBytes())/float64(engine.ArenaNodes()),
		engine.PrunedFeatures(), engine.NumFeatures(), engine.Interleave())

	// Time the engine on this exact arena using real rows: sampled
	// production traffic walks the trained branches the host-wide
	// synthetic ladder can only approximate. Here the training set
	// stands in for a traffic sample. A FLInt engine installs the
	// fastest width; the compact arena times its one walk, at width 1.
	width := engine.CalibrateInterleaveRows(train.Features, 0)
	fmt.Printf("row-calibrated mode: x%d interleave, %s walk\n", width, engine.Kernel())

	workers := runtime.GOMAXPROCS(0)
	// A ServedModel owns the Batcher (reservoir sampling on by default;
	// NewServedModelSampled tunes capacity/stride) and registers under
	// its serving name. Registry lookups, stats, persistence and the
	// hot swap below all key on that name.
	registry := flint.NewModelRegistry()
	defer registry.Close()
	if err := registry.Register(flint.NewServedModel("magic", engine, workers)); err != nil {
		log.Fatal(err)
	}

	// Malformed requests fail in the caller as ordinary errors — the
	// registry Predict path reports a short row instead of panicking, so
	// a network front-end turns it into a 400, not a dead worker.
	if _, err := registry.Predict("magic", [][]float32{{1, 2, 3}}, nil); err != nil {
		fmt.Printf("short row rejected in the caller: %v\n", err)
	}

	// Serve the test set as a stream of fixed-size request batches,
	// reusing one output slice across requests. The model samples the
	// served rows into its reservoir as a side effect.
	const batchSize = 256
	out := make([]int32, batchSize)
	correct, total := 0, 0
	start := time.Now()
	for lo := 0; lo < len(test.Features); lo += batchSize {
		hi := lo + batchSize
		if hi > len(test.Features) {
			hi = len(test.Features)
		}
		out, err = registry.Predict("magic", test.Features[lo:hi], out)
		if err != nil {
			log.Fatal(err)
		}
		for i, class := range out[:hi-lo] {
			if class == test.Labels[lo+i] {
				correct++
			}
			total++
		}
	}
	elapsed := time.Since(start)

	fmt.Printf("served %d rows in %v (%.0f rows/s, %d workers)\n",
		total, elapsed, float64(total)/elapsed.Seconds(), workers)
	fmt.Printf("accuracy %.3f\n", float64(correct)/float64(total))

	// Periodic online recalibration: re-time the interleave width on the
	// reservoir's sample of real served traffic. Safe while other
	// goroutines keep calling Predict — the winner installs atomically.
	model, _ := registry.Get("magic")
	st := model.Stats()
	rw := model.Recalibrate(0)
	fmt.Printf("recalibrated on %d reservoir rows (of %d served): x%d interleave\n", st.SampleRows, st.SampleSeen, rw)

	// Persist the measured calibration — gates, width and the traffic
	// sample, stamped with the model's registry name so it can never be
	// mistaken for another model's record — so the next deployment
	// warm-starts from evidence. A file in a real deployment; a buffer
	// here.
	var record bytes.Buffer
	if err := registry.SaveCalibration("magic", &record); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("persisted calibration record (%d bytes)\n", record.Len())

	// "Restart" as a hot swap: compile the arena again into a fresh
	// model off-line, flip it into the slot — Swap drains the old model
	// after the pointer flip, so concurrent Predict calls never drop —
	// and warm-start it from the record. LoadCalibration validates the
	// model stamp and the arena fingerprint (a record measured on a
	// different forest, variant or registered model is rejected),
	// installs the width, seeds the new reservoir with the persisted
	// rows, and re-arms drift detection when the record carries a
	// policy — recalibration keeps working on real traffic from the
	// first second. Installing the record's gate table is a separate,
	// explicit step because it is only valid on the hardware it was
	// measured on (this process, here).
	engine2, err := flint.NewFlatEngineVariant(grouped, variant)
	if err != nil {
		log.Fatal(err)
	}
	if err := registry.Swap("magic", flint.NewServedModel("magic", engine2, workers)); err != nil {
		log.Fatal(err)
	}
	rec, err := registry.LoadCalibration("magic", &record)
	if err != nil {
		log.Fatal(err)
	}
	flint.SetInterleaveGates(rec.Gates)
	fmt.Printf("hot swap + warm start: x%d interleave, %s walk from persisted record, reservoir seeded with %d rows\n",
		engine2.Interleave(), engine2.Kernel(), len(rec.Rows))

	// The arena engine agrees with the reference forest row by row,
	// before and after the swap.
	for i, x := range test.Features[:10] {
		want := forest.Predict(x)
		if got := engine.Predict(x); got != want {
			log.Fatalf("row %d: arena %d != reference %d", i, got, want)
		}
		if got := engine2.Predict(x); got != want {
			log.Fatalf("row %d: swapped-in arena %d != reference %d", i, got, want)
		}
	}
	fmt.Println("arena predictions match the reference forest")
}
