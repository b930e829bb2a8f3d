package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"flint/internal/cart"
	"flint/internal/dataset"
	"flint/internal/treeexec"
)

// BatchBench measures whole-batch serving throughput (rows/s) for the
// arena engines on every workload — the per-PR perf trajectory the CI
// workflow records as BENCH_batch.json. It is deliberately small: one
// trained configuration per dataset, a fixed serial-vs-pool worker
// split, and wall-clock timings subject to host noise, so consumers
// must treat run-over-run deltas as indicative, not as a gate.
type BatchBench struct {
	// Rows is the synthetic dataset size (train + test); <= 0 selects
	// 1200 (the quick-grid size).
	Rows int
	// Trees and Depth shape the trained ensemble; <= 0 selects 20 / 12.
	Trees, Depth int
	// Workers is the Batcher pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// MinDuration is the minimum measured wall time per variant;
	// <= 0 selects 50ms.
	MinDuration time.Duration
	// Seed drives dataset synthesis and training; 0 selects 1.
	Seed int64
}

// BatchBenchRow is one measured (workload, variant) cell.
type BatchBenchRow struct {
	Dataset    string  `json:"dataset"`
	Variant    string  `json:"variant"`
	RowsPerSec float64 `json:"rows_per_sec"`
	// ArenaNodes/ArenaBytes/BytesPerNode describe the engine footprint
	// (0 for the per-tree baseline, which has no single arena).
	ArenaNodes   int     `json:"arena_nodes,omitempty"`
	ArenaBytes   int     `json:"arena_bytes,omitempty"`
	BytesPerNode float64 `json:"bytes_per_node,omitempty"`
	// Interleave is the batch kernel's cursor count (arena variants).
	Interleave int `json:"interleave,omitempty"`
	// Kernel names the arena's walk ("branchy" on the FLInt arena,
	// "fused" on the compact arena). Arena variants only.
	Kernel string `json:"kernel,omitempty"`
	// ISA is the measuring host's vector instruction set
	// (treeexec.DetectedISA, e.g. "avx2"; empty where none is probed),
	// recorded so cross-host rows/s trajectories in the CI trend history
	// stay interpretable. Arena variants only.
	ISA string `json:"isa,omitempty"`
	// PrunedFeatures is the number of features the forest actually
	// splits on — the compact arena's per-row quantization cost (one
	// binary search each); NumFeatures is the input dimensionality it
	// was pruned from. Recorded for the compact variant only.
	PrunedFeatures int `json:"pruned_features,omitempty"`
	NumFeatures    int `json:"num_features,omitempty"`
	// CalibSource records where the engine's interleave width came from
	// ("rows" for sampled traffic — the reservoir-backed serving path —
	// "synthetic" for split-table rows, "persisted" for a loaded record,
	// "manual" for a SetInterleave override, "default" for the
	// construction-time gates), so a recorded width can be traced to its
	// evidence. Arena variants only.
	CalibSource string `json:"calib_source,omitempty"`
	// Ladder is the full per-candidate calibration timing table — rows/s
	// for every width the ladder measured, winner flagged — so losing
	// widths' trajectories stay visible across PRs instead of
	// disappearing behind the winner's gate. Arena variants only; absent
	// on rows recorded before it existed.
	Ladder []treeexec.ModeTiming `json:"ladder,omitempty"`
}

// BatchBenchReport is the BENCH_batch.json document.
type BatchBenchReport struct {
	Config struct {
		Rows, Trees, Depth, Workers int
		GOMAXPROCS                  int
	} `json:"config"`
	// Gates is the host-wide FLInt interleave gate table measured at the
	// start of the run (each engine still self-calibrates on its own
	// arena before timing; the table contextualizes the recorded
	// Interleave widths).
	Gates   treeexec.InterleaveGates `json:"gates"`
	Results []BatchBenchRow          `json:"results"`
}

func (c BatchBench) withDefaults() BatchBench {
	if c.Rows <= 0 {
		c.Rows = 1200
	}
	if c.Trees <= 0 {
		c.Trees = 20
	}
	if c.Depth <= 0 {
		c.Depth = 12
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MinDuration <= 0 {
		c.MinDuration = 50 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// timeRows measures rows/s for fn, which classifies the whole test set
// once per call and returns the row count. An fn error aborts the
// measurement and is returned to the caller like every other error path
// in Run — never panicked across the timing loop.
func (c BatchBench) timeRows(fn func() (int, error)) (float64, error) {
	n, err := fn() // warm up
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	total := 0
	start := time.Now()
	elapsed := time.Duration(0)
	for elapsed < c.MinDuration {
		n, err := fn()
		if err != nil {
			return 0, err
		}
		total += n
		elapsed = time.Since(start)
	}
	return float64(total) / elapsed.Seconds(), nil
}

// Run trains one forest per workload and measures batch throughput for
// the per-tree FLInt baseline (per-row goroutine batch) and the flat
// and compact arenas (persistent Batcher). Each arena engine self-
// calibrates on its own arena before timing — the FLInt arena its
// interleave width, the compact arena its one walk — so the recorded
// Interleave field reflects this host, not the static default gates.
func (c BatchBench) Run() (*BatchBenchReport, error) {
	c = c.withDefaults()
	rep := &BatchBenchReport{}
	rep.Config.Rows = c.Rows
	rep.Config.Trees = c.Trees
	rep.Config.Depth = c.Depth
	rep.Config.Workers = c.Workers
	rep.Config.GOMAXPROCS = runtime.GOMAXPROCS(0)
	// Measure the per-variant gate table for the report, then restore
	// whatever the process had: a short-budget ladder is noisy, and a
	// bench run must not leave noise gates installed for engines the
	// embedding process constructs later. (The engines measured below
	// self-calibrate on the real test rows, so they never read this
	// table anyway.)
	prev := treeexec.CurrentInterleaveGates()
	rep.Gates = treeexec.Calibrate(4 * c.MinDuration)
	treeexec.SetInterleaveGates(prev)
	for _, ds := range dataset.Names() {
		full, err := dataset.Generate(ds, c.Rows, c.Seed)
		if err != nil {
			return nil, err
		}
		train, test := full.Split(0.75, c.Seed)
		forest, err := cart.TrainForest(train, cart.Config{
			NumTrees: c.Trees, MaxDepth: c.Depth, Seed: c.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: training %s: %w", ds, err)
		}
		rows := test.Features
		if len(rows) == 0 {
			return nil, fmt.Errorf("bench: empty test set for %s", ds)
		}

		perTree, err := treeexec.NewFLInt(forest)
		if err != nil {
			return nil, err
		}
		rps, err := c.timeRows(func() (int, error) {
			if _, err := treeexec.Batch(perTree, rows, c.Workers); err != nil {
				return 0, fmt.Errorf("bench: %s per-tree batch: %w", ds, err)
			}
			return len(rows), nil
		})
		if err != nil {
			return nil, err
		}
		rep.Results = append(rep.Results, BatchBenchRow{
			Dataset: ds, Variant: "flint", RowsPerSec: rps,
		})

		for _, v := range []treeexec.FlatVariant{treeexec.FlatFLInt, treeexec.FlatCompact} {
			e, err := treeexec.NewFlat(forest, v)
			if err != nil {
				return nil, err
			}
			// 4x the per-variant budget: the FLInt slate is four widths,
			// and the report's whole point is the full ladder — a starved
			// budget drops exactly the trailing (widest) candidates from
			// the record.
			_, ladder := e.CalibrateInterleaveRowsLadder(rows, 4*c.MinDuration)
			pool := treeexec.NewBatcher(e, c.Workers, 0)
			out := make([]int32, len(rows))
			rps, err := c.timeRows(func() (int, error) {
				out = pool.Predict(rows, out)
				return len(rows), nil
			})
			pool.Close()
			if err != nil {
				return nil, err
			}
			nodes := e.ArenaNodes()
			bytes := e.ArenaBytes()
			row := BatchBenchRow{
				Dataset: ds, Variant: e.Name(), RowsPerSec: rps,
				ArenaNodes: nodes, ArenaBytes: bytes,
				Interleave:  e.Interleave(),
				Kernel:      e.Kernel(),
				ISA:         treeexec.DetectedISA(),
				CalibSource: e.CalibrationSource(),
				Ladder:      ladder,
			}
			if nodes > 0 {
				row.BytesPerNode = float64(bytes) / float64(nodes)
			}
			if e.Variant() == treeexec.FlatCompact {
				row.PrunedFeatures = e.PrunedFeatures()
				row.NumFeatures = e.NumFeatures()
			}
			rep.Results = append(rep.Results, row)
		}
	}
	return rep, nil
}

// WriteBatchBenchJSON writes the report as indented JSON.
func WriteBatchBenchJSON(w io.Writer, rep *BatchBenchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
