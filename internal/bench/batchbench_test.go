package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"flint/internal/dataset"
	"flint/internal/treeexec"
)

// TestBatchBenchRun runs the CI throughput harness at a tiny
// configuration and checks the report's shape: every workload measured
// for every variant, positive rates, and the compact arena's footprint
// advantage visible in bytes/node.
func TestBatchBenchRun(t *testing.T) {
	// Big enough that node storage dominates the per-feature cut tables
	// in the compact footprint (tiny forests amortize the tables over
	// too few nodes for the bytes/node assertion below).
	rep, err := BatchBench{
		Rows: 500, Trees: 10, Depth: 9, Workers: 2,
		MinDuration: 2 * time.Millisecond,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantVariants := []string{"flint", "flat-flint", "flat-compact"}
	if got, want := len(rep.Results), len(dataset.Names())*len(wantVariants); got != want {
		t.Fatalf("%d result rows, want %d", got, want)
	}
	perDS := map[string]map[string]BatchBenchRow{}
	for _, r := range rep.Results {
		if r.RowsPerSec <= 0 {
			t.Errorf("%s/%s: rows/s = %v", r.Dataset, r.Variant, r.RowsPerSec)
		}
		if perDS[r.Dataset] == nil {
			perDS[r.Dataset] = map[string]BatchBenchRow{}
		}
		perDS[r.Dataset][r.Variant] = r
	}
	for _, ds := range dataset.Names() {
		for _, v := range wantVariants {
			if _, ok := perDS[ds][v]; !ok {
				t.Errorf("missing %s/%s", ds, v)
			}
		}
		flat, compact := perDS[ds]["flat-flint"], perDS[ds]["flat-compact"]
		if flat.BytesPerNode != 16 {
			t.Errorf("%s: flat bytes/node = %v, want 16", ds, flat.BytesPerNode)
		}
		// 8 B/node plus the amortized cut tables: strictly below the
		// AoS arena on any non-degenerate forest.
		if compact.BytesPerNode <= 0 || compact.BytesPerNode >= 16 {
			t.Errorf("%s: compact bytes/node = %v, want in (0,16)", ds, compact.BytesPerNode)
		}
		if compact.Interleave == 0 {
			t.Errorf("%s: compact interleave unset", ds)
		}
		// The compact row records its quantization cost: how many of the
		// input columns the forest actually splits on.
		if compact.PrunedFeatures <= 0 || compact.NumFeatures <= 0 ||
			compact.PrunedFeatures > compact.NumFeatures {
			t.Errorf("%s: compact pruned/total features = %d/%d",
				ds, compact.PrunedFeatures, compact.NumFeatures)
		}
		if flat.PrunedFeatures != 0 {
			t.Errorf("%s: flat row carries pruned features %d", ds, flat.PrunedFeatures)
		}
		for _, r := range []BatchBenchRow{flat, compact} {
			if r.ISA != treeexec.DetectedISA() {
				t.Errorf("%s/%s: isa = %q, want %q", ds, r.Variant, r.ISA, treeexec.DetectedISA())
			}
		}
		// Every arena row records the kernel it was measured with; the
		// AoS arena has no fused form, so its row is always branchy.
		if flat.Kernel != "branchy" {
			t.Errorf("%s: flat kernel = %q, want branchy", ds, flat.Kernel)
		}
		switch compact.Kernel {
		case "branchy", "fused", "simd-quant", "simd":
		default:
			t.Errorf("%s: compact kernel = %q", ds, compact.Kernel)
		}
		// The compact row carries the full calibration ladder — losing
		// candidates included, exactly one flagged winner — while the
		// per-tree baseline (which never calibrates) carries none.
		if len(compact.Ladder) == 0 {
			t.Errorf("%s: compact row has no calibration ladder", ds)
		}
		winners := 0
		for _, mt := range compact.Ladder {
			if mt.RowsPerSec <= 0 {
				t.Errorf("%s: ladder entry %+v has non-positive rows/s", ds, mt)
			}
			if mt.Winner {
				winners++
			}
		}
		if len(compact.Ladder) > 0 && winners != 1 {
			t.Errorf("%s: ladder has %d winners, want 1", ds, winners)
		}
		if base, ok := perDS[ds]["flint"]; ok && len(base.Ladder) != 0 {
			t.Errorf("%s: per-tree baseline row carries a ladder", ds)
		}
	}
	// The report carries the measured gate table (monotone, as
	// Calibrate guarantees).
	g := rep.Gates
	if g == (treeexec.InterleaveGates{}) {
		t.Error("report gates are zero-valued")
	}
	if g.Min2 > g.Min4 || g.Min4 > g.Min8 {
		t.Errorf("report gates not monotone: %+v", g)
	}

	var buf bytes.Buffer
	if err := WriteBatchBenchJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var back BatchBenchReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if len(back.Results) != len(rep.Results) {
		t.Errorf("round trip lost rows: %d vs %d", len(back.Results), len(rep.Results))
	}
}

// TestTimeRowsPropagatesError pins the timing loop's error contract: a
// failing measurement function surfaces as a returned error — from the
// warm-up call and from mid-loop — never as a panic.
func TestTimeRowsPropagatesError(t *testing.T) {
	c := BatchBench{MinDuration: time.Millisecond}.withDefaults()
	sentinel := errors.New("batch failed")
	if _, err := c.timeRows(func() (int, error) { return 0, sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("warm-up error = %v, want sentinel", err)
	}
	calls := 0
	if _, err := c.timeRows(func() (int, error) {
		calls++
		if calls > 1 {
			return 0, sentinel
		}
		return 5, nil
	}); !errors.Is(err, sentinel) {
		t.Errorf("mid-loop error = %v, want sentinel", err)
	}
	// A zero-row warm-up short-circuits without error.
	if rps, err := c.timeRows(func() (int, error) { return 0, nil }); err != nil || rps != 0 {
		t.Errorf("zero-row measurement = %v, %v", rps, err)
	}
}
