package treeexec

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"flint/internal/core"
)

// TestSetInterleaveRounding pins the knob's contract: any requested
// width rounds down to the nearest supported cursor count, with a floor
// of 1.
func TestSetInterleaveRounding(t *testing.T) {
	f, _ := trainedForest(t, "wine", 4, 3)
	e, err := NewFlat(f, FlatFLInt)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 4},
		{5, 4}, {7, 4}, {8, 8}, {9, 8}, {1 << 20, 8},
	} {
		if got := e.SetInterleave(tc.in); got != tc.want {
			t.Errorf("SetInterleave(%d) = %d, want %d", tc.in, got, tc.want)
		}
		if e.Interleave() != tc.want {
			t.Errorf("Interleave() = %d after SetInterleave(%d)", e.Interleave(), tc.in)
		}
	}
}

// TestWidthForBoundaries exercises the gate table exactly at each
// threshold and with disabled (math.MaxInt) gates.
func TestWidthForBoundaries(t *testing.T) {
	g := InterleaveGates{Min2: 1 << 10, Min4: 1 << 20, Min8: 1 << 30}
	for _, tc := range []struct{ bytes, want int }{
		{1<<10 - 1, 1}, {1 << 10, 2},
		{1<<20 - 1, 2}, {1 << 20, 4},
		{1<<30 - 1, 4}, {1 << 30, 8},
	} {
		if got := g.widthFor(tc.bytes); got != tc.want {
			t.Errorf("widthFor(%d) = %d, want %d", tc.bytes, got, tc.want)
		}
	}

	disabled := InterleaveGates{Min2: math.MaxInt, Min4: math.MaxInt, Min8: math.MaxInt}
	if got := disabled.widthFor(1 << 40); got != 1 {
		t.Errorf("disabled gates: widthFor = %d, want 1", got)
	}

	// Partially disabled: only the 4-way step enabled.
	partial := InterleaveGates{Min2: math.MaxInt, Min4: 1 << 20, Min8: math.MaxInt}
	if got := partial.widthFor(1 << 25); got != 4 {
		t.Errorf("partial gates: widthFor = %d, want 4", got)
	}
}

// TestGatesFromLadder pins the monotone-threshold derivation: narrow
// wins at larger sizes are smoothed away, and each threshold is the
// smallest ladder size preferring at least that width.
func TestGatesFromLadder(t *testing.T) {
	sizes := []int{1, 2, 4, 8}
	m2, m4, m8 := gatesFromLadder(sizes, []int{1, 2, 1, 8})
	if m2 != 2 || m4 != 8 || m8 != 8 {
		t.Errorf("gatesFromLadder = %d/%d/%d, want 2/8/8", m2, m4, m8)
	}
	m2, m4, m8 = gatesFromLadder(sizes, []int{1, 1, 1, 1})
	if m2 != math.MaxInt || m4 != math.MaxInt || m8 != math.MaxInt {
		t.Errorf("all-narrow ladder = %d/%d/%d, want all MaxInt", m2, m4, m8)
	}
	m2, m4, m8 = gatesFromLadder(sizes, []int{8, 1, 1, 1})
	if m2 != 1 || m4 != 1 || m8 != 1 {
		t.Errorf("wide-first ladder = %d/%d/%d, want 1/1/1 after smoothing", m2, m4, m8)
	}
}

// TestCalibrateGatesMonotone asserts that the gate set Calibrate
// derives is monotone non-decreasing over the width ladder and made of
// ladder sizes or MaxInt.
func TestCalibrateGatesMonotone(t *testing.T) {
	defer SetInterleaveGates(DefaultInterleaveGates())
	g := Calibrate(60 * time.Millisecond)
	valid := map[int]bool{256 << 10: true, 1 << 20: true, 4 << 20: true, 16 << 20: true, math.MaxInt: true}
	for _, v := range []int{g.Min2, g.Min4, g.Min8} {
		if !valid[v] {
			t.Errorf("gate %d is not a ladder size or MaxInt", v)
		}
	}
	if g.Min2 > g.Min4 || g.Min4 > g.Min8 {
		t.Errorf("AoS gates not monotone: %+v", g)
	}
}

// TestRepresentativeRowsExerciseBothBranches is the regression test for
// the PR 2 calibration bug: syntheticRows cleared the exponent bits, so
// every calibration input was a near-zero subnormal, every cursor of a
// trained engine walked the same one-sided path, and the measured
// interleave widths came from degenerate traversals. Representative
// rows are drawn from the engine's own split values (and their float
// neighbors), so trained walks must branch both ways and quantized
// ranks must spread over the rank range instead of pinning at 0 or max.
func TestRepresentativeRowsExerciseBothBranches(t *testing.T) {
	f, _ := trainedForest(t, "magic", 8, 8)

	// FLInt arena: count left and right picks over every tree walk.
	e, err := NewFlat(f, FlatFLInt)
	if err != nil {
		t.Fatal(err)
	}
	rows := e.representativeRows(64, 0x1234)
	if len(rows) != 64 {
		t.Fatalf("representativeRows returned %d rows", len(rows))
	}
	var lefts, rights int
	for _, r := range rows {
		xi := core.EncodeFeatures32(nil, r)
		for _, root := range e.roots {
			i := root
			for i >= 0 {
				n := &e.arena[i]
				v := xi[n.feature]
				var le bool
				if n.key >= 0 {
					le = v <= n.key
				} else {
					le = uint32(v) >= uint32(n.key)
				}
				if le {
					lefts++
					i = n.left
				} else {
					rights++
					i = n.right
				}
			}
		}
	}
	if lefts == 0 || rights == 0 {
		t.Fatalf("calibration walks are one-sided: %d lefts, %d rights", lefts, rights)
	}
	// Not merely non-zero: neither direction should be a rounding error.
	total := lefts + rights
	if lefts*10 < total || rights*10 < total {
		t.Errorf("calibration walks are lopsided: %d lefts vs %d rights", lefts, rights)
	}

	// Compact arena: quantized ranks of the synthesized rows must spread
	// per feature, not pin at 0 or the top of the rank range.
	ce, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	if ce.Variant() != FlatCompact {
		t.Fatalf("fell back to %v", ce.Variant())
	}
	crows := ce.representativeRows(64, 0x5678)
	q := make([]uint16, ce.numPruned)
	minR := make([]int, ce.numPruned)
	maxR := make([]int, ce.numPruned)
	for p := range minR {
		minR[p] = math.MaxInt
		maxR[p] = -1
	}
	for _, r := range crows {
		ce.quantizeBlockFused([][]float32{r}, q)
		for p, rank := range q {
			if int(rank) < minR[p] {
				minR[p] = int(rank)
			}
			if int(rank) > maxR[p] {
				maxR[p] = int(rank)
			}
		}
	}
	for p := range minR {
		cuts := int(ce.cutLo[p+1] - ce.cutLo[p])
		if cuts < 2 {
			continue // a single cut admits only ranks {0, 1}
		}
		if minR[p] == maxR[p] {
			t.Errorf("pruned feature %d (%d cuts): all 64 rows quantize to rank %d", p, cuts, minR[p])
		}
	}
}

// TestCalibrateInterleaveRows covers the caller-supplied-sample entry:
// adopted widths are supported, predictions survive, malformed rows are
// ignored, and non-interleaving variants are a no-op.
func TestCalibrateInterleaveRows(t *testing.T) {
	f, d := trainedForest(t, "magic", 6, 5)
	e, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int32, d.Len())
	for i, x := range d.Features {
		want[i] = f.Predict(x)
	}

	w := e.CalibrateInterleaveRows(d.Features, 8*time.Millisecond)
	if w != 1 && w != 2 && w != 4 && w != 8 {
		t.Fatalf("CalibrateInterleaveRows chose %d", w)
	}
	if e.Interleave() != w {
		t.Errorf("Interleave() = %d after calibration to %d", e.Interleave(), w)
	}
	got := e.PredictBatch(d.Features, nil, 1, 0)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d diverges after row calibration", i)
		}
	}

	// Rows of the wrong width are ignored; an all-malformed sample falls
	// back to the synthesized representative rows instead of panicking.
	mixed := [][]float32{{1, 2}, d.Features[0], {}, d.Features[1]}
	if w := e.CalibrateInterleaveRows(mixed, 4*time.Millisecond); w != 1 && w != 2 && w != 4 && w != 8 {
		t.Errorf("mixed-sample calibration chose %d", w)
	}
	if w := e.CalibrateInterleaveRows([][]float32{{1}, {2, 3, 4}}, 4*time.Millisecond); w != 1 && w != 2 && w != 4 && w != 8 {
		t.Errorf("malformed-sample calibration chose %d", w)
	}

	pe, err := NewFlat(f, FlatPrecoded)
	if err != nil {
		t.Fatal(err)
	}
	before := pe.Interleave()
	if w := pe.CalibrateInterleaveRows(d.Features, time.Millisecond); w != before {
		t.Errorf("precoded row calibration changed width to %d", w)
	}
}

// TestReplicateRows pins the tiny-sample fix: fewer valid rows than a
// timing block used to run the 2/4/8-way kernels on their
// non-interleaved remainder paths, making the selected width pure timer
// noise. Small samples are cycled up to the minimum block; larger
// samples and the empty sample pass through untouched.
func TestReplicateRows(t *testing.T) {
	rows := [][]float32{{1}, {2}, {3}}
	got := replicateRows(rows, minTimingRows)
	if len(got) != minTimingRows {
		t.Fatalf("replicated to %d rows, want %d", len(got), minTimingRows)
	}
	for i, r := range got {
		if &r[0] != &rows[i%3][0] {
			t.Fatalf("row %d is not a cycled alias of the sample", i)
		}
	}
	if got := replicateRows(nil, minTimingRows); got != nil {
		t.Errorf("empty sample replicated to %d rows", len(got))
	}
	big := make([][]float32, minTimingRows+5)
	if got := replicateRows(big, minTimingRows); len(got) != len(big) {
		t.Errorf("large sample resized to %d rows", len(got))
	}
}

// TestCapRows pins the huge-sample decimation: a sample past the
// timing bound is reduced to evenly spaced rows (preserving its
// distribution), while samples within the bound pass through intact.
func TestCapRows(t *testing.T) {
	big := make([][]float32, 10*maxTimingRows)
	for i := range big {
		big[i] = []float32{float32(i)}
	}
	got := capRows(big, maxTimingRows)
	if len(got) != maxTimingRows {
		t.Fatalf("capped to %d rows, want %d", len(got), maxTimingRows)
	}
	for i, r := range got {
		if want := float32(i * len(big) / maxTimingRows); r[0] != want {
			t.Fatalf("capped row %d = %v, want evenly spaced %v", i, r[0], want)
		}
	}
	if got := capRows(big[:maxTimingRows], maxTimingRows); len(got) != maxTimingRows {
		t.Errorf("in-bound sample resized to %d rows", len(got))
	}
}

// TestCalibrateTinySample feeds fewer rows than the widest kernel's
// group: calibration must still time real interleaved walks (via
// replication) and adopt a supported width with intact predictions.
func TestCalibrateTinySample(t *testing.T) {
	f, d := trainedForest(t, "magic", 6, 5)
	for _, v := range []FlatVariant{FlatFLInt, FlatCompact} {
		e, err := NewFlat(f, v)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 3, 7} {
			if w := e.CalibrateInterleaveRows(d.Features[:n], 4*time.Millisecond); w != 1 && w != 2 && w != 4 && w != 8 {
				t.Fatalf("%v: %d-row calibration chose %d", v, n, w)
			}
			if src := e.CalibrationSource(); src != "rows" {
				t.Errorf("%v: %d-row calibration source = %q, want \"rows\"", v, n, src)
			}
		}
		got := e.PredictBatch(d.Features, nil, 1, 0)
		for i, x := range d.Features {
			if got[i] != f.Predict(x) {
				t.Fatalf("%v row %d diverges after tiny-sample calibration", v, i)
			}
		}
	}
}

// TestCalibrateBudgetBound pins the warm-up accounting fix: the
// untimed warm-up run per width used to let a calibration pass far
// exceed its budget on expensive arenas. With the warm-up counted
// against each width's slice, the whole pass must stay within ~2x the
// requested budget.
func TestCalibrateBudgetBound(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock budget bounds are meaningless under the race detector's slowdown")
	}
	f, d := trainedForest(t, "magic", 7, 6)
	e, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 40 * time.Millisecond
	start := time.Now()
	e.CalibrateInterleaveRows(d.Features, budget)
	if elapsed := time.Since(start); elapsed > 2*budget {
		t.Errorf("calibration spent %v against a %v budget (> 2x)", elapsed, budget)
	}

	// A sample far larger than the timing block must not scale the cost:
	// it is decimated to the bounded block, so the budget still holds.
	huge := make([][]float32, 0, 50*maxTimingRows)
	for len(huge) < cap(huge) {
		huge = append(huge, d.Features[len(huge)%len(d.Features)])
	}
	start = time.Now()
	e.CalibrateInterleaveRows(huge, budget)
	if elapsed := time.Since(start); elapsed > 2*budget {
		t.Errorf("huge-sample calibration spent %v against a %v budget (> 2x)", elapsed, budget)
	}
	if src := e.CalibrationSource(); src != "rows" {
		t.Errorf("huge-sample calibration source = %q, want \"rows\"", src)
	}
}

// TestCalibrateTinyBudgetBound pins the other end of the budget
// contract: when a single block pass over a big arena exceeds the whole
// budget, calibration must stop after that first pass (keeping the
// incumbent) instead of still warming up every width — the total is
// bounded by budget plus roughly one pass, not four.
func TestCalibrateTinyBudgetBound(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock budget bounds are meaningless under the race detector's slowdown")
	}
	e := syntheticFLIntEngine(16 << 20)
	rows := e.representativeRows(maxTimingRows, 0x7777)
	out := make([]int32, len(rows))
	s := e.newScratch()
	start := time.Now()
	e.predictBlockWidth(rows, out, s, 1)
	onePass := time.Since(start)

	budget := onePass / 8 // guaranteed smaller than any single pass
	if budget <= 0 {
		budget = 1
	}
	incumbent := e.Interleave()
	start = time.Now()
	w := e.CalibrateInterleaveRows(rows, budget)
	elapsed := time.Since(start)
	if w != incumbent {
		t.Errorf("starved calibration changed the width to %d", w)
	}
	if src := e.CalibrationSource(); src != "default" {
		t.Errorf("starved calibration claimed source %q without measuring anything", src)
	}
	// Generous noise allowance: three passes would exceed it, the
	// permitted single pass (plus sample prep) stays well under.
	if elapsed > budget+3*onePass {
		t.Errorf("starved calibration spent %v (budget %v, one pass %v)", elapsed, budget, onePass)
	}
}

// TestCalibrationSourceTransitions walks the source label through its
// lifecycle: construction-time default, synthetic self-calibration,
// then sampled rows.
func TestCalibrationSourceTransitions(t *testing.T) {
	f, d := trainedForest(t, "wine", 5, 4)
	e, err := NewFlat(f, FlatFLInt)
	if err != nil {
		t.Fatal(err)
	}
	if src := e.CalibrationSource(); src != "default" {
		t.Errorf("fresh engine source = %q, want \"default\"", src)
	}
	// A starved pass rightly keeps the previous label, so the budget must
	// leave every candidate a timed run even under -race's slowdown.
	const budget = 20 * time.Millisecond
	e.CalibrateInterleave(budget)
	if src := e.CalibrationSource(); src != "synthetic" {
		t.Errorf("self-calibrated source = %q, want \"synthetic\"", src)
	}
	e.CalibrateInterleaveRows(d.Features, budget)
	if src := e.CalibrationSource(); src != "rows" {
		t.Errorf("row-calibrated source = %q, want \"rows\"", src)
	}
	// A forced width is an operator decision, not measurement — the
	// stale "rows" evidence must not survive the override.
	e.SetInterleave(1)
	if src := e.CalibrationSource(); src != "manual" {
		t.Errorf("forced-width source = %q, want \"manual\"", src)
	}
}

// TestModeTransitionsUnderLiveTraffic cycles the FLInt arena's
// installed width through 1, 2, 4 and 8 while three goroutines Predict
// through one Batcher, asserting bit-identical answers throughout. Run
// under -race (CI does) it pins that SetInterleave's store and the
// workers' per-block load of the width are race-free.
func TestModeTransitionsUnderLiveTraffic(t *testing.T) {
	f, d := trainedForest(t, "sensorless", 6, 6)
	e, err := NewFlat(f, FlatFLInt)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int32, d.Len())
	for i, x := range d.Features {
		want[i] = f.Predict(x)
	}
	b := NewBatcher(e, 3, 13)
	defer b.Close()

	stop := make(chan struct{})
	errc := make(chan error, 3)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]int32, d.Len())
			for {
				select {
				case <-stop:
					return
				default:
				}
				b.Predict(d.Features, out)
				for i := range out {
					if out[i] != want[i] {
						select {
						case errc <- fmt.Errorf("width transition mismatch at row %d: got %d want %d", i, out[i], want[i]):
						default:
						}
						return
					}
				}
			}
		}()
	}
	for cycle := 0; cycle < 30; cycle++ {
		for _, w := range interleaveWidths {
			if got := e.SetInterleave(w); got != w {
				t.Errorf("SetInterleave(%d) installed %d", w, got)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
