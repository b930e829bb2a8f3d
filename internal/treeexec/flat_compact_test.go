package treeexec

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"flint/internal/cags"
	"flint/internal/core"
	"flint/internal/dataset"
	"flint/internal/rf"
)

// TestCompactArenaStructure pins the compact encoding down on a hand-
// built forest: tree bases in roots, packed int16 child halves with
// ^class leaves, per-feature cut tables and rank keys.
func TestCompactArenaStructure(t *testing.T) {
	f := &rf.Forest{NumFeatures: 2, NumClasses: 3, Trees: []rf.Tree{
		{Nodes: []rf.Node{
			{Feature: 0, Split: 1.5, Left: 1, Right: 2},
			{Feature: rf.LeafFeature, Class: 1},
			{Feature: 1, Split: -2, Left: 3, Right: 4},
			{Feature: rf.LeafFeature, Class: 0},
			{Feature: rf.LeafFeature, Class: 2},
		}},
		{Nodes: []rf.Node{{Feature: rf.LeafFeature, Class: 2}}}, // leaf-only tree
	}}
	if ok, reason := Compactable(f); !ok {
		t.Fatalf("Compactable = false: %s", reason)
	}
	e, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	if e.Variant() != FlatCompact {
		t.Fatalf("variant = %v, want FlatCompact", e.Variant())
	}
	if got := len(e.kids); got != 2 {
		t.Fatalf("compact arena holds %d nodes, want 2", got)
	}
	if e.roots[0] != 0 {
		t.Errorf("tree 0 base = %d, want 0", e.roots[0])
	}
	if e.roots[1] != ^int32(2) {
		t.Errorf("leaf-only tree root = %d, want %d", e.roots[1], ^int32(2))
	}
	// Node 0: feature 0, rank 0, left = leaf class 1 (^1), right = rel 1.
	if e.feats16[0] != 0 || e.keys16[0] != 0 {
		t.Errorf("node 0 = (f%d, k%d), want (f0, k0)", e.feats16[0], e.keys16[0])
	}
	if e.kids[0] != packKids(^int32(1), 1) {
		t.Errorf("node 0 kids = %#x, want %#x", e.kids[0], packKids(^int32(1), 1))
	}
	// Node 1: feature 1, rank 0, both children leaves (classes 0 and 2).
	if e.feats16[1] != 1 || e.keys16[1] != 0 {
		t.Errorf("node 1 = (f%d, k%d), want (f1, k0)", e.feats16[1], e.keys16[1])
	}
	if e.kids[1] != packKids(^int32(0), ^int32(2)) {
		t.Errorf("node 1 kids = %#x, want %#x", e.kids[1], packKids(^int32(0), ^int32(2)))
	}
	// One cut per feature; both features are split on, so the pruned
	// index space is the identity over both columns.
	if len(e.cuts) != 2 || e.cutLo[0] != 0 || e.cutLo[1] != 1 || e.cutLo[2] != 2 {
		t.Errorf("cut tables = %v / %v, want one cut per feature", e.cuts, e.cutLo)
	}
	if e.numPruned != 2 || len(e.prunedOrig) != 2 || e.prunedOrig[0] != 0 || e.prunedOrig[1] != 1 {
		t.Errorf("pruned mapping = %d/%v, want identity over 2 features", e.numPruned, e.prunedOrig)
	}
	if got := e.PrunedFeatures(); got != 2 {
		t.Errorf("PrunedFeatures = %d, want 2", got)
	}
	// 8 bytes per node, plus the cut tables and the pruned-index map.
	if got, want := e.ArenaBytes(), 2*2+2*2+4*2+4*2+4*3+4*2; got != want {
		t.Errorf("ArenaBytes = %d, want %d", got, want)
	}
	for _, x := range [][]float32{{0, 0}, {2, -3}, {2, 5}, {-1, -2}, {1.5, -2}} {
		if got, want := e.Predict(x), f.Predict(x); got != want {
			t.Errorf("Predict(%v) = %d, want %d", x, got, want)
		}
	}
}

// TestCompactBitIdenticalAllWorkloads is the tentpole differential test:
// on every bundled workload, the compact arena must match the FLInt
// arena prediction-for-prediction through the single-row paths and the
// batch kernel at every interleave width.
func TestCompactBitIdenticalAllWorkloads(t *testing.T) {
	for _, ds := range dataset.Names() {
		ds := ds
		t.Run(ds, func(t *testing.T) {
			f, d := trainedForest(t, ds, 8, 6)
			grouped, err := cags.ReorderForest(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, forest := range []*rf.Forest{f, grouped} {
				ref, err := NewFlat(forest, FlatFLInt)
				if err != nil {
					t.Fatal(err)
				}
				e, err := NewFlat(forest, FlatCompact)
				if err != nil {
					t.Fatal(err)
				}
				if e.Variant() != FlatCompact {
					t.Fatalf("fell back to %v on a compactable forest", e.Variant())
				}
				want := make([]int32, d.Len())
				for i, x := range d.Features {
					want[i] = ref.Predict(x)
					if got := e.Predict(x); got != want[i] {
						t.Fatalf("row %d: single-row got %d want %d", i, got, want[i])
					}
					if got := e.PredictEncoded(core.EncodeFeatures32(nil, x)); got != want[i] {
						t.Fatalf("row %d: encoded got %d want %d", i, got, want[i])
					}
					if got := e.PredictPrecoded(core.PrecodeFeatures32(nil, x)); got != want[i] {
						t.Fatalf("row %d: precoded got %d want %d", i, got, want[i])
					}
				}
				for _, width := range []int{1, 2, 4, 8} {
					e.SetInterleave(width)
					got := e.PredictBatch(d.Features, nil, 2, 13)
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("width %d row %d: batch got %d want %d", width, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestCompactAdversarialRandomForests cross-checks the compact arena
// against the FLInt arena on randomly grown trees over the extreme
// split-value pool (signed zeros, subnormals, extremes), where the
// total-order rank encoding has to reproduce FLInt's -0.0 rewrite
// semantics exactly.
func TestCompactAdversarialRandomForests(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	splitPool := []float32{
		0, float32(math.Copysign(0, -1)), 1.5, -1.5,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.MaxFloat32, -math.MaxFloat32, 3.25e-20, -7.5e12,
	}
	randTree := func(depth int) rf.Tree {
		var nodes []rf.Node
		var grow func(d int) int32
		grow = func(d int) int32 {
			me := int32(len(nodes))
			if d == 0 || rng.Float64() < 0.3 {
				nodes = append(nodes, rf.Node{Feature: rf.LeafFeature, Class: int32(rng.Intn(3))})
				return me
			}
			nodes = append(nodes, rf.Node{
				Feature:      int32(rng.Intn(4)),
				Split:        splitPool[rng.Intn(len(splitPool))],
				LeftFraction: rng.Float64(),
			})
			l := grow(d - 1)
			r := grow(d - 1)
			nodes[me].Left = l
			nodes[me].Right = r
			return me
		}
		grow(depth)
		return rf.Tree{Nodes: nodes}
	}
	for trial := 0; trial < 30; trial++ {
		f := &rf.Forest{NumFeatures: 4, NumClasses: 3,
			Trees: []rf.Tree{randTree(6), randTree(6), randTree(6)}}
		ref, err := NewFlat(f, FlatFLInt)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewFlat(f, FlatCompact)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float32, 4)
		rows := make([][]float32, 0, 64)
		for probe := 0; probe < 64; probe++ {
			for j := range x {
				// Mix pool values verbatim (exercising exact-tie ranks)
				// with scaled perturbations.
				if rng.Intn(2) == 0 {
					x[j] = splitPool[rng.Intn(len(splitPool))]
				} else {
					x[j] = splitPool[rng.Intn(len(splitPool))] * float32(rng.NormFloat64())
				}
			}
			row := append([]float32(nil), x...)
			rows = append(rows, row)
			if got, want := e.Predict(row), ref.Predict(row); got != want {
				t.Fatalf("trial %d: compact got %d want %d for %v", trial, got, want, row)
			}
		}
		for _, width := range []int{2, 4, 8} {
			e.SetInterleave(width)
			got := e.PredictBatch(rows, nil, 1, 16)
			for i := range rows {
				if want := ref.Predict(rows[i]); got[i] != want {
					t.Fatalf("trial %d width %d row %d: got %d want %d", trial, width, i, got[i], want)
				}
			}
		}
	}
}

// featureChainTree builds a right-spine chain of n inner nodes over n
// distinct features baseFeat, baseFeat+1, ..., one split each.
func featureChainTree(n int, baseFeat int32) rf.Tree {
	nodes := make([]rf.Node, 0, 2*n+1)
	for k := 0; k < n; k++ {
		me := int32(len(nodes))
		nodes = append(nodes, rf.Node{Feature: baseFeat + int32(k), Split: 0.5, Left: me + 1, Right: me + 2})
		nodes = append(nodes, rf.Node{Feature: rf.LeafFeature, Class: int32(k % 2)})
	}
	nodes = append(nodes, rf.Node{Feature: rf.LeafFeature, Class: 1})
	return rf.Tree{Nodes: nodes}
}

// TestCompactPrunedFeaturesDifferential drives the pruned-index
// indirection over a forest whose split-on features leave gaps: 40
// input columns, splits only on a scattered handful, so prunedOrig is
// a non-identity map and every quantizer path (float rows, encoded
// bits, precoded keys, all interleave widths) has to translate through
// it. Predictions must stay bit-identical to the FLInt arena.
func TestCompactPrunedFeaturesDifferential(t *testing.T) {
	const numFeatures = 40
	splitFeats := []int32{3, 7, 19, 20, 38} // gaps on both sides
	rng := rand.New(rand.NewSource(77))
	randTree := func(depth int) rf.Tree {
		var nodes []rf.Node
		var grow func(d int) int32
		grow = func(d int) int32 {
			me := int32(len(nodes))
			if d == 0 || rng.Float64() < 0.25 {
				nodes = append(nodes, rf.Node{Feature: rf.LeafFeature, Class: int32(rng.Intn(3))})
				return me
			}
			nodes = append(nodes, rf.Node{
				Feature: splitFeats[rng.Intn(len(splitFeats))],
				Split:   float32(rng.NormFloat64()),
			})
			l := grow(d - 1)
			r := grow(d - 1)
			nodes[me].Left = l
			nodes[me].Right = r
			return me
		}
		grow(depth)
		return rf.Tree{Nodes: nodes}
	}
	f := &rf.Forest{NumFeatures: numFeatures, NumClasses: 3,
		Trees: []rf.Tree{randTree(7), randTree(7), randTree(7), randTree(7)}}
	ref, err := NewFlat(f, FlatFLInt)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	if e.Variant() != FlatCompact {
		t.Fatalf("fell back to %v", e.Variant())
	}
	if e.PrunedFeatures() != len(splitFeats) {
		t.Fatalf("PrunedFeatures = %d, want %d", e.PrunedFeatures(), len(splitFeats))
	}
	for p, want := range splitFeats {
		if e.prunedOrig[p] != want {
			t.Fatalf("prunedOrig = %v, want %v", e.prunedOrig, splitFeats)
		}
	}
	rows := make([][]float32, 96)
	for i := range rows {
		r := make([]float32, numFeatures)
		for j := range r {
			r[j] = float32(rng.NormFloat64())
		}
		rows[i] = r
	}
	want := make([]int32, len(rows))
	for i, x := range rows {
		want[i] = ref.Predict(x)
		if got := e.Predict(x); got != want[i] {
			t.Fatalf("row %d: single-row got %d want %d", i, got, want[i])
		}
		if got := e.PredictEncoded(core.EncodeFeatures32(nil, x)); got != want[i] {
			t.Fatalf("row %d: encoded got %d want %d", i, got, want[i])
		}
		if got := e.PredictPrecoded(core.PrecodeFeatures32(nil, x)); got != want[i] {
			t.Fatalf("row %d: precoded got %d want %d", i, got, want[i])
		}
	}
	for _, width := range []int{1, 2, 4, 8} {
		e.SetInterleave(width)
		got := e.PredictBatch(rows, nil, 2, 11)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("width %d row %d: batch got %d want %d", width, i, got[i], want[i])
			}
		}
	}
}

// chainTree builds a right-spine chain of n inner nodes on feature 0
// whose split values are base, base+1, ... — n distinct values per tree.
func chainTree(n int, base float32) rf.Tree {
	nodes := make([]rf.Node, 0, 2*n+1)
	for k := 0; k < n; k++ {
		me := int32(len(nodes))
		left := me + 1
		right := me + 2
		nodes = append(nodes, rf.Node{Feature: 0, Split: base + float32(k), Left: left, Right: right})
		nodes = append(nodes, rf.Node{Feature: rf.LeafFeature, Class: int32(k % 2)})
	}
	nodes = append(nodes, rf.Node{Feature: rf.LeafFeature, Class: 2})
	return rf.Tree{Nodes: nodes}
}

// TestCompactFallbackTooManyCuts drives the distinct-split-count past
// 2^16 on one feature (spread over several trees so no other limit
// trips first) and checks the probe's reason plus NewFlat's graceful
// fallback to the 32-bit arena with identical predictions.
func TestCompactFallbackTooManyCuts(t *testing.T) {
	const perTree = 22000
	f := &rf.Forest{NumFeatures: 1, NumClasses: 3, Trees: []rf.Tree{
		chainTree(perTree, 0),
		chainTree(perTree, perTree),
		chainTree(perTree, 2*perTree),
	}}
	ok, reason := Compactable(f)
	if ok {
		t.Fatal("Compactable = true for 66000 distinct splits on one feature")
	}
	if !strings.Contains(reason, "distinct split values") {
		t.Fatalf("reason = %q, want the distinct-split limit", reason)
	}
	e, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if e.Variant() != FlatFLInt {
		t.Fatalf("fallback variant = %v, want FlatFLInt", e.Variant())
	}
	ref, err := NewFlat(f, FlatFLInt)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float32{-1, 0, 3.5, 21999.5, 22000, 60000, 7e4} {
		x := []float32{v}
		if got, want := e.Predict(x), ref.Predict(x); got != want {
			t.Errorf("Predict(%v) = %d, want %d", v, got, want)
		}
	}
}

// TestCompactFallbackReasons covers the remaining encoding limits: per-
// tree inner-node count, class count and feature count.
func TestCompactFallbackReasons(t *testing.T) {
	big := &rf.Forest{NumFeatures: 1, NumClasses: 3, Trees: []rf.Tree{
		chainTree(maxCompactTreeNodes+1, 0),
	}}
	if ok, reason := Compactable(big); ok || !strings.Contains(reason, "inner nodes") {
		t.Errorf("per-tree limit: ok=%v reason=%q", ok, reason)
	}
	if e, err := NewFlat(big, FlatCompact); err != nil || e.Variant() != FlatFLInt {
		t.Errorf("per-tree fallback: variant=%v err=%v", e.Variant(), err)
	}

	classes := &rf.Forest{NumFeatures: 1, NumClasses: maxCompactClasses + 1, Trees: []rf.Tree{
		{Nodes: []rf.Node{{Feature: rf.LeafFeature, Class: 0}}},
	}}
	if ok, reason := Compactable(classes); ok || !strings.Contains(reason, "classes") {
		t.Errorf("class limit: ok=%v reason=%q", ok, reason)
	}

	// Input dimensionality alone no longer trips the feature limit: the
	// arena stores pruned indices, so a wide input splitting on one
	// column compacts fine.
	wide := &rf.Forest{NumFeatures: maxCompactFeatures + 1, NumClasses: 2, Trees: []rf.Tree{
		{Nodes: []rf.Node{
			{Feature: 0, Split: 1, Left: 1, Right: 2},
			{Feature: rf.LeafFeature, Class: 0},
			{Feature: rf.LeafFeature, Class: 1},
		}},
	}}
	if ok, reason := Compactable(wide); !ok {
		t.Errorf("wide sparse-split forest rejected: %q", reason)
	}
	if e, err := NewFlat(wide, FlatCompact); err != nil || e.Variant() != FlatCompact {
		t.Errorf("wide sparse-split forest: variant=%v err=%v", e.Variant(), err)
	} else if e.PrunedFeatures() != 1 {
		t.Errorf("wide sparse-split forest: PrunedFeatures=%d, want 1", e.PrunedFeatures())
	}

	// What does trip it is the number of features actually split on.
	const splitOn = maxCompactFeatures + 1
	perTree := (splitOn + 2) / 3
	featTrees := make([]rf.Tree, 0, 3)
	for b := 0; b < splitOn; b += perTree {
		n := perTree
		if b+n > splitOn {
			n = splitOn - b
		}
		featTrees = append(featTrees, featureChainTree(n, int32(b)))
	}
	features := &rf.Forest{NumFeatures: splitOn, NumClasses: 2, Trees: featTrees}
	if ok, reason := Compactable(features); ok || !strings.Contains(reason, "features") {
		t.Errorf("pruned feature limit: ok=%v reason=%q", ok, reason)
	}

	invalid := &rf.Forest{NumFeatures: 1, NumClasses: 2}
	if ok, reason := Compactable(invalid); ok || !strings.Contains(reason, "invalid forest") {
		t.Errorf("invalid forest: ok=%v reason=%q", ok, reason)
	}
}

// TestCompactZeroAllocSteadyState asserts the compact kernel's
// acceptance criterion: steady-state Batcher prediction over the
// compact arena allocates nothing at any interleave width, on both a
// <=8-class workload (stack votes) and an 11-class one (scratch votes).
// Where a row's ranks and votes fit the stack, a lone row through
// Predict, PredictEncoded or PredictPrecoded allocates nothing either.
func TestCompactZeroAllocSteadyState(t *testing.T) {
	for _, ds := range []string{"magic", "sensorless"} {
		ds := ds
		t.Run(ds, func(t *testing.T) {
			f, d := trainedForest(t, ds, 6, 8)
			e, err := NewFlat(f, FlatCompact)
			if err != nil {
				t.Fatal(err)
			}
			if e.Variant() != FlatCompact {
				t.Fatalf("fell back to %v", e.Variant())
			}
			x := d.Features[0]
			xi := core.EncodeFeatures32(nil, x)
			keys := core.PrecodeFeatures32(nil, x)
			for _, width := range []int{1, 2, 4, 8} {
				e.SetInterleave(width)
				b := NewBatcher(e, 2, 7)
				out := make([]int32, d.Len())
				b.Predict(d.Features, out) // warm up
				if avg := testing.AllocsPerRun(20, func() {
					b.Predict(d.Features, out)
				}); avg != 0 {
					t.Errorf("width=%d: compact Batcher.Predict allocates %.1f objects per batch, want 0", width, avg)
				}
				b.Close()
				// A lone row is a block of one through the lane dealer,
				// whatever width and kernel the batch path runs.
				if f.NumFeatures > maxStackQuantizedFeatures || f.NumClasses > maxStackClasses {
					continue
				}
				for name, predict := range map[string]func(){
					"Predict":         func() { e.Predict(x) },
					"PredictEncoded":  func() { e.PredictEncoded(xi) },
					"PredictPrecoded": func() { e.PredictPrecoded(keys) },
				} {
					if avg := testing.AllocsPerRun(100, predict); avg != 0 {
						t.Errorf("width=%d kernel=%v: compact %s allocates %.1f objects, want 0", width, e.Kernel(), name, avg)
					}
				}
			}
		})
	}
}

// TestInterleaveGatesAndCalibration exercises the runtime gate
// machinery: width selection from gates, the engine self-calibration
// pass and the host-wide Calibrate ladder (with a tiny budget — the
// test asserts structure, not the measured crossovers).
func TestInterleaveGatesAndCalibration(t *testing.T) {
	defer SetInterleaveGates(DefaultInterleaveGates())

	g := InterleaveGates{Min2: 100, Min4: 1000, Min8: 10000}
	for _, tc := range []struct{ bytes, want int }{
		{0, 1}, {99, 1}, {100, 2}, {999, 2}, {1000, 4}, {10000, 8}, {1 << 30, 8},
	} {
		if got := g.widthFor(FlatFLInt, tc.bytes); got != tc.want {
			t.Errorf("widthFor(FlatFLInt, %d) = %d, want %d", tc.bytes, got, tc.want)
		}
		// An all-zero compact set falls back to the AoS thresholds.
		if got := g.widthFor(FlatCompact, tc.bytes); got != tc.want {
			t.Errorf("legacy widthFor(FlatCompact, %d) = %d, want %d", tc.bytes, got, tc.want)
		}
	}
	g.CompactMin2, g.CompactMin4, g.CompactMin8 = 200, 2000, 20000
	for _, tc := range []struct{ bytes, want int }{
		{100, 1}, {200, 2}, {1999, 2}, {2000, 4}, {20000, 8},
	} {
		if got := g.widthFor(FlatCompact, tc.bytes); got != tc.want {
			t.Errorf("widthFor(FlatCompact, %d) = %d, want %d", tc.bytes, got, tc.want)
		}
	}

	// Engines pick their width from the installed gates at construction.
	f, d := trainedForest(t, "wine", 6, 4)
	SetInterleaveGates(InterleaveGates{Min2: 1, Min4: math.MaxInt, Min8: math.MaxInt})
	e, err := NewFlat(f, FlatFLInt)
	if err != nil {
		t.Fatal(err)
	}
	if e.Interleave() != 2 {
		t.Errorf("gated width = %d, want 2", e.Interleave())
	}

	// Self-calibration adopts a supported width and keeps predictions
	// intact.
	w := e.CalibrateInterleave(8 * time.Millisecond)
	if w != 1 && w != 2 && w != 4 && w != 8 {
		t.Fatalf("CalibrateInterleave chose %d", w)
	}
	if e.Interleave() != w {
		t.Errorf("Interleave() = %d after calibration to %d", e.Interleave(), w)
	}
	got := e.PredictBatch(d.Features, nil, 1, 0)
	for i, x := range d.Features {
		if want := f.Predict(x); got[i] != want {
			t.Fatalf("row %d diverges after calibration", i)
		}
	}

	// The compact kernel calibrates too; non-interleaving variants are
	// a no-op.
	ce, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	if w := ce.CalibrateInterleave(8 * time.Millisecond); w != ce.Interleave() {
		t.Errorf("compact calibration: returned %d, engine at %d", w, ce.Interleave())
	}
	pe, err := NewFlat(f, FlatPrecoded)
	if err != nil {
		t.Fatal(err)
	}
	if w := pe.CalibrateInterleave(time.Millisecond); w != pe.Interleave() {
		t.Errorf("precoded calibration changed width to %d", w)
	}

	// The host-wide ladder: monotone gates made of ladder sizes or
	// MaxInt, installed for later constructions — one set per
	// interleaving arena layout.
	gates := Calibrate(40 * time.Millisecond)
	if gates != CurrentInterleaveGates() {
		t.Errorf("Calibrate did not install its result: %+v vs %+v", gates, CurrentInterleaveGates())
	}
	if gates.Min2 > gates.Min4 || gates.Min4 > gates.Min8 {
		t.Errorf("AoS gates not monotone: %+v", gates)
	}
	if gates.CompactMin2 > gates.CompactMin4 || gates.CompactMin4 > gates.CompactMin8 {
		t.Errorf("compact gates not monotone: %+v", gates)
	}
}

// TestCompactLargeClassCount sends the compact kernel through the
// scratch-vote path with a synthetic many-class forest, covering the
// int16 ^class halves away from the tiny class ids of the workloads.
func TestCompactLargeClassCount(t *testing.T) {
	const classes = 3000
	rng := rand.New(rand.NewSource(9))
	trees := make([]rf.Tree, 5)
	for ti := range trees {
		var nodes []rf.Node
		var grow func(d int) int32
		grow = func(d int) int32 {
			me := int32(len(nodes))
			if d == 0 {
				nodes = append(nodes, rf.Node{Feature: rf.LeafFeature, Class: int32(rng.Intn(classes))})
				return me
			}
			nodes = append(nodes, rf.Node{Feature: int32(rng.Intn(3)), Split: float32(rng.NormFloat64())})
			l := grow(d - 1)
			r := grow(d - 1)
			nodes[me].Left = l
			nodes[me].Right = r
			return me
		}
		grow(6)
		trees[ti] = rf.Tree{Nodes: nodes}
	}
	f := &rf.Forest{NumFeatures: 3, NumClasses: classes, Trees: trees}
	ref, err := NewFlat(f, FlatFLInt)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	if e.Variant() != FlatCompact {
		t.Fatalf("fell back to %v", e.Variant())
	}
	rows := make([][]float32, 64)
	for i := range rows {
		rows[i] = []float32{float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64())}
	}
	for _, width := range []int{1, 2, 4, 8} {
		e.SetInterleave(width)
		got := e.PredictBatch(rows, nil, 1, 8)
		for i := range rows {
			if want := ref.Predict(rows[i]); got[i] != want {
				t.Fatalf("width %d row %d: got %d want %d", width, i, got[i], want)
			}
		}
	}
}
