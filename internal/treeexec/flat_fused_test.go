package treeexec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"flint/internal/core"
	"flint/internal/dataset"
	"flint/internal/rf"
)

// TestFusedNodeMirror pins the nodes64 encoding: every compact node's
// fused word must be exactly its three parallel-slice fields packed as
// key16 | feat16<<16 | kids32<<32, on a trained forest and on the
// synthetic calibration arena.
func TestFusedNodeMirror(t *testing.T) {
	f, _ := trainedForest(t, "magic", 6, 6)
	e, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	if e.Variant() != FlatCompact {
		t.Fatalf("fell back to %v", e.Variant())
	}
	for _, eng := range []*FlatForestEngine{e, syntheticCompactEngine(64 << 10)} {
		if len(eng.nodes64) != len(eng.kids) {
			t.Fatalf("nodes64 holds %d words for %d nodes", len(eng.nodes64), len(eng.kids))
		}
		for i := range eng.kids {
			want := uint64(eng.keys16[i]) | uint64(eng.feats16[i])<<16 | uint64(uint32(eng.kids[i]))<<32
			if eng.nodes64[i] != want {
				t.Fatalf("node %d fused word = %#x, want %#x", i, eng.nodes64[i], want)
			}
		}
	}
}

// TestBranchlessRankMatchesBranchy drives the branchless binary search
// against the branchy one over random cut tables, covering the edges
// rank arithmetic gets wrong first: keys below every cut, above every
// cut, exact hits, immediate neighbors of hits, and empty/1-element
// segments.
func TestBranchlessRankMatchesBranchy(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	branchy := func(cuts []uint32, lo, hi int32, key uint32) uint16 {
		l, h := lo, hi
		for l < h {
			mid := l + (h-l)/2
			if cuts[mid] >= key {
				h = mid
			} else {
				l = mid + 1
			}
		}
		return uint16(l - lo)
	}
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40) // including 0- and 1-element tables
		cuts := make([]uint32, 0, n)
		v := uint32(rng.Intn(10))
		for len(cuts) < n {
			cuts = append(cuts, v)
			v += 1 + uint32(rng.Intn(1<<20))
		}
		probes := []uint32{0, 1, math.MaxUint32, math.MaxUint32 - 1}
		for _, c := range cuts {
			probes = append(probes, c, c-1, c+1)
		}
		for i := 0; i < 20; i++ {
			probes = append(probes, rng.Uint32())
		}
		for _, key := range probes {
			got := branchlessRank(cuts, 0, int32(len(cuts)), key)
			want := branchy(cuts, 0, int32(len(cuts)), key)
			if got != want {
				t.Fatalf("trial %d: rank(%d over %v) = %d, want %d", trial, key, cuts, got, want)
			}
		}
	}
}

// compactKernels lists every compact walk kernel.
var compactKernels = []Kernel{KernelBranchy, KernelFused, KernelSIMDQuant, KernelSIMD}

// checkCompactModes is the lane dealers' differential. Under every
// kernel, e's single-row entries (Predict, PredictEncoded,
// PredictPrecoded: blocks of one) and its batch path at widths 1, 2, 4
// and 8 must all return want. The batch runs every block size from 1
// to 2w+1 — full row groups, leftover rows after them, and blocks of
// leftovers alone; for the fused kernels' 16-row chunks, every chunk
// size and a one-row chunk after a full one — and blocks of 33 and 48
// rows, two and three full chunks with and without a one-row remainder.
func checkCompactModes(t *testing.T, e *FlatForestEngine, rows [][]float32, want []int32) {
	t.Helper()
	for _, k := range compactKernels {
		e.SetKernel(k)
		for i, x := range rows {
			if got := e.Predict(x); got != want[i] {
				t.Fatalf("%v row %d: Predict got %d want %d for %v", k, i, got, want[i], x)
			}
			if got := e.PredictEncoded(core.EncodeFeatures32(nil, x)); got != want[i] {
				t.Fatalf("%v row %d: PredictEncoded got %d want %d for %v", k, i, got, want[i], x)
			}
			if got := e.PredictPrecoded(core.PrecodeFeatures32(nil, x)); got != want[i] {
				t.Fatalf("%v row %d: PredictPrecoded got %d want %d for %v", k, i, got, want[i], x)
			}
		}
		for _, width := range []int{1, 2, 4, 8} {
			e.SetInterleave(width)
			if e.Kernel() != k {
				t.Fatalf("SetInterleave(%d) dropped the %v kernel", width, k)
			}
			blocks := []int{33, 48}
			for block := 1; block <= 2*width+1; block++ {
				blocks = append(blocks, block)
			}
			for _, block := range blocks {
				got := e.PredictBatch(rows, nil, 2, block)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%v width %d block %d row %d: batch got %d want %d for %v",
							k, width, block, i, got[i], want[i], rows[i])
					}
				}
			}
		}
	}
}

// TestFusedBitIdenticalAllWorkloads is the tentpole acceptance test:
// on every bundled workload the compact arena must match
// rf.Forest.Predict (and the FLInt arena) prediction-for-prediction in
// every mode checkCompactModes drives.
func TestFusedBitIdenticalAllWorkloads(t *testing.T) {
	for _, ds := range dataset.Names() {
		ds := ds
		t.Run(ds, func(t *testing.T) {
			f, d := trainedForest(t, ds, 8, 6)
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
			rows := d.Features
			want := make([]int32, len(rows))
			for i, x := range rows {
				want[i] = f.Predict(x)
				if got := ref.Predict(x); got != want[i] {
					t.Fatalf("row %d: FLInt arena got %d, forest wants %d", i, got, want[i])
				}
			}
			checkCompactModes(t, e, rows, want)
		})
	}
}

// TestFusedAdversarialRandomForests cross-checks every compact mode on
// randomly grown trees over the extreme split-value pool (signed zeros,
// subnormals, extremes) against rf.Forest.Predict. Tree counts 1, 3, 5
// and 30 cover forests below, at and well past the dealer's four lanes.
// For each count, one trial puts a leaf-only tree in each of the four
// first lane positions, one makes the last tree leaf-only and one has
// none; a forest of leaf-only trees alone comes last.
func TestFusedAdversarialRandomForests(t *testing.T) {
	rng := rand.New(rand.NewSource(654))
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
			if d == 0 || (d < depth && rng.Float64() < 0.3) {
				nodes = append(nodes, rf.Node{Feature: rf.LeafFeature, Class: int32(rng.Intn(3))})
				return me
			}
			nodes = append(nodes, rf.Node{
				Feature: int32(rng.Intn(4)),
				Split:   splitPool[rng.Intn(len(splitPool))],
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
	leafTree := func() rf.Tree {
		return rf.Tree{Nodes: []rf.Node{{Feature: rf.LeafFeature, Class: int32(rng.Intn(3))}}}
	}
	var forests [][]rf.Tree
	for _, nt := range []int{1, 3, 5, 30} {
		for pos := 0; pos <= 5; pos++ {
			trees := make([]rf.Tree, nt)
			for i := range trees {
				trees[i] = randTree(6)
			}
			switch {
			case pos < 4 && pos < nt:
				trees[pos] = leafTree()
			case pos == 4:
				trees[nt-1] = leafTree()
			}
			forests = append(forests, trees)
		}
	}
	forests = append(forests, []rf.Tree{leafTree(), leafTree(), leafTree(), leafTree(), leafTree()})
	for trial, trees := range forests {
		f := &rf.Forest{NumFeatures: 4, NumClasses: 3, Trees: trees}
		e, err := NewFlat(f, FlatCompact)
		if err != nil {
			t.Fatal(err)
		}
		if e.Variant() != FlatCompact {
			t.Fatalf("trial %d fell back to %v", trial, e.Variant())
		}
		rows := make([][]float32, 0, 64)
		for probe := 0; probe < 64; probe++ {
			x := make([]float32, 4)
			for j := range x {
				if rng.Intn(2) == 0 {
					x[j] = splitPool[rng.Intn(len(splitPool))]
				} else {
					x[j] = splitPool[rng.Intn(len(splitPool))] * float32(rng.NormFloat64())
				}
			}
			rows = append(rows, x)
		}
		want := make([]int32, len(rows))
		for i, x := range rows {
			want[i] = f.Predict(x)
		}
		checkCompactModes(t, e, rows, want)
	}
}

// TestCompactPrecodedDifferentialBothKernels covers quantizeKeysFused
// and PredictPrecoded on the compact variant directly (they were only
// exercised incidentally before): for every workload, the precoded path
// must match the float path row for row under every kernel, and the
// batch kernel must agree at every width. A feature-pruned forest
// (prunedOrig non-identity) rides along via the wide sparse-split
// construction below.
func TestCompactPrecodedDifferentialBothKernels(t *testing.T) {
	for _, ds := range dataset.Names() {
		ds := ds
		t.Run(ds, func(t *testing.T) {
			f, d := trainedForest(t, ds, 6, 5)
			float, err := NewFlat(f, FlatFloat32)
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
			for _, k := range compactKernels {
				e.SetKernel(k)
				for i, x := range d.Features {
					want := float.Predict(x)
					if got := e.PredictPrecoded(core.PrecodeFeatures32(nil, x)); got != want {
						t.Fatalf("%v row %d: precoded got %d, float path wants %d", k, i, got, want)
					}
				}
				for _, width := range []int{1, 2, 4, 8} {
					e.SetInterleave(width)
					got := e.PredictBatch(d.Features, nil, 1, 16)
					for i, x := range d.Features {
						if want := float.Predict(x); got[i] != want {
							t.Fatalf("%v width %d row %d: batch got %d, float path wants %d", k, width, i, got[i], want)
						}
					}
				}
			}
		})
	}
	// The pruned-gap shape: six trees splitting on a scattered handful
	// of 30 columns, so every single-row quantizer translates through a
	// non-identity prunedOrig while the dealer's four lanes walk it.
	rng := rand.New(rand.NewSource(31))
	splitFeats := []int32{2, 11, 28}
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
	trees := make([]rf.Tree, 6)
	for i := range trees {
		nodes = nil
		grow(7)
		trees[i] = rf.Tree{Nodes: nodes}
	}
	f := &rf.Forest{NumFeatures: 30, NumClasses: 3, Trees: trees}
	e, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(e.prunedOrig) != fmt.Sprint(splitFeats) {
		t.Fatalf("prunedOrig = %v, want %v", e.prunedOrig, splitFeats)
	}
	rows := make([][]float32, 64)
	want := make([]int32, len(rows))
	for i := range rows {
		x := make([]float32, 30)
		for j := range x {
			x[j] = float32(rng.NormFloat64())
		}
		rows[i], want[i] = x, f.Predict(x)
	}
	checkCompactModes(t, e, rows, want)
}

// skewTree returns a right-spine chain of depth inner nodes on feature
// feat: a row exits at depth min(floor(value)+1, depth) for values in
// [0, depth), at depth 1 for negative values, and walks the whole chain
// for values past the last split — so rows control exactly how deep
// each lane survives.
func skewTree(depth int, feat int32) rf.Tree {
	nodes := make([]rf.Node, 0, 2*depth+1)
	for k := 0; k < depth; k++ {
		me := int32(len(nodes))
		nodes = append(nodes, rf.Node{Feature: feat, Split: float32(k), Left: me + 1, Right: me + 2})
		nodes = append(nodes, rf.Node{Feature: rf.LeafFeature, Class: int32(k % 3)})
	}
	nodes = append(nodes, rf.Node{Feature: rf.LeafFeature, Class: 2})
	return rf.Tree{Nodes: nodes}
}

// TestSkewedDepthFinishDrains pins the drains of the interleaved
// walks on an adversarial chain forest: nine chains, tree i on feature
// i, so a row's value on feature i sets the depth at which tree i
// leafs. In the row-interleaved walks one row survives to depth 48
// while the rest of its group exits at once, rotated through every
// position of a group of 8; in the fused dealers' lanes one (tree, row)
// pair survives to depth 48 — one deep tree rotated through all nine
// trees, or one deep row rotated through a chunk — so the deep pair
// holds each of the four lanes, is refilled around, and is still
// walking when the final drain runs. Staircases and uniform rows ride
// along. Every mode must match rf.Forest.Predict and the FLInt arena.
func TestSkewedDepthFinishDrains(t *testing.T) {
	const depth = 48
	const nt = 9
	f := &rf.Forest{NumFeatures: nt, NumClasses: 3}
	for i := 0; i < nt; i++ {
		f.Trees = append(f.Trees, skewTree(depth, int32(i)))
	}
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
	depthVal := func(d int) float32 {
		// A value leafing at depth d+1 on the chain; d >= depth walks
		// the whole spine.
		if d >= depth {
			return depth + 1
		}
		return float32(d) + 0.5
	}
	row := func(d func(f int) int) []float32 {
		x := make([]float32, nt)
		for f := range x {
			x[f] = depthVal(d(f))
		}
		return x
	}
	var rows [][]float32
	// One deep row rotated through every position of a group of 8,
	// shallow everywhere else — each rotation pins a different drain.
	for pos := 0; pos < 8; pos++ {
		for lane := 0; lane < 8; lane++ {
			deep := lane == pos
			rows = append(rows, row(func(f int) int {
				if deep {
					return depth - f%2*depth/2
				}
				return 0
			}))
		}
	}
	// One deep tree per row, rotated through every tree.
	for pos := 0; pos < nt; pos++ {
		rows = append(rows, row(func(f int) int {
			if f == pos {
				return depth
			}
			return 0
		}))
	}
	// Staircases (every lane a different depth, ascending and
	// descending across the features) and uniform extremes.
	for lane := 0; lane < 8; lane++ {
		rows = append(rows, row(func(f int) int { return (lane*6 + f*5) % (depth + 1) }))
		rows = append(rows, row(func(f int) int { return ((7-lane)*6 + f*11) % (depth + 1) }))
	}
	for lane := 0; lane < 8; lane++ {
		rows = append(rows, row(func(int) int { return depth }))
	}
	for lane := 0; lane < 8; lane++ {
		rows = append(rows, make([]float32, nt))
		for f := range rows[len(rows)-1] {
			rows[len(rows)-1][f] = -1
		}
	}
	want := make([]int32, len(rows))
	for i, x := range rows {
		want[i] = f.Predict(x)
		if got := ref.Predict(x); got != want[i] {
			t.Fatalf("row %d: FLInt arena got %d, forest wants %d", i, got, want[i])
		}
	}
	checkCompactModes(t, e, rows, want)
	// The dual-group walk's refill scheduling is exactly what a
	// skewed-depth forest stresses: one lane pinning the group.
	e.SetKernel(KernelSIMD)
	e.SetInterleave(16)
	got := e.PredictBatch(rows, nil, 1, 8)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("simd width 16 row %d: got %d want %d (lanes %v)", i, got[i], want[i], rows[i])
		}
	}
}

// TestFusedZeroAllocSteadyState extends the zero-alloc acceptance
// criterion to the fused kernel: steady-state Batcher prediction with
// the fused kernel installed allocates nothing, at Batcher blocks of
// one partial chunk (7 rows), one full chunk (16) and two full chunks
// plus a partial one (40).
func TestFusedZeroAllocSteadyState(t *testing.T) {
	f, d := trainedForest(t, "magic", 6, 8)
	e, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	if e.Variant() != FlatCompact {
		t.Fatalf("fell back to %v", e.Variant())
	}
	e.SetKernel(KernelFused)
	for _, block := range []int{7, 16, 40} {
		b := NewBatcher(e, 2, block)
		out := make([]int32, d.Len())
		b.Predict(d.Features, out) // warm up
		if avg := testing.AllocsPerRun(20, func() {
			b.Predict(d.Features, out)
		}); avg != 0 {
			t.Errorf("block=%d: fused Batcher.Predict allocates %.1f objects per batch, want 0", block, avg)
		}
		b.Close()
	}
}

// TestCalibrationSlate pins what one calibration pass times: the
// branchy and SIMD kernels at every row-group width, the fused and
// SIMD-quant kernels once each at width 1 (their tree lanes read no
// width, so other widths would time the same code again), and the
// width-16 SIMD walk with lane compaction off and on — 12 candidates
// where the SIMD kernels run natively, 5 elsewhere. A pinned kernel is
// timed alone, the FLInt arena times its four widths, and construction
// installs width 1 under the fused and SIMD-quant kernels whatever the
// width gates say.
func TestCalibrationSlate(t *testing.T) {
	slate := func(e *FlatForestEngine) string {
		var s []string
		for _, c := range e.modeCandidates() {
			d := fmt.Sprintf("%v/%d", modeKernel(c), modeWidth(c))
			if r := modeRefill(c); r != 0 {
				d += fmt.Sprintf("/r%d", r)
			}
			s = append(s, d)
		}
		return strings.Join(s, " ")
	}
	want, wantN := "branchy/1 branchy/2 branchy/4 branchy/8 fused/1", 5
	if simdKernelAvailable() {
		want += " simd-quant/1 simd/1 simd/2 simd/4 simd/8 simd/16/r1 simd/16/r6"
		wantN = 12
	}
	compact := &FlatForestEngine{variant: FlatCompact}
	if got := slate(compact); got != want {
		t.Errorf("compact slate = %q, want %q", got, want)
	}
	if n := len(compact.modeCandidates()); n != wantN {
		t.Errorf("compact slate has %d candidates, want %d", n, wantN)
	}
	for _, k := range []Kernel{KernelFused, KernelSIMDQuant} {
		compact.kernelPin.Store(int32(k) + 1)
		if got, want := slate(compact), k.String()+"/1"; got != want {
			t.Errorf("slate pinned to %v = %q, want %q", k, got, want)
		}
	}
	if got, want := slate(&FlatForestEngine{variant: FlatFLInt}), "branchy/1 branchy/2 branchy/4 branchy/8"; got != want {
		t.Errorf("FLInt slate = %q, want %q", got, want)
	}

	// Width gates that would pick 8 for a 7 MB arena leave the fused
	// kernels at width 1; the branchy kernel still takes the gated width.
	g := DefaultInterleaveGates()
	g.CompactMin8 = 1 << 20
	if w, k := g.modeFor(FlatCompact, 7<<20); w != 1 || k != KernelFused {
		t.Errorf("modeFor(fused gates) = (x%d, %v), want (x1, fused)", w, k)
	}
	if simdKernelAvailable() {
		g.CompactSIMDQuantMin = 1
		if w, k := g.modeFor(FlatCompact, 7<<20); w != 1 || k != KernelSIMDQuant {
			t.Errorf("modeFor(simd-quant gates) = (x%d, %v), want (x1, simd-quant)", w, k)
		}
	}
	g.CompactFusedMin, g.CompactSIMDQuantMin = 0, 0
	if w, k := g.modeFor(FlatCompact, 7<<20); w != 8 || k != KernelBranchy {
		t.Errorf("modeFor(branchy gates) = (x%d, %v), want (x8, branchy)", w, k)
	}
}

// TestSetKernelSemantics pins the knob's contract: non-compact engines
// have no fused kernel (the call is a no-op), a fresh compact engine
// runs fused (the default gate table's CompactFusedMin is 1),
// SetInterleave preserves
// the kernel, SetKernel preserves the width and marks the source
// manual, and a pinned kernel survives calibration — under the pin,
// calibration times widths but never flips the kernel.
func TestSetKernelSemantics(t *testing.T) {
	f, d := trainedForest(t, "wine", 5, 4)
	flat, err := NewFlat(f, FlatFLInt)
	if err != nil {
		t.Fatal(err)
	}
	if got := flat.SetKernel(KernelFused); got != KernelBranchy {
		t.Errorf("SetKernel on FlatFLInt adopted %v, want branchy no-op", got)
	}
	if flat.Kernel() != KernelBranchy {
		t.Errorf("FlatFLInt kernel = %v after no-op", flat.Kernel())
	}

	e, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kernel() != KernelFused {
		t.Fatalf("fresh compact engine kernel = %v, want fused (default CompactFusedMin 1)", e.Kernel())
	}
	e.SetInterleave(4)
	if got := e.SetKernel(KernelFused); got != KernelFused {
		t.Fatalf("SetKernel(fused) adopted %v", got)
	}
	if e.Interleave() != 4 {
		t.Errorf("SetKernel changed the width to %d", e.Interleave())
	}
	if src := e.CalibrationSource(); src != "manual" {
		t.Errorf("source = %q after SetKernel, want \"manual\"", src)
	}
	e.SetInterleave(2)
	if e.Kernel() != KernelFused {
		t.Errorf("SetInterleave dropped the kernel to %v", e.Kernel())
	}
	for _, k := range []Kernel{KernelFused, KernelBranchy} {
		e.SetKernel(k)
		e.CalibrateInterleaveRows(d.Features, 4*time.Millisecond)
		if e.Kernel() != k {
			t.Errorf("calibration flipped the pinned kernel %v to %v", k, e.Kernel())
		}
	}
	// KernelAuto clears the pin without touching the installed kernel;
	// the next calibration is free to choose either.
	e.SetKernel(KernelFused)
	if got := e.SetKernel(KernelAuto); got != KernelFused {
		t.Errorf("SetKernel(auto) returned %v, want the untouched fused kernel", got)
	}
	if e.kernelPin.Load() != 0 {
		t.Error("SetKernel(auto) left the pin set")
	}
	e.CalibrateInterleaveRows(d.Features, 4*time.Millisecond)
	if k := e.Kernel(); k != KernelBranchy && k != KernelFused {
		t.Errorf("unpinned calibration installed %v", k)
	}
}

// TestKernelForBoundaries covers the gate-side kernel selection: the
// CompactFusedMin byte threshold applies to compact arenas only, and
// the zero (legacy) and MaxInt (fused-never-won) values both keep the
// branchy kernel.
func TestKernelForBoundaries(t *testing.T) {
	g := InterleaveGates{CompactFusedMin: 1000}
	for _, tc := range []struct {
		bytes int
		want  Kernel
	}{{0, KernelBranchy}, {999, KernelBranchy}, {1000, KernelFused}, {1 << 30, KernelFused}} {
		if got := g.kernelFor(FlatCompact, tc.bytes); got != tc.want {
			t.Errorf("kernelFor(FlatCompact, %d) = %v, want %v", tc.bytes, got, tc.want)
		}
		if got := g.kernelFor(FlatFLInt, tc.bytes); got != KernelBranchy {
			t.Errorf("kernelFor(FlatFLInt, %d) = %v, want branchy", tc.bytes, got)
		}
	}
	for _, min := range []int{0, math.MaxInt} {
		g := InterleaveGates{CompactFusedMin: min}
		if got := g.kernelFor(FlatCompact, 1<<30); got != KernelBranchy {
			t.Errorf("kernelFor with CompactFusedMin=%d = %v, want branchy", min, got)
		}
	}
	// Engines read the threshold at construction.
	defer SetInterleaveGates(DefaultInterleaveGates())
	f, _ := trainedForest(t, "wine", 5, 4)
	SetInterleaveGates(InterleaveGates{Min2: math.MaxInt, Min4: math.MaxInt, Min8: math.MaxInt,
		CompactMin2: math.MaxInt, CompactMin4: math.MaxInt, CompactMin8: math.MaxInt, CompactFusedMin: 1})
	e, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kernel() != KernelFused {
		t.Errorf("construction-time kernel = %v under a 1-byte fused gate, want fused", e.Kernel())
	}
}

// TestKernelGatesFromLadder checks the monotone two-threshold
// derivation: a less aggressive kernel winning above a more aggressive
// one is noise and must not split either region, and each gate is the
// smallest ladder size at or above which its kernel (or a more
// aggressive one) won.
func TestKernelGatesFromLadder(t *testing.T) {
	sizes := []int{10, 20, 40, 80}
	for _, tc := range []struct {
		bestAt                         []Kernel
		wantFused, wantQuant, wantSIMD int
	}{
		{[]Kernel{KernelBranchy, KernelBranchy, KernelBranchy, KernelBranchy}, math.MaxInt, math.MaxInt, math.MaxInt},
		{[]Kernel{KernelFused, KernelFused, KernelFused, KernelFused}, 10, math.MaxInt, math.MaxInt},
		{[]Kernel{KernelBranchy, KernelBranchy, KernelFused, KernelFused}, 40, math.MaxInt, math.MaxInt},
		{[]Kernel{KernelBranchy, KernelFused, KernelBranchy, KernelFused}, 20, math.MaxInt, math.MaxInt}, // noise forced monotone
		{[]Kernel{KernelSIMD, KernelSIMD, KernelSIMD, KernelSIMD}, 10, 10, 10},
		{[]Kernel{KernelBranchy, KernelFused, KernelSIMD, KernelSIMD}, 20, 40, 40},
		{[]Kernel{KernelBranchy, KernelSIMD, KernelFused, KernelSIMD}, 20, 20, 20}, // fused dip is noise
		{[]Kernel{KernelFused, KernelBranchy, KernelSIMD, KernelBranchy}, 10, 40, 40},
		// The hybrid sits between fused and simd in aggressiveness: a
		// simd-quant win opens the quant gate but not the simd gate.
		{[]Kernel{KernelSIMDQuant, KernelSIMDQuant, KernelSIMDQuant, KernelSIMDQuant}, 10, 10, math.MaxInt},
		{[]Kernel{KernelBranchy, KernelFused, KernelSIMDQuant, KernelSIMD}, 20, 40, 80},
		{[]Kernel{KernelBranchy, KernelSIMDQuant, KernelFused, KernelSIMD}, 20, 20, 80}, // fused dip is noise
	} {
		gotFused, gotQuant, gotSIMD := kernelGatesFromLadder(sizes, append([]Kernel(nil), tc.bestAt...))
		if gotFused != tc.wantFused || gotQuant != tc.wantQuant || gotSIMD != tc.wantSIMD {
			t.Errorf("kernelGatesFromLadder(%v) = (%d, %d, %d), want (%d, %d, %d)",
				tc.bestAt, gotFused, gotQuant, gotSIMD, tc.wantFused, tc.wantQuant, tc.wantSIMD)
		}
	}
}

// TestParseKernel pins the name mapping, including the legacy empty
// string.
func TestParseKernel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kernel
		ok   bool
	}{
		{"", KernelBranchy, true},
		{"branchy", KernelBranchy, true},
		{"fused", KernelFused, true},
		{"simd-quant", KernelSIMDQuant, true},
		{"simd", KernelSIMD, true},
		{"avx2", KernelBranchy, false},
	} {
		got, err := ParseKernel(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseKernel(%q) = (%v, %v), want (%v, ok=%v)", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if KernelBranchy.String() != "branchy" || KernelFused.String() != "fused" ||
		KernelSIMDQuant.String() != "simd-quant" || KernelSIMD.String() != "simd" {
		t.Errorf("kernel names = %q/%q/%q/%q", KernelBranchy.String(), KernelFused.String(),
			KernelSIMDQuant.String(), KernelSIMD.String())
	}
}
