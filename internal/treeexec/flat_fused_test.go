package treeexec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"flint/internal/core"
	"flint/internal/dataset"
	"flint/internal/rf"
)

// TestFusedNodeMirror pins the nodes64 encoding against the trained
// forest it was compiled from: walking every source tree alongside its
// compact copy, each inner node's word must mirror the source node —
// its feature field maps back (through prunedOrig) to the split
// feature, its rank field indexes the split's own key in that
// feature's cut table, and its two kids halves name the source
// children (^class for a leaf, a tree-relative node index otherwise) —
// and every word must be reached exactly once. gas splits on a
// fraction of its columns, so it covers a pruned feature index that
// differs from the input column.
func TestFusedNodeMirror(t *testing.T) {
	for _, name := range []string{"magic", "gas"} {
		f, _ := trainedForest(t, name, 6, 6)
		e, err := NewFlat(f, FlatCompact)
		if err != nil {
			t.Fatal(err)
		}
		if e.Variant() != FlatCompact {
			t.Fatalf("%s: fell back to %v", name, e.Variant())
		}
		seen := make([]bool, len(e.nodes64))
		var mirror func(src []rf.Node, base int32, si, rel int) bool
		mirror = func(src []rf.Node, base int32, si, rel int) bool {
			n := src[si]
			at := int(base) + rel
			if rel < 0 || at >= len(e.nodes64) || seen[at] {
				t.Errorf("%s: source node %d maps to arena word %d (out of range or shared)", name, si, at)
				return false
			}
			seen[at] = true
			w := e.nodes64[at]
			feat, rank := int(uint16(w>>16)), int(uint16(w))
			if feat >= e.numPruned || e.prunedOrig[feat] != n.Feature {
				t.Errorf("%s: word %d feature field %d, want the pruned index of feature %d", name, at, feat, n.Feature)
				return false
			}
			lo, hi := int(e.cutLo[feat]), int(e.cutLo[feat+1])
			if lo+rank >= hi || e.cuts[lo+rank] != core.PrecodeSplit32(n.Split) {
				t.Errorf("%s: word %d rank %d does not index split %v in its cut table", name, at, rank, n.Split)
				return false
			}
			kids := uint32(w >> 32)
			for half, child := range []int32{n.Left, n.Right} {
				got := int(int16(kids >> (16 * half)))
				if c := src[child]; c.IsLeaf() {
					if got != ^int(c.Class) {
						t.Errorf("%s: word %d kid %d = %d, want leaf ^%d", name, at, half, got, c.Class)
						return false
					}
				} else if !mirror(src, base, int(child), got) {
					return false
				}
			}
			if uint64(rank)|uint64(feat)<<16|uint64(kids)<<32 != w {
				t.Errorf("%s: word %d does not split into its fields", name, at)
				return false
			}
			return true
		}
		for ti := range f.Trees {
			src := f.Trees[ti].Nodes
			if src[0].IsLeaf() {
				if e.roots[ti] != ^src[0].Class {
					t.Errorf("%s: leaf-only tree %d root = %d, want ^%d", name, ti, e.roots[ti], src[0].Class)
				}
				continue
			}
			if !mirror(src, e.roots[ti], 0, 0) {
				break
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Errorf("%s: arena word %d is reached by no source node", name, i)
				break
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

// checkCompactModes is the lane dealers' differential: e's single-row
// entries (Predict, PredictEncoded, PredictPrecoded: blocks of one) and
// its batch path must all return want. The batch runs every block size
// from 1 to 17 — each chunk size of the 16-row chunks, and a one-row
// chunk after a full one — and blocks of 33 and 48 rows, two and three
// full chunks with and without a one-row remainder.
func checkCompactModes(t *testing.T, e *FlatForestEngine, rows [][]float32, want []int32) {
	t.Helper()
	for i, x := range rows {
		if got := e.Predict(x); got != want[i] {
			t.Fatalf("row %d: Predict got %d want %d for %v", i, got, want[i], x)
		}
		if got := e.PredictEncoded(core.EncodeFeatures32(nil, x)); got != want[i] {
			t.Fatalf("row %d: PredictEncoded got %d want %d for %v", i, got, want[i], x)
		}
		if got := e.PredictPrecoded(core.PrecodeFeatures32(nil, x)); got != want[i] {
			t.Fatalf("row %d: PredictPrecoded got %d want %d for %v", i, got, want[i], x)
		}
	}
	blocks := []int{33, 48}
	for block := 1; block <= 17; block++ {
		blocks = append(blocks, block)
	}
	for _, block := range blocks {
		got := e.PredictBatch(rows, nil, 2, block)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("block %d row %d: batch got %d want %d for %v",
					block, i, got[i], want[i], rows[i])
			}
		}
	}
}

// TestFusedBitIdenticalAllWorkloads is the tentpole acceptance test:
// on every bundled workload the compact arena must match
// rf.Forest.Predict (and the FLInt arena) prediction-for-prediction in
// every entry and block size checkCompactModes drives.
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

// TestFusedAdversarialRandomForests cross-checks every compact entry on
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
// and PredictPrecoded on the compact variant directly: for every
// workload, the precoded path and the batch path must both match the
// FlatFloat32 arena row for row (the name dates from when the compact
// arena had two kernels; it has one walk now). A feature-pruned forest
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
			got := e.PredictBatch(d.Features, nil, 1, 16)
			for i, x := range d.Features {
				want := float.Predict(x)
				if p := e.PredictPrecoded(core.PrecodeFeatures32(nil, x)); p != want {
					t.Fatalf("row %d: precoded got %d, float path wants %d", i, p, want)
				}
				if got[i] != want {
					t.Fatalf("row %d: batch got %d, float path wants %d", i, got[i], want)
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

// TestSkewedDepthFinishDrains pins the drains of the compact lane
// dealers on an adversarial chain forest: nine chains, tree i on
// feature i, so a row's value on feature i sets the depth at which tree
// i leafs. One (tree, row) pair survives to depth 48 — one deep tree
// rotated through all nine trees, or one deep row rotated through every
// position of a group of 8 rows — so the deep pair holds each of the
// four lanes, is refilled around, and is still walking when the final
// drain runs. Staircases and uniform rows ride along. Every entry must
// match rf.Forest.Predict and the FLInt arena.
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
}

// TestFusedZeroAllocSteadyState extends the zero-alloc acceptance
// criterion to the compact walk: steady-state Batcher prediction
// allocates nothing, at Batcher blocks of one partial chunk (7 rows),
// one full chunk (16) and two full chunks plus a partial one (40).
func TestFusedZeroAllocSteadyState(t *testing.T) {
	f, d := trainedForest(t, "magic", 6, 8)
	e, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	if e.Variant() != FlatCompact {
		t.Fatalf("fell back to %v", e.Variant())
	}
	for _, block := range []int{7, 16, 40} {
		b := NewBatcher(e, 2, block)
		out := make([]int32, d.Len())
		b.Predict(d.Features, out) // warm up
		if avg := testing.AllocsPerRun(20, func() {
			b.Predict(d.Features, out)
		}); avg != 0 {
			t.Errorf("block=%d: compact Batcher.Predict allocates %.1f objects per batch, want 0", block, avg)
		}
		b.Close()
	}
}

// TestCalibrationSlate pins what one calibration pass times: the
// compact arena's one walk once, at width 1, and the FLInt arena's four
// widths. A compact engine reports width 1 and the fused walk whatever
// the width gates say, SetInterleave leaves it at width 1, and the AoS
// arenas report the branchy walk.
func TestCalibrationSlate(t *testing.T) {
	if got := fmt.Sprint((&FlatForestEngine{variant: FlatCompact}).widthCandidates()); got != "[1]" {
		t.Errorf("compact slate = %s, want [1]", got)
	}
	if got := fmt.Sprint((&FlatForestEngine{variant: FlatFLInt}).widthCandidates()); got != "[1 2 4 8]" {
		t.Errorf("FLInt slate = %s, want [1 2 4 8]", got)
	}

	// Gates that would pick 8 for every arena leave the compact engine
	// at width 1; the FLInt arena takes the gated width.
	defer SetInterleaveGates(DefaultInterleaveGates())
	SetInterleaveGates(InterleaveGates{Min2: 1, Min4: 1, Min8: 1})
	f, _ := trainedForest(t, "wine", 5, 4)
	e, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	if e.Variant() != FlatCompact {
		t.Fatalf("fell back to %v", e.Variant())
	}
	if e.Interleave() != 1 || e.Kernel() != "fused" {
		t.Errorf("compact engine under x8 gates = (x%d, %s), want (x1, fused)", e.Interleave(), e.Kernel())
	}
	if got := e.SetInterleave(4); got != 1 || e.Interleave() != 1 {
		t.Errorf("compact SetInterleave(4) = %d (engine x%d), want 1", got, e.Interleave())
	}
	for _, v := range []FlatVariant{FlatFLInt, FlatFloat32, FlatPrecoded} {
		a, err := NewFlat(f, v)
		if err != nil {
			t.Fatal(err)
		}
		if a.Kernel() != "branchy" {
			t.Errorf("%v kernel = %q, want branchy", v, a.Kernel())
		}
		if v == FlatFLInt && a.Interleave() != 8 {
			t.Errorf("FLInt engine under x8 gates = x%d, want x8", a.Interleave())
		}
	}
}
