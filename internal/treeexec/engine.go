// Package treeexec provides interpreted random forest execution engines
// ("native trees" in the terminology of Asadi et al., which the paper's
// Section IV-A adopts): each tree is flattened into a contiguous node
// array and walked by a tight loop.
//
// All engines share the same traversal structure and differ only in the
// comparison kernel, which is exactly the variable the paper isolates:
//
//   - Float32Engine — hardware float comparison (the naive baseline).
//   - FLIntEngine — the FLInt comparison with the split sign resolved at
//     engine construction time (the paper's offline resolution,
//     Section IV-B), one integer compare per node.
//   - FLIntXorEngine — the general Theorem 1 operator at every node,
//     without offline sign knowledge (ablation A1).
//   - TotalOrderEngine — branchless per-comparison total-order mapping
//     (ablation A2).
//   - PrecodedEngine — the key-space precoding extension: the feature
//     vector is mapped to total-order key space once per inference and
//     every node costs one unsigned compare (ablation A2).
//   - Float64Engine / FLInt64Engine — double precision variants
//     (ablation A4).
//
// # Forest arena layout
//
// The per-tree engines above keep one heap slice per tree. The
// FlatForestEngine compiles the whole forest into a single contiguous
// node arena instead: all inner nodes of all trees live in one backing
// array of the same 16-byte nodes, and trees are addressed by per-tree
// root offsets. Leaves are not materialized — a child index c < 0
// encodes the leaf class as ^c (one's complement), so the traversal
// loop has no per-node leaf test and degenerates to load → compare →
// select until the index goes negative:
//
//	i := root
//	for i >= 0 { n := &arena[i]; i = choose(n.left, n.right) }
//	class := ^i
//
// Within each tree the arena preserves the source node order, so a
// cags.ReorderForest-grouped forest keeps its hot-path-preorder cache
// locality. Batch work should go through the row-blocked kernel
// (FlatForestEngine.PredictBatch or a persistent Batcher): blocks of B
// rows run back-to-back over the arena with per-worker scratch, keeping
// the forest's leaf-free hot set cache-resident across the block, and
// large arenas are walked 2, 4 or 8 rows at a time with register-
// resident cursors so the out-of-order core overlaps the independent
// node fetches. The crossover arena sizes are runtime-calibrated gates
// (Calibrate / CalibrateInterleave), not constants.
//
// # Compact SoA arena
//
// The FlatCompact variant re-encodes the same forest at 8 bytes per
// node: uint16 key / uint16 feature / packed int32 children, with split
// values reduced exactly to per-feature total-order ranks and each row
// quantized once by binary search before the walk (flat_compact.go).
// Predictions are bit-identical to FlatFLInt while the footprint one
// walk touches halves, so roughly twice the forest fits in the same
// cache level. The engine keeps each node in two such encodings (the
// branchy kernel's parallel slices and the fused word), ~16 bytes per
// node resident. Forests exceeding the narrow encoding fall back to the
// FLInt arena (probe with Compactable).
//
// Engines are immutable after construction and safe for concurrent use;
// the Predict entry points allocate nothing on the hot path except when
// the per-call feature encoding requires a scratch buffer, which callers
// can provide via the *Buffered variants.
package treeexec

import (
	"fmt"

	"flint/internal/core"
	"flint/internal/ieee754"
	"flint/internal/rf"
)

// node is the flattened tree node shared by the 32-bit engines. Exactly
// 16 bytes, four per cache line with the default 64-byte lines the CAGS
// configuration assumes. For leaves (feature == rf.LeafFeature) the left
// field carries the class.
type node struct {
	feature int32
	key     int32 // float bits, FLInt key, or total-order key
	left    int32
	right   int32
}

// tree is a flattened tree: nodes[0] is the root.
type tree struct {
	nodes []node
}

// compile flattens an rf.Tree, encoding the split with enc.
func compile(t *rf.Tree, enc func(split float32) int32) (tree, error) {
	out := tree{nodes: make([]node, len(t.Nodes))}
	for i, n := range t.Nodes {
		if n.IsLeaf() {
			out.nodes[i] = node{feature: rf.LeafFeature, left: n.Class}
			continue
		}
		if !core.ValidFeature32(n.Split) {
			return tree{}, fmt.Errorf("treeexec: node %d has NaN split", i)
		}
		out.nodes[i] = node{
			feature: n.Feature,
			key:     enc(n.Split),
			left:    n.Left,
			right:   n.Right,
		}
	}
	return out, nil
}

// compileForest flattens every tree of a validated forest.
func compileForest(f *rf.Forest, enc func(split float32) int32) ([]tree, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	trees := make([]tree, len(f.Trees))
	for i := range f.Trees {
		t, err := compile(&f.Trees[i], enc)
		if err != nil {
			return nil, fmt.Errorf("treeexec: tree %d: %w", i, err)
		}
		trees[i] = t
	}
	return trees, nil
}

// maxStackClasses and voteSlice alias the shared stack-array vote-count
// fast path (rf.MaxStackVoteClasses / rf.VoteSlice) so the engines and
// the reference forest stay tuned together.
const maxStackClasses = rf.MaxStackVoteClasses

func voteSlice(stack *[maxStackClasses]int32, numClasses int) []int32 {
	return rf.VoteSlice(stack, numClasses)
}

// Float32Engine executes the forest with hardware float comparisons; it
// is the reproduction's "standard if-else tree" cost model in interpreted
// form and the baseline all normalized times refer to.
type Float32Engine struct {
	trees      []tree
	numClasses int
	numFeat    int
}

// NumFeatures returns the input dimensionality the engine was compiled
// for (the batch entries use it to reject malformed rows in the
// caller's goroutine).
func (e *Float32Engine) NumFeatures() int { return e.numFeat }

// NewFloat32 compiles a forest into a Float32Engine.
func NewFloat32(f *rf.Forest) (*Float32Engine, error) {
	trees, err := compileForest(f, func(s float32) int32 { return ieee754.SI32(s) })
	if err != nil {
		return nil, err
	}
	return &Float32Engine{trees: trees, numClasses: f.NumClasses, numFeat: f.NumFeatures}, nil
}

// PredictTree returns the class chosen by tree t for x.
func (e *Float32Engine) PredictTree(t int, x []float32) int32 {
	nodes := e.trees[t].nodes
	i := int32(0)
	for {
		n := &nodes[i]
		if n.feature < 0 {
			return n.left
		}
		if x[n.feature] <= ieee754.FromSI32(n.key) {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Predict returns the majority-vote class for x.
func (e *Float32Engine) Predict(x []float32) int32 {
	var stack [maxStackClasses]int32
	counts := voteSlice(&stack, e.numClasses)
	for t := range e.trees {
		counts[e.PredictTree(t, x)]++
	}
	return rf.Argmax(counts)
}

// Name identifies the engine in benchmark output.
func (e *Float32Engine) Name() string { return "float32" }

// FLIntEngine executes the forest with the offline-resolved FLInt
// comparison: one signed compare for non-negative splits, one unsigned
// compare for negative splits, selected by the sign of the stored key.
type FLIntEngine struct {
	trees      []tree
	numClasses int
	numFeat    int
}

// NewFLInt compiles a forest into a FLIntEngine.
func NewFLInt(f *rf.Forest) (*FLIntEngine, error) {
	trees, err := compileForest(f, func(s float32) int32 { return core.MustEncodeSplit32(s).Key })
	if err != nil {
		return nil, err
	}
	return &FLIntEngine{trees: trees, numClasses: f.NumClasses, numFeat: f.NumFeatures}, nil
}

// NumFeatures returns the input dimensionality the engine was compiled
// for (Batch uses it to reject malformed rows in the caller's
// goroutine).
func (e *FLIntEngine) NumFeatures() int { return e.numFeat }

// PredictTreeEncoded returns tree t's class for a pre-encoded feature
// vector (core.EncodeFeatures32).
func (e *FLIntEngine) PredictTreeEncoded(t int, xi []int32) int32 {
	nodes := e.trees[t].nodes
	i := int32(0)
	for {
		n := &nodes[i]
		if n.feature < 0 {
			return n.left
		}
		v := xi[n.feature]
		var le bool
		if n.key >= 0 {
			le = v <= n.key
		} else {
			le = uint32(v) >= uint32(n.key)
		}
		if le {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// PredictEncoded returns the majority-vote class for a pre-encoded
// feature vector.
func (e *FLIntEngine) PredictEncoded(xi []int32) int32 {
	var stack [maxStackClasses]int32
	counts := voteSlice(&stack, e.numClasses)
	for t := range e.trees {
		counts[e.PredictTreeEncoded(t, xi)]++
	}
	return rf.Argmax(counts)
}

// Predict encodes x (one reinterpretation pass, Listing 2's pointer cast)
// and classifies it.
func (e *FLIntEngine) Predict(x []float32) int32 {
	return e.PredictEncoded(core.EncodeFeatures32(make([]int32, 0, 64), x))
}

// PredictBuffered is Predict with a caller-provided encoding buffer,
// avoiding the per-call allocation for feature vectors wider than 64.
func (e *FLIntEngine) PredictBuffered(x []float32, buf []int32) int32 {
	return e.PredictEncoded(core.EncodeFeatures32(buf, x))
}

// Name identifies the engine in benchmark output.
func (e *FLIntEngine) Name() string { return "flint" }

// FLIntXorEngine evaluates every split with the general Theorem 1
// operator, paying the sign logic at runtime (ablation A1).
type FLIntXorEngine struct {
	inner FLIntEngine
}

// NewFLIntXor compiles a forest into a FLIntXorEngine.
func NewFLIntXor(f *rf.Forest) (*FLIntXorEngine, error) {
	e, err := NewFLInt(f)
	if err != nil {
		return nil, err
	}
	return &FLIntXorEngine{inner: *e}, nil
}

// NumFeatures returns the input dimensionality the engine was compiled
// for.
func (e *FLIntXorEngine) NumFeatures() int {
	return e.inner.NumFeatures()
}

// PredictTreeEncoded returns tree t's class for a pre-encoded vector.
func (e *FLIntXorEngine) PredictTreeEncoded(t int, xi []int32) int32 {
	nodes := e.inner.trees[t].nodes
	i := int32(0)
	for {
		n := &nodes[i]
		if n.feature < 0 {
			return n.left
		}
		if core.GEBits32(n.key, xi[n.feature]) { // split >= x, i.e. x <= split
			i = n.left
		} else {
			i = n.right
		}
	}
}

// PredictEncoded returns the majority-vote class for a pre-encoded vector.
func (e *FLIntXorEngine) PredictEncoded(xi []int32) int32 {
	var stack [maxStackClasses]int32
	counts := voteSlice(&stack, e.inner.numClasses)
	for t := range e.inner.trees {
		counts[e.PredictTreeEncoded(t, xi)]++
	}
	return rf.Argmax(counts)
}

// Predict encodes x and classifies it.
func (e *FLIntXorEngine) Predict(x []float32) int32 {
	return e.PredictEncoded(core.EncodeFeatures32(make([]int32, 0, 64), x))
}

// Name identifies the engine in benchmark output.
func (e *FLIntXorEngine) Name() string { return "flint-xor" }

// TotalOrderEngine maps each loaded feature into total-order key space
// branchlessly at every comparison (ablation A2).
type TotalOrderEngine struct {
	trees      []tree
	numClasses int
	numFeat    int
}

// NumFeatures returns the input dimensionality the engine was compiled
// for.
func (e *TotalOrderEngine) NumFeatures() int { return e.numFeat }

// NewTotalOrder compiles a forest into a TotalOrderEngine.
func NewTotalOrder(f *rf.Forest) (*TotalOrderEngine, error) {
	trees, err := compileForest(f, func(s float32) int32 {
		return int32(core.PrecodeSplit32(s))
	})
	if err != nil {
		return nil, err
	}
	return &TotalOrderEngine{trees: trees, numClasses: f.NumClasses, numFeat: f.NumFeatures}, nil
}

// PredictTreeEncoded returns tree t's class for raw float bit patterns
// (core.EncodeFeatures32 output: plain reinterpretation, not precoded).
func (e *TotalOrderEngine) PredictTreeEncoded(t int, xi []int32) int32 {
	nodes := e.trees[t].nodes
	i := int32(0)
	for {
		n := &nodes[i]
		if n.feature < 0 {
			return n.left
		}
		if ieee754.TotalOrderKey32(uint32(xi[n.feature])) <= uint32(n.key) {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// PredictEncoded returns the majority-vote class for raw bit patterns.
func (e *TotalOrderEngine) PredictEncoded(xi []int32) int32 {
	var stack [maxStackClasses]int32
	counts := voteSlice(&stack, e.numClasses)
	for t := range e.trees {
		counts[e.PredictTreeEncoded(t, xi)]++
	}
	return rf.Argmax(counts)
}

// Predict encodes x and classifies it.
func (e *TotalOrderEngine) Predict(x []float32) int32 {
	return e.PredictEncoded(core.EncodeFeatures32(make([]int32, 0, 64), x))
}

// Name identifies the engine in benchmark output.
func (e *TotalOrderEngine) Name() string { return "total-order" }

// PrecodedEngine pays one total-order transformation per feature vector
// and then evaluates every node with a single unsigned comparison — the
// amortized extension of DESIGN.md.
type PrecodedEngine struct {
	trees      []tree
	numClasses int
	numFeat    int
}

// NumFeatures returns the input dimensionality the engine was compiled
// for.
func (e *PrecodedEngine) NumFeatures() int { return e.numFeat }

// NewPrecoded compiles a forest into a PrecodedEngine.
func NewPrecoded(f *rf.Forest) (*PrecodedEngine, error) {
	trees, err := compileForest(f, func(s float32) int32 {
		return int32(core.PrecodeSplit32(s))
	})
	if err != nil {
		return nil, err
	}
	return &PrecodedEngine{trees: trees, numClasses: f.NumClasses, numFeat: f.NumFeatures}, nil
}

// PredictTreePrecoded returns tree t's class for a precoded vector
// (core.PrecodeFeatures32).
func (e *PrecodedEngine) PredictTreePrecoded(t int, keys []uint32) int32 {
	nodes := e.trees[t].nodes
	i := int32(0)
	for {
		n := &nodes[i]
		if n.feature < 0 {
			return n.left
		}
		if keys[n.feature] <= uint32(n.key) {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// PredictPrecoded returns the majority-vote class for a precoded vector.
func (e *PrecodedEngine) PredictPrecoded(keys []uint32) int32 {
	var stack [maxStackClasses]int32
	counts := voteSlice(&stack, e.numClasses)
	for t := range e.trees {
		counts[e.PredictTreePrecoded(t, keys)]++
	}
	return rf.Argmax(counts)
}

// Predict precodes x and classifies it.
func (e *PrecodedEngine) Predict(x []float32) int32 {
	return e.PredictPrecoded(core.PrecodeFeatures32(make([]uint32, 0, 64), x))
}

// PredictBuffered is Predict with a caller-provided precoding buffer.
func (e *PrecodedEngine) PredictBuffered(x []float32, buf []uint32) int32 {
	return e.PredictPrecoded(core.PrecodeFeatures32(buf, x))
}

// Name identifies the engine in benchmark output.
func (e *PrecodedEngine) Name() string { return "precoded" }
