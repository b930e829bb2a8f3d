package treeexec

import "fmt"

// CompactModel is the compact arena as an emittable value: the exact
// tables its walk reads, 8 bytes per node (see flat_compact.go for the
// representation and the rank-quantization proof), detached from
// the engine so code generators and serializers consume the *same* build
// product the interpreter executes instead of re-deriving it from
// rf.Forest. An emitter that reproduces the three steps below over these
// tables is bit-identical to FlatCompact.PredictEncoded by construction:
//
//  1. quantize: for each pruned feature p, map the input's raw bit
//     pattern through the float total-order transform
//     (ieee754.TotalOrderKey32) and count the cuts in
//     Cuts[CutLo[p]:CutLo[p+1]] strictly below it — a binary search.
//  2. walk: from each root (an absolute Nodes64 index, or ^class for a
//     leaf-only tree), step rel = int16(uint32(w>>32) >> (b<<4)) where
//     w = Nodes64[root+rel] and b = (uint16(w) - q[uint16(w>>16)]) >> 31
//     in 32-bit arithmetic, until rel goes negative; the class is ^rel.
//  3. vote: majority over trees, ties to the lowest class index.
//
// Every slice is a copy: callers may retain and mutate a CompactModel
// freely without corrupting the serving arena it was exported from.
type CompactModel struct {
	// NumFeatures is the input dimensionality; NumClasses the number of
	// prediction classes (leaf payloads are in [0, NumClasses)).
	NumFeatures int
	NumClasses  int
	// PrunedOrig maps the dense pruned feature index (what node words
	// and quantized lanes use) back to the original input column. Its
	// length is the pruned feature count — the per-row quantization cost.
	PrunedOrig []int32
	// CutLo holds len(PrunedOrig)+1 offsets into Cuts: pruned feature
	// p's sorted distinct split keys are Cuts[CutLo[p]:CutLo[p+1]],
	// each a float32 total-order key. Every pruned feature has at least
	// one cut (that is what made it split-on).
	CutLo []int32
	Cuts  []uint32
	// Nodes64 is the fused node array: key16 | feat16<<16 | kids32<<32
	// per inner node, trees contiguous (see packNode64). Child halves of
	// the kids word are tree-relative int16s, negative = ^class leaf.
	Nodes64 []uint64
	// Roots holds each tree's entry: the absolute Nodes64 index of its
	// first inner node, or ^class for a leaf-only tree.
	Roots []int32
}

// ExportCompact returns the engine's compact arena as a CompactModel.
// It errors for every non-compact variant — including a FlatCompact
// request that fell back to the FLInt arena (probe Compactable, or
// check Variant(), to learn which representation a build produced).
func (e *FlatForestEngine) ExportCompact() (*CompactModel, error) {
	if e.variant != FlatCompact {
		return nil, fmt.Errorf("treeexec: ExportCompact on a %s engine (the compact arena is required; probe Compactable before building)", e.variant)
	}
	m := &CompactModel{
		NumFeatures: e.numFeatures,
		NumClasses:  e.numClasses,
		PrunedOrig:  append([]int32(nil), e.prunedOrig...),
		CutLo:       append([]int32(nil), e.cutLo...),
		Cuts:        append([]uint32(nil), e.cuts...),
		Nodes64:     append([]uint64(nil), e.nodes64...),
		Roots:       append([]int32(nil), e.roots...),
	}
	return m, nil
}

// NumPruned returns the number of features the forest splits on — the
// length of the pruned feature map.
func (m *CompactModel) NumPruned() int { return len(m.PrunedOrig) }

// NumTrees returns the ensemble size.
func (m *CompactModel) NumTrees() int { return len(m.Roots) }

// TableBytes returns the total size of the model's static tables as an
// emitter lays them out: 8 bytes per fused node, 4 per cut key, 4 per
// CutLo offset, 4 per pruned-map entry and 4 per root. This is the
// data-memory cost of the table-driven realization — the quantity that
// stays constant while if-else code size grows with depth — and the
// number examples and benches report next to generated code size.
func (m *CompactModel) TableBytes() int {
	return 8*len(m.Nodes64) + 4*len(m.Cuts) + 4*len(m.CutLo) +
		4*len(m.PrunedOrig) + 4*len(m.Roots)
}
