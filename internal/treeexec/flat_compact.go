package treeexec

import (
	"fmt"
	"math"
	"sort"

	"flint/internal/core"
	"flint/internal/rf"
)

// The compact arena (FlatCompact) stores every inner node in one
// 8-byte word, nodes64[i] = key16 | feat16<<16 | kids32<<32:
//
//	key16  — the split as a per-feature total-order rank
//	feat16 — the pruned feature index (dense renumbering of the
//	         features the forest actually splits on)
//	kids32 — packed child/leaf word: low half left, high half right
//
// so the branch-free walk (flat_fused.go) resolves a whole step from a
// single load.
//
// The split key is not the float bit pattern but its *rank* among the
// feature's distinct split values across the whole forest, taken in
// FLInt total order (-0.0 rewritten to +0.0 first, exactly like the
// FLInt and precoded encoders). Ranking is exact, not lossy: at
// inference time each feature value x is mapped once per row to
//
//	q(x) = #{distinct split keys on this feature strictly below key(x)}
//
// by binary search over the per-feature cut table built at compile time,
// and then x <= s  <=>  q(x) <= rank(s) holds for every non-NaN x — the
// same predicate the 32-bit FLInt arena evaluates, so predictions are
// bit-identical. (Proof: with cuts c_0 < c_1 < ... and k = key(x), if
// k <= c_j then every cut below k is below c_j, so q <= j; if k > c_j
// then c_j itself is below k, so q >= j+1.)
//
// Each half of the kids word is an int16: a non-negative value is the
// child's tree-relative node index (the walk keeps the tree's arena base
// in a register), a negative value is ^class — the same leaf-free
// encoding as the 16-byte arena, narrowed. This is what bounds the
// encoding: per-tree inner-node counts, class ids, feature indices and
// per-feature distinct-split counts must all fit their fields, which
// Compactable probes and NewFlat falls back on.

// Compact encoding field limits. Each names the widest forest the 8-byte
// node can express; Compactable reports which one a forest exceeds.
const (
	// maxCompactTreeNodes bounds inner nodes per tree: child indices are
	// tree-relative int16 halves of the kids word.
	maxCompactTreeNodes = 1 << 15
	// maxCompactClasses bounds leaf classes: a leaf is ^class in an
	// int16 half, so class <= 32767.
	maxCompactClasses = 1 << 15
	// maxCompactFeatures bounds the number of features the forest
	// actually splits on: feat16 stores *pruned* feature indices (the
	// dense renumbering of split-on features), so the input
	// dimensionality itself is unbounded — only the split-on count must
	// fit the uint16 field.
	maxCompactFeatures = 1 << 16
	// maxCompactCuts bounds distinct split values per feature: node keys
	// are ranks in [0, cuts) and quantized inputs are counts in
	// [0, cuts], both stored as uint16.
	maxCompactCuts = 1<<16 - 1
)

// Compactable reports whether a forest fits the compact arena's 8-byte
// node encoding; when it does not, reason names the first limit
// exceeded. NewFlat with FlatCompact consults the same limits and falls
// back to the 32-bit FLInt arena, so callers that need to know *which*
// representation they got should probe first (or check Variant()).
func Compactable(f *rf.Forest) (bool, string) {
	if err := f.Validate(); err != nil {
		return false, fmt.Sprintf("invalid forest: %v", err)
	}
	cuts, reason := compactProbe(f)
	return cuts != nil, reason
}

// compactProbe checks the compact limits on an already-validated forest
// and, when they all hold, returns the per-feature cut tables so the
// builder does not collect them a second time. On failure it returns a
// nil table and the reason.
func compactProbe(f *rf.Forest) ([][]uint32, string) {
	if f.NumClasses > maxCompactClasses {
		return nil, fmt.Sprintf("%d classes exceed the int16 ^class leaf encoding (max %d)",
			f.NumClasses, maxCompactClasses)
	}
	for ti := range f.Trees {
		if inner := len(f.Trees[ti].Nodes) - f.Trees[ti].NumLeaves(); inner > maxCompactTreeNodes {
			return nil, fmt.Sprintf("tree %d has %d inner nodes, exceeding the int16 tree-relative child index (max %d)",
				ti, inner, maxCompactTreeNodes)
		}
	}
	cuts := collectCuts(f)
	pruned := 0
	for fi := range cuts {
		if len(cuts[fi]) > maxCompactCuts {
			return nil, fmt.Sprintf("feature %d has %d distinct split values, exceeding the uint16 total-order rank (max %d)",
				fi, len(cuts[fi]), maxCompactCuts)
		}
		if len(cuts[fi]) > 0 {
			pruned++
		}
	}
	// The arena stores pruned feature indices, so only features the
	// forest actually splits on count against the uint16 bound; a
	// million-dimensional input with a few thousand split-on features
	// still compacts.
	if pruned > maxCompactFeatures {
		return nil, fmt.Sprintf("forest splits on %d features, exceeding the uint16 pruned feature index (max %d)",
			pruned, maxCompactFeatures)
	}
	return cuts, ""
}

// collectCuts gathers the sorted distinct total-order keys of every
// feature's split values across the forest — the precoding table the
// rank encoding and the per-row quantization share.
func collectCuts(f *rf.Forest) [][]uint32 {
	cuts := make([][]uint32, f.NumFeatures)
	for ti := range f.Trees {
		for _, n := range f.Trees[ti].Nodes {
			if n.IsLeaf() {
				continue
			}
			cuts[n.Feature] = append(cuts[n.Feature], core.PrecodeSplit32(n.Split))
		}
	}
	for fi := range cuts {
		c := cuts[fi]
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
		// Dedupe in place.
		w := 0
		for i, v := range c {
			if i == 0 || v != c[w-1] {
				c[w] = v
				w++
			}
		}
		cuts[fi] = c[:w]
	}
	return cuts
}

// buildCompact fills e with the compact arena for f, reusing the
// cut tables the probe already collected. The caller has verified the
// forest against the compact limits.
//
// The cut tables are emitted *feature-pruned*: only features the forest
// actually splits on get a table, renumbered densely, and feat16
// stores the pruned index. Per-row quantization therefore costs one
// binary search per split-on feature rather than per input column — on
// wide sparse-split workloads (gas splits on a fraction of its 128
// features) that is most of the per-row overhead.
func (e *FlatForestEngine) buildCompact(f *rf.Forest, cuts [][]uint32) error {
	inner := 0
	for i := range f.Trees {
		inner += len(f.Trees[i].Nodes) - f.Trees[i].NumLeaves()
	}
	if inner > math.MaxInt32 {
		return fmt.Errorf("treeexec: forest has %d inner nodes, arena indices overflow int32", inner)
	}
	// prunedIdx maps original feature -> dense pruned index (or -1); the
	// engine keeps only the inverse (prunedOrig), which is all the
	// quantizers iterate.
	prunedIdx := make([]int32, f.NumFeatures)
	e.prunedOrig = make([]int32, 0, len(cuts))
	for fi, c := range cuts {
		if len(c) == 0 {
			prunedIdx[fi] = -1
			continue
		}
		prunedIdx[fi] = int32(len(e.prunedOrig))
		e.prunedOrig = append(e.prunedOrig, int32(fi))
	}
	e.numPruned = len(e.prunedOrig)
	e.cutLo = make([]int32, e.numPruned+1)
	total := 0
	for p, fi := range e.prunedOrig {
		e.cutLo[p] = int32(total)
		total += len(cuts[fi])
	}
	e.cutLo[e.numPruned] = int32(total)
	e.cuts = make([]uint32, 0, total)
	for _, fi := range e.prunedOrig {
		e.cuts = append(e.cuts, cuts[fi]...)
	}

	e.nodes64 = make([]uint64, 0, inner)
	e.roots = make([]int32, len(f.Trees))

	var remap []int32 // tree-relative: inner index or ^class
	for ti := range f.Trees {
		src := f.Trees[ti].Nodes
		if cap(remap) < len(src) {
			remap = make([]int32, len(src))
		}
		remap = remap[:len(src)]
		next := int32(0)
		for i, n := range src {
			if n.IsLeaf() {
				remap[i] = ^n.Class
				continue
			}
			if !core.ValidFeature32(n.Split) {
				return fmt.Errorf("treeexec: tree %d node %d has NaN split", ti, i)
			}
			remap[i] = next
			next++
		}
		base := int32(len(e.nodes64))
		if remap[0] < 0 {
			e.roots[ti] = remap[0] // leaf-only tree: ^class
		} else {
			e.roots[ti] = base // root is the tree's first inner node
		}
		for _, n := range src {
			if n.IsLeaf() {
				continue
			}
			fc := cuts[n.Feature]
			key := core.PrecodeSplit32(n.Split)
			rank := sort.Search(len(fc), func(i int) bool { return fc[i] >= key })
			kids := packKids(remap[n.Left], remap[n.Right])
			e.nodes64 = append(e.nodes64, packNode64(uint16(rank), uint16(prunedIdx[n.Feature]), kids))
		}
	}
	return nil
}

// packKids packs two tree-relative child descriptors (inner index >= 0
// or ^class < 0) into one int32 word: left in the low half, right in the
// high half.
func packKids(left, right int32) int32 {
	return int32(uint32(uint16(int16(left))) | uint32(uint16(int16(right)))<<16)
}
