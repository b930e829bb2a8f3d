package treeexec

import (
	"fmt"
	"math"
	"sort"

	"flint/internal/core"
	"flint/internal/ieee754"
	"flint/internal/rf"
)

// The compact structure-of-arrays arena (FlatCompact) stores every inner
// node in 8 bytes across three parallel slices:
//
//	keys16[i] uint16 — the split as a per-feature total-order rank
//	feats16[i] uint16 — the pruned feature index (dense renumbering of
//	                    the features the forest actually splits on)
//	kids[i]   int32  — packed child/leaf word: low half left, high half right
//
// The same three fields are additionally mirrored fused into one word
// per node, nodes64[i] = key16 | feat16<<16 | kids32<<32, so the
// branch-free kernel (flat_fused.go) resolves a whole walk step from a
// single load; a walk reads one encoding or the other, never both. An
// engine therefore holds ~16 bytes per node resident, of which one walk
// touches 8 (see ArenaBytes).
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
	// actually splits on: feats16 stores *pruned* feature indices (the
	// dense renumbering of split-on features), so the input
	// dimensionality itself is unbounded — only the split-on count must
	// fit the uint16 slice.
	maxCompactFeatures = 1 << 16
	// maxCompactCuts bounds distinct split values per feature: node keys
	// are ranks in [0, cuts) and quantized inputs are counts in
	// [0, cuts], both stored as uint16.
	maxCompactCuts = 1<<16 - 1
)

// Compactable reports whether a forest fits the compact SoA arena's
// 8-byte node encoding; when it does not, reason names the first limit
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

// buildCompact fills e with the compact SoA arena for f, reusing the
// cut tables the probe already collected. The caller has verified the
// forest against the compact limits.
//
// The cut tables are emitted *feature-pruned*: only features the forest
// actually splits on get a table, renumbered densely, and feats16
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

	e.keys16 = make([]uint16, 0, inner)
	e.feats16 = make([]uint16, 0, inner)
	e.kids = make([]int32, 0, inner)
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
		base := int32(len(e.kids))
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
			e.keys16 = append(e.keys16, uint16(rank))
			e.feats16 = append(e.feats16, uint16(prunedIdx[n.Feature]))
			e.kids = append(e.kids, kids)
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

// quantizeBlock quantizes a group of up to 8 float rows at once into
// consecutive numPruned-wide lanes of dst (row i fills
// dst[i*numPruned : (i+1)*numPruned]). The loop is feature-major: one
// pruned feature's cut-table segment is binary-searched for every row
// of the group while it is cache-hot, so the per-row quantization cost
// of the interleaved batch kernel amortizes across the group instead of
// re-fetching each feature's cuts per row.
func (e *FlatForestEngine) quantizeBlock(rows [][]float32, dst []uint16) {
	cuts, cutLo := e.cuts, e.cutLo
	nq := e.numPruned
	for p, f := range e.prunedOrig {
		lo0, hi0 := cutLo[p], cutLo[p+1]
		for i, x := range rows {
			key := ieee754.TotalOrderKey32(math.Float32bits(x[f]))
			lo, hi := lo0, hi0
			for lo < hi {
				mid := lo + (hi-lo)/2
				if cuts[mid] >= key {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			dst[i*nq+p] = uint16(lo - lo0)
		}
	}
}

// classifyCompact walks one tree of the compact arena for one quantized
// row. root is the tree's arena base (or ^class for leaf-only trees);
// the cursor is the tree-relative node index carried in the kids halves.
func (e *FlatForestEngine) classifyCompact(q []uint16, root int32) int32 {
	if root < 0 {
		return ^root
	}
	keys, feats, kids := e.keys16, e.feats16, e.kids
	base := int(root)
	rel := 0
	for rel >= 0 {
		i := base + rel
		w := kids[i]
		if q[feats[i]] <= keys[i] {
			rel = int(int16(w))
		} else {
			rel = int(int16(w >> 16))
		}
	}
	return int32(^rel)
}

// classify2Compact walks one tree for two quantized rows with
// register-resident cursors, overlapping the two chains' node fetches
// exactly like classify2FLInt does on the 16-byte arena.
func (e *FlatForestEngine) classify2Compact(q0, q1 []uint16, root int32) (int32, int32) {
	if root < 0 {
		return ^root, ^root
	}
	keys, feats, kids := e.keys16, e.feats16, e.kids
	base := int(root)
	r0, r1 := 0, 0
	for r0 >= 0 && r1 >= 0 {
		i0, i1 := base+r0, base+r1
		w0, w1 := kids[i0], kids[i1]
		if q0[feats[i0]] <= keys[i0] {
			r0 = int(int16(w0))
		} else {
			r0 = int(int16(w0 >> 16))
		}
		if q1[feats[i1]] <= keys[i1] {
			r1 = int(int16(w1))
		} else {
			r1 = int(int16(w1 >> 16))
		}
	}
	if r0 >= 0 {
		return e.finishCompact(q0, base, r0), int32(^r1)
	}
	if r1 >= 0 {
		return int32(^r0), e.finishCompact(q1, base, r1)
	}
	return int32(^r0), int32(^r1)
}

// classify4Compact is the 4-way interleaved compact walk.
func (e *FlatForestEngine) classify4Compact(q0, q1, q2, q3 []uint16, root int32) (int32, int32, int32, int32) {
	if root < 0 {
		c := ^root
		return c, c, c, c
	}
	keys, feats, kids := e.keys16, e.feats16, e.kids
	base := int(root)
	r0, r1, r2, r3 := 0, 0, 0, 0
	for r0 >= 0 && r1 >= 0 && r2 >= 0 && r3 >= 0 {
		i0, i1, i2, i3 := base+r0, base+r1, base+r2, base+r3
		w0, w1, w2, w3 := kids[i0], kids[i1], kids[i2], kids[i3]
		if q0[feats[i0]] <= keys[i0] {
			r0 = int(int16(w0))
		} else {
			r0 = int(int16(w0 >> 16))
		}
		if q1[feats[i1]] <= keys[i1] {
			r1 = int(int16(w1))
		} else {
			r1 = int(int16(w1 >> 16))
		}
		if q2[feats[i2]] <= keys[i2] {
			r2 = int(int16(w2))
		} else {
			r2 = int(int16(w2 >> 16))
		}
		if q3[feats[i3]] <= keys[i3] {
			r3 = int(int16(w3))
		} else {
			r3 = int(int16(w3 >> 16))
		}
	}
	return e.finishCompact(q0, base, r0), e.finishCompact(q1, base, r1),
		e.finishCompact(q2, base, r2), e.finishCompact(q3, base, r3)
}

// classify8Compact is the 8-way interleaved compact walk. Classes are
// written into out to keep the signature manageable.
func (e *FlatForestEngine) classify8Compact(q *[8][]uint16, root int32, out *[8]int32) {
	if root < 0 {
		for i := range out {
			out[i] = ^root
		}
		return
	}
	keys, feats, kids := e.keys16, e.feats16, e.kids
	base := int(root)
	r0, r1, r2, r3 := 0, 0, 0, 0
	r4, r5, r6, r7 := 0, 0, 0, 0
	q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
	q4, q5, q6, q7 := q[4], q[5], q[6], q[7]
	for r0 >= 0 && r1 >= 0 && r2 >= 0 && r3 >= 0 && r4 >= 0 && r5 >= 0 && r6 >= 0 && r7 >= 0 {
		i0, i1, i2, i3 := base+r0, base+r1, base+r2, base+r3
		i4, i5, i6, i7 := base+r4, base+r5, base+r6, base+r7
		w0, w1, w2, w3 := kids[i0], kids[i1], kids[i2], kids[i3]
		w4, w5, w6, w7 := kids[i4], kids[i5], kids[i6], kids[i7]
		if q0[feats[i0]] <= keys[i0] {
			r0 = int(int16(w0))
		} else {
			r0 = int(int16(w0 >> 16))
		}
		if q1[feats[i1]] <= keys[i1] {
			r1 = int(int16(w1))
		} else {
			r1 = int(int16(w1 >> 16))
		}
		if q2[feats[i2]] <= keys[i2] {
			r2 = int(int16(w2))
		} else {
			r2 = int(int16(w2 >> 16))
		}
		if q3[feats[i3]] <= keys[i3] {
			r3 = int(int16(w3))
		} else {
			r3 = int(int16(w3 >> 16))
		}
		if q4[feats[i4]] <= keys[i4] {
			r4 = int(int16(w4))
		} else {
			r4 = int(int16(w4 >> 16))
		}
		if q5[feats[i5]] <= keys[i5] {
			r5 = int(int16(w5))
		} else {
			r5 = int(int16(w5 >> 16))
		}
		if q6[feats[i6]] <= keys[i6] {
			r6 = int(int16(w6))
		} else {
			r6 = int(int16(w6 >> 16))
		}
		if q7[feats[i7]] <= keys[i7] {
			r7 = int(int16(w7))
		} else {
			r7 = int(int16(w7 >> 16))
		}
	}
	out[0] = e.finishCompact(q0, base, r0)
	out[1] = e.finishCompact(q1, base, r1)
	out[2] = e.finishCompact(q2, base, r2)
	out[3] = e.finishCompact(q3, base, r3)
	out[4] = e.finishCompact(q4, base, r4)
	out[5] = e.finishCompact(q5, base, r5)
	out[6] = e.finishCompact(q6, base, r6)
	out[7] = e.finishCompact(q7, base, r7)
}

// finishCompact completes one chain after the interleaved loop exits
// with this cursor still on an inner node.
func (e *FlatForestEngine) finishCompact(q []uint16, base, rel int) int32 {
	if rel < 0 {
		return int32(^rel)
	}
	keys, feats, kids := e.keys16, e.feats16, e.kids
	for rel >= 0 {
		i := base + rel
		w := kids[i]
		if q[feats[i]] <= keys[i] {
			rel = int(int16(w))
		} else {
			rel = int(int16(w >> 16))
		}
	}
	return int32(^rel)
}

// predictBlockCompact classifies one block of rows over the compact
// arena, quantizing groups of width rows at a time into s.q
// (feature-major, so each pruned feature's cut segment amortizes across
// the group — see quantizeBlock) and walking them with the matching
// interleaved kernel. Lane strides are numPruned, not numFeatures: the
// walk only ever consults ranks of split-on features.
func (e *FlatForestEngine) predictBlockCompact(rows [][]float32, out []int32, s *flatScratch, width int) {
	nq := e.numPruned
	nc := e.numClasses
	b := 0
	if width >= 8 {
		var q8 [8][]uint16
		for i := range q8 {
			q8[i] = s.q[i*nq : (i+1)*nq]
		}
		var cls [8]int32
		for ; b+8 <= len(rows); b += 8 {
			e.quantizeBlock(rows[b:b+8], s.q)
			var stack [8][maxStackClasses]int32
			lanes := voteLanes(&stack, s.votes, nc, 8)
			for _, root := range e.roots {
				e.classify8Compact(&q8, root, &cls)
				lanes[0][cls[0]]++
				lanes[1][cls[1]]++
				lanes[2][cls[2]]++
				lanes[3][cls[3]]++
				lanes[4][cls[4]]++
				lanes[5][cls[5]]++
				lanes[6][cls[6]]++
				lanes[7][cls[7]]++
			}
			for i := 0; i < 8; i++ {
				out[b+i] = rf.Argmax(lanes[i])
			}
		}
	}
	if width >= 4 {
		q0, q1 := s.q[0*nq:1*nq], s.q[1*nq:2*nq]
		q2, q3 := s.q[2*nq:3*nq], s.q[3*nq:4*nq]
		for ; b+4 <= len(rows); b += 4 {
			e.quantizeBlock(rows[b:b+4], s.q)
			var stack [8][maxStackClasses]int32
			lanes := voteLanes(&stack, s.votes, nc, 4)
			for _, root := range e.roots {
				c0, c1, c2, c3 := e.classify4Compact(q0, q1, q2, q3, root)
				lanes[0][c0]++
				lanes[1][c1]++
				lanes[2][c2]++
				lanes[3][c3]++
			}
			out[b] = rf.Argmax(lanes[0])
			out[b+1] = rf.Argmax(lanes[1])
			out[b+2] = rf.Argmax(lanes[2])
			out[b+3] = rf.Argmax(lanes[3])
		}
	}
	if width >= 2 {
		q0, q1 := s.q[0*nq:1*nq], s.q[1*nq:2*nq]
		for ; b+2 <= len(rows); b += 2 {
			e.quantizeBlock(rows[b:b+2], s.q)
			var stack [8][maxStackClasses]int32
			lanes := voteLanes(&stack, s.votes, nc, 2)
			for _, root := range e.roots {
				c0, c1 := e.classify2Compact(q0, q1, root)
				lanes[0][c0]++
				lanes[1][c1]++
			}
			out[b] = rf.Argmax(lanes[0])
			out[b+1] = rf.Argmax(lanes[1])
		}
	}
	q := s.q[:nq]
	for ; b < len(rows); b++ {
		e.quantizeBlock(rows[b:b+1], q)
		var stack [8][maxStackClasses]int32
		lanes := voteLanes(&stack, s.votes, nc, 1)
		for _, root := range e.roots {
			lanes[0][e.classifyCompact(q, root)]++
		}
		out[b] = rf.Argmax(lanes[0])
	}
}
