package treeexec

import (
	"math"

	"flint/internal/ieee754"
	"flint/internal/rf"
)

// The fused kernel is the branch-free form of the compact walk. The
// branchy kernel (flat_compact.go) executes, per cursor per level, one
// data-dependent branch (`if q[feats[i]] <= keys[i]`) plus three
// separate slice loads (keys16, feats16, kids). On deep forests those
// branches are close to 50/50 — a trained split divides its reachable
// inputs — so the predictor mispredicts near half of them and each
// mispredict flushes the pipeline. FLInt's core move is converting a
// control dependency (the float-compare branch structure) into integer
// data flow; this kernel applies the same conversion to the *child
// select*:
//
//	w := nodes64[base+rel]                               // one load: key | feat | kids
//	b := (uint32(uint16(w)) - uint32(q[uint16(w>>16)])) >> 31
//	rel = int(int16(uint32(w>>32) >> (b << 4)))          // shift-select the child half
//
// b is 1 exactly when q > key (the uint32 subtraction of two
// zero-extended uint16s underflows, setting bit 31), so the shift picks
// the right child's int16 half without a conditional: lanes never
// diverge in code, only in data. The walk's sole branch is the loop
// exit (`rel >= 0`), which mispredicts once per chain instead of once
// per level. The price is a longer serial dependency per step — the
// select now sits on the load's critical path — which is why neither
// kernel dominates: calibration times both and the gates/mode decide.
//
// The quantizers get the same treatment: quantizeBlockFused and its
// one-row forms run a branchless binary search (fixed iteration count,
// arithmetic select of the half to keep) over the same cut tables,
// producing the ranks the branchy search would.
//
// One block loop, predictBlockCompactFusedQ, deals the walk's lanes.
// A lane is a (tree, row) pair: a tree base and a cursor stepped
// against one row's ranks. Full groups of the installed width w (2, 4
// or 8) keep the row-interleaved order, one tree and w rows per walk.
// Every leftover row — all of them at w = 1 — walks its own trees four
// at a time (voteRowFused): four lanes with four tree bases that share
// the row's rank vector, each dealt the next tree when it leafs, so four
// independent node loads are in flight where a one-tree walk has one.
// A lone row (Predict, PredictEncoded, PredictPrecoded) is a block of
// one and takes the same path under every kernel. Each width keeps its
// cursors unrolled in registers: a loop over an array of cursors
// measured 12-120% slower, because the compiler keeps array elements in
// memory.

// packNode64 fuses one compact node into a single word: the split rank
// in the low 16 bits, the pruned feature index in the next 16, and the
// packed kids word (packKids) in the high 32.
func packNode64(rank, feat uint16, kids int32) uint64 {
	return uint64(rank) | uint64(feat)<<16 | uint64(uint32(kids))<<32
}

// fusedStep resolves one walk step from a fused node word: branch-free
// child select as derived above. It must mirror the branchy step
// exactly: q[feat] <= key picks the low (left) half, otherwise the
// high (right) half.
func fusedStep(w uint64, q []uint16) int {
	b := (uint32(uint16(w)) - uint32(q[uint16(w>>16)])) >> 31
	return int(int16(uint32(w>>32) >> (b << 4)))
}

// classify2CompactFused walks one tree for two quantized rows with
// register-resident cursors, each stepped branch-free.
func (e *FlatForestEngine) classify2CompactFused(q0, q1 []uint16, root int32) (int32, int32) {
	if root < 0 {
		return ^root, ^root
	}
	nodes := e.nodes64
	base := int(root)
	r0, r1 := 0, 0
	for r0 >= 0 && r1 >= 0 {
		w0, w1 := nodes[base+r0], nodes[base+r1]
		r0 = fusedStep(w0, q0)
		r1 = fusedStep(w1, q1)
	}
	if r0 >= 0 {
		return e.finishCompactFused(q0, base, r0), int32(^r1)
	}
	if r1 >= 0 {
		return int32(^r0), e.finishCompactFused(q1, base, r1)
	}
	return int32(^r0), int32(^r1)
}

// classify4CompactFused is the 4-way interleaved fused walk.
func (e *FlatForestEngine) classify4CompactFused(q0, q1, q2, q3 []uint16, root int32) (int32, int32, int32, int32) {
	if root < 0 {
		c := ^root
		return c, c, c, c
	}
	nodes := e.nodes64
	base := int(root)
	r0, r1, r2, r3 := 0, 0, 0, 0
	for r0 >= 0 && r1 >= 0 && r2 >= 0 && r3 >= 0 {
		w0, w1, w2, w3 := nodes[base+r0], nodes[base+r1], nodes[base+r2], nodes[base+r3]
		r0 = fusedStep(w0, q0)
		r1 = fusedStep(w1, q1)
		r2 = fusedStep(w2, q2)
		r3 = fusedStep(w3, q3)
	}
	return e.finishCompactFused(q0, base, r0), e.finishCompactFused(q1, base, r1),
		e.finishCompactFused(q2, base, r2), e.finishCompactFused(q3, base, r3)
}

// classify8CompactFused is the 8-way interleaved fused walk. Classes
// are written into out to keep the signature manageable.
func (e *FlatForestEngine) classify8CompactFused(q *[8][]uint16, root int32, out *[8]int32) {
	if root < 0 {
		for i := range out {
			out[i] = ^root
		}
		return
	}
	nodes := e.nodes64
	base := int(root)
	r0, r1, r2, r3 := 0, 0, 0, 0
	r4, r5, r6, r7 := 0, 0, 0, 0
	q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
	q4, q5, q6, q7 := q[4], q[5], q[6], q[7]
	for r0 >= 0 && r1 >= 0 && r2 >= 0 && r3 >= 0 && r4 >= 0 && r5 >= 0 && r6 >= 0 && r7 >= 0 {
		w0, w1, w2, w3 := nodes[base+r0], nodes[base+r1], nodes[base+r2], nodes[base+r3]
		w4, w5, w6, w7 := nodes[base+r4], nodes[base+r5], nodes[base+r6], nodes[base+r7]
		r0 = fusedStep(w0, q0)
		r1 = fusedStep(w1, q1)
		r2 = fusedStep(w2, q2)
		r3 = fusedStep(w3, q3)
		r4 = fusedStep(w4, q4)
		r5 = fusedStep(w5, q5)
		r6 = fusedStep(w6, q6)
		r7 = fusedStep(w7, q7)
	}
	out[0] = e.finishCompactFused(q0, base, r0)
	out[1] = e.finishCompactFused(q1, base, r1)
	out[2] = e.finishCompactFused(q2, base, r2)
	out[3] = e.finishCompactFused(q3, base, r3)
	out[4] = e.finishCompactFused(q4, base, r4)
	out[5] = e.finishCompactFused(q5, base, r5)
	out[6] = e.finishCompactFused(q6, base, r6)
	out[7] = e.finishCompactFused(q7, base, r7)
}

// finishCompactFused completes one chain after the interleaved fused
// loop exits with this cursor still on an inner node.
func (e *FlatForestEngine) finishCompactFused(q []uint16, base, rel int) int32 {
	if rel < 0 {
		return int32(^rel)
	}
	nodes := e.nodes64
	for rel >= 0 {
		rel = fusedStep(nodes[base+rel], q)
	}
	return int32(^rel)
}

// branchlessRank counts the cuts in cuts[lo:hi] strictly below key —
// the rank a branchy binary search produces — without a
// data-dependent branch: each halving keeps the upper half by
// adding half*m where m in {0, 1} is computed arithmetically from the
// probe (the uint64 subtraction of two zero-extended uint32 keys
// underflows, setting bit 63, exactly when the probe is below key). The
// iteration count depends only on the segment length, so a whole
// quantization pass runs the same instruction stream for every row.
func branchlessRank(cuts []uint32, lo, hi int32, key uint32) uint16 {
	base := int(lo)
	n := int(hi - lo)
	if n == 0 {
		return 0
	}
	for n > 1 {
		half := n >> 1
		// m = 1 when cuts[base+half-1] < key: at least base+half cuts
		// are below key, keep the upper half.
		m := int((uint64(cuts[base+half-1]) - uint64(key)) >> 63)
		base += half * m
		n -= half
	}
	return uint16(base - int(lo) + int((uint64(cuts[base])-uint64(key))>>63))
}

// quantizeBlockFused is quantizeBlock with the branchless search: it
// quantizes a group of up to 8 float rows feature-major into
// consecutive numPruned-wide lanes of dst, each rank computed by
// branchlessRank so the group's searches retire without mispredicts.
func (e *FlatForestEngine) quantizeBlockFused(rows [][]float32, dst []uint16) {
	cuts, cutLo := e.cuts, e.cutLo
	nq := e.numPruned
	for p, f := range e.prunedOrig {
		lo, hi := cutLo[p], cutLo[p+1]
		for i, x := range rows {
			key := ieee754.TotalOrderKey32(math.Float32bits(x[f]))
			dst[i*nq+p] = branchlessRank(cuts, lo, hi, key)
		}
	}
}

// quantizeBitsFused ranks one row of raw float bit patterns
// (core.EncodeFeatures32 output) into dst, one branchless search per
// pruned feature; input columns no node reads are never searched.
func (e *FlatForestEngine) quantizeBitsFused(dst []uint16, xi []int32) {
	cuts, cutLo := e.cuts, e.cutLo
	for p, f := range e.prunedOrig {
		dst[p] = branchlessRank(cuts, cutLo[p], cutLo[p+1], ieee754.TotalOrderKey32(uint32(xi[f])))
	}
}

// quantizeKeysFused is quantizeBitsFused for inputs already in
// total-order key space (core.PrecodeFeatures32 output).
func (e *FlatForestEngine) quantizeKeysFused(dst []uint16, keys []uint32) {
	cuts, cutLo := e.cuts, e.cutLo
	for p, f := range e.prunedOrig {
		dst[p] = branchlessRank(cuts, cutLo[p], cutLo[p+1], keys[f])
	}
}

// laneStart returns a tree lane's arena base and first cursor: the
// tree's base and cursor 0, or — for a leaf-only tree, whose root is
// ^class — base 0 and the leaf word itself, a lane that starts
// finished.
func laneStart(root int32) (base, rel int) {
	if root < 0 {
		return 0, int(root)
	}
	return int(root), 0
}

// classifyCompactFused walks one tree of the compact arena for one
// quantized row.
func (e *FlatForestEngine) classifyCompactFused(q []uint16, root int32) int32 {
	base, rel := laneStart(root)
	return e.finishCompactFused(q, base, rel)
}

// voteRowFused tallies every tree's class for one quantized row into
// votes (zeroed by the caller), walking four trees at a time: the
// row-interleaved walks' lock-step loop with the roles swapped, each
// lane carrying its own tree base while all four read the same ranks.
// When a lane leafs, the loop stops, dealLane votes it and deals it the
// next tree, and the loop resumes, so four node loads stay in flight
// until the trees run out. The lanes still walking then finish on their
// own.
func (e *FlatForestEngine) voteRowFused(q []uint16, votes []int32) {
	roots := e.roots
	if len(roots) < 4 {
		for _, root := range roots {
			votes[e.classifyCompactFused(q, root)]++
		}
		return
	}
	nodes := e.nodes64
	b0, r0 := laneStart(roots[0])
	b1, r1 := laneStart(roots[1])
	b2, r2 := laneStart(roots[2])
	b3, r3 := laneStart(roots[3])
	for t := 4; ; {
		for r0 >= 0 && r1 >= 0 && r2 >= 0 && r3 >= 0 {
			w0, w1, w2, w3 := nodes[b0+r0], nodes[b1+r1], nodes[b2+r2], nodes[b3+r3]
			r0 = fusedStep(w0, q)
			r1 = fusedStep(w1, q)
			r2 = fusedStep(w2, q)
			r3 = fusedStep(w3, q)
		}
		if t == len(roots) {
			break
		}
		b0, r0, t = e.dealLane(votes, b0, r0, t)
		b1, r1, t = e.dealLane(votes, b1, r1, t)
		b2, r2, t = e.dealLane(votes, b2, r2, t)
		b3, r3, t = e.dealLane(votes, b3, r3, t)
	}
	votes[e.finishCompactFused(q, b0, r0)]++
	votes[e.finishCompactFused(q, b1, r1)]++
	votes[e.finishCompactFused(q, b2, r2)]++
	votes[e.finishCompactFused(q, b3, r3)]++
}

// dealLane hands a leafed lane (rel < 0) of voteRowFused the next tree
// t, after voting its class; a lane still walking, or any lane once the
// trees run out, is returned as it is.
func (e *FlatForestEngine) dealLane(votes []int32, base, rel, t int) (int, int, int) {
	if rel >= 0 || t == len(e.roots) {
		return base, rel, t
	}
	votes[^rel]++
	base, rel = laneStart(e.roots[t])
	return base, rel, t + 1
}

// rowRanks returns a numPruned-long rank buffer for one row, backed by
// stack when the pruned feature count fits it.
func (e *FlatForestEngine) rowRanks(stack *[maxStackQuantizedFeatures]uint16) []uint16 {
	if e.numPruned <= maxStackQuantizedFeatures {
		return stack[:e.numPruned]
	}
	return make([]uint16, e.numPruned)
}

// predictRanked classifies one quantized row of a compact engine as a
// block of one: the row walks its trees four at a time, exactly as a
// leftover row of a batch block does.
func (e *FlatForestEngine) predictRanked(q []uint16) int32 {
	var stack [maxStackClasses]int32
	votes := voteSlice(&stack, e.numClasses)
	e.voteRowFused(q, votes)
	return rf.Argmax(votes)
}

// predictBlockCompactFused is the fused kernel's block loop with the
// scalar branchless quantizer.
func (e *FlatForestEngine) predictBlockCompactFused(rows [][]float32, out []int32, s *flatScratch, width int) {
	e.predictBlockCompactFusedQ(rows, out, s, width, false)
}

// predictBlockCompactFusedQ deals one block's (tree, row) lanes. Full
// groups of the width's g rows (g = 2, 4 or 8; width 16 walks as 8)
// quantize together — simdQ selects the 8-lane vector search of
// KernelSIMDQuant (flat_simd16.go) over the scalar branchless one,
// identical ranks either way — and walk each tree with g row cursors.
// The fewer than g rows left over, every row at width 1, are quantized
// one at a time and walk their trees four at a time (voteRowFused).
func (e *FlatForestEngine) predictBlockCompactFusedQ(rows [][]float32, out []int32, s *flatScratch, width int, simdQ bool) {
	nq := e.numPruned
	nc := e.numClasses
	g := 1
	switch {
	case width >= 8:
		g = 8
	case width >= 4:
		g = 4
	case width >= 2:
		g = 2
	}
	var qs [8][]uint16
	for i := 0; i < g; i++ {
		qs[i] = s.q[i*nq : (i+1)*nq]
	}
	b := 0
	for ; g > 1 && b+g <= len(rows); b += g {
		if simdQ {
			e.quantizeBlockSIMD(rows[b:b+g], s.q)
		} else {
			e.quantizeBlockFused(rows[b:b+g], s.q)
		}
		var stack [8][maxStackClasses]int32
		lanes := voteLanes(&stack, s.votes, nc, g)
		var cls [8]int32
		for _, root := range e.roots {
			switch g {
			case 8:
				e.classify8CompactFused(&qs, root, &cls)
			case 4:
				cls[0], cls[1], cls[2], cls[3] = e.classify4CompactFused(qs[0], qs[1], qs[2], qs[3], root)
			default:
				cls[0], cls[1] = e.classify2CompactFused(qs[0], qs[1], root)
			}
			for i := 0; i < g; i++ {
				lanes[i][cls[i]]++
			}
		}
		for i := 0; i < g; i++ {
			out[b+i] = rf.Argmax(lanes[i])
		}
	}
	q := s.q[:nq]
	for ; b < len(rows); b++ {
		e.quantizeBlockFused(rows[b:b+1], q)
		var stack [8][maxStackClasses]int32
		votes := voteLanes(&stack, s.votes, nc, 1)[0]
		e.voteRowFused(q, votes)
		out[b] = rf.Argmax(votes)
	}
}
