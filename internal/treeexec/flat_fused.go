package treeexec

import (
	"math"

	"flint/internal/ieee754"
	"flint/internal/rf"
)

// The fused walk is the compact arena's only walk. Per cursor per
// level it makes one load and no data-dependent branch:
//
//	w := nodes64[base+rel]                               // one load: key | feat | kids
//	b := (uint32(uint16(w)) - uint32(q[uint16(w>>16)])) >> 31
//	rel = int(int16(uint32(w>>32) >> (b << 4)))          // shift-select the child half
//
// b is 1 exactly when q > key (the uint32 subtraction of two
// zero-extended uint16s underflows, setting bit 31), so the shift picks
// the right child's int16 half without a conditional: FLInt's move from
// a control dependency to integer data flow, applied to the child
// select. On deep trained forests a split divides its inputs near
// 50/50, so a compare-and-branch walk mispredicts near half its levels;
// this walk's sole branch is the loop exit (`rel >= 0`), which
// mispredicts once per chain.
//
// The quantizers get the same treatment: quantizeBlockFused and its
// one-row forms run a branchless binary search (fixed iteration count,
// arithmetic select of the half to keep) over the cut tables.
//
// One block loop, predictBlockCompactFused, deals the walk's lanes.
// A lane is a (tree, row) pair: a tree base and a cursor stepped
// against one row's ranks. A block is quantized in chunks of up to 16
// rows, and four lanes walk all of a chunk's pairs, dealt tree-major —
// every row through tree 0, then tree 1 — so a tree's nodes stay
// cache-hot across the chunk (voteChunkFused). A lane that leafs votes
// for its row and takes the next pair, so four independent node loads
// stay in flight until the pairs run out; fixed row groups instead
// stall each time one of their rows leafs, and on flintperf's large
// forest, past L2, served ~1.9x fewer rows/s. A one-row chunk, and a
// lone row (Predict, PredictEncoded, PredictPrecoded), walks its own
// trees four at a time (voteRowFused): the four lanes share the row's
// rank vector, which spares them the per-lane rank offsets. The lanes
// stay unrolled in registers: a loop over an array of cursors measured
// 12-120% slower, because the compiler keeps array elements in memory.

// packNode64 fuses one compact node into a single word: the split rank
// in the low 16 bits, the pruned feature index in the next 16, and the
// packed kids word (packKids) in the high 32.
func packNode64(rank, feat uint16, kids int32) uint64 {
	return uint64(rank) | uint64(feat)<<16 | uint64(uint32(kids))<<32
}

// fusedStep resolves one walk step from a fused node word: branch-free
// child select as derived above. q[feat] <= key picks the low (left)
// half, otherwise the high (right) half.
func fusedStep(w uint64, q []uint16) int { return fusedStepAt(w, q, 0) }

// fusedStepAt is fusedStep for a lane whose row's ranks start at
// offset off of q. The shift count is masked to 5 bits, which changes
// nothing (it is 0 or 16) but spares the compiler the zero-fill for
// counts of 32 and more that Go's shift semantics otherwise demand.
func fusedStepAt(w uint64, q []uint16, off int) int {
	b := (uint32(uint16(w)) - uint32(q[off+int(uint16(w>>16))])) >> 31
	return int(int16(uint32(w>>32) >> ((b << 4) & 31)))
}

// finishCompactFused completes one chain after a lane loop exits with
// this cursor still on an inner node.
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

// quantizeBlockFused quantizes a chunk of up to 16 float rows into
// consecutive numPruned-wide lanes of dst (row i fills
// dst[i*numPruned : (i+1)*numPruned]), each rank computed by
// branchlessRank so the chunk's searches retire without mispredicts.
// The loop is feature-major: one pruned feature's cut segment is
// searched for every row of the chunk while it is cache-hot.
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
// votes (zeroed by the caller), walking four trees at a time: each lane
// carries its own tree base while all four read the same ranks.
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
// one-row chunk of a fused batch block does.
func (e *FlatForestEngine) predictRanked(q []uint16) int32 {
	var stack [maxStackClasses]int32
	votes := voteSlice(&stack, e.numClasses)
	e.voteRowFused(q, votes)
	return rf.Argmax(votes)
}

// voteChunkFused tallies every tree's class for each of a chunk's k
// quantized rows (row i's ranks at q[i*numPruned:]) into votes[i]
// (zeroed by the caller). Four lanes walk the chunk's (tree, row) pairs,
// dealt tree-major by pairDealer: voteRowFused's loop, with each lane
// also carrying its row's rank offset. When the pairs run out, the lanes
// still walking finish on their own.
func (e *FlatForestEngine) voteChunkFused(q []uint16, k int, votes *[16][]int32) {
	roots := e.roots
	if len(roots)*k < 4 {
		for _, root := range roots {
			for i := 0; i < k; i++ {
				votes[i][e.classifyCompactFused(q[i*e.numPruned:], root)]++
			}
		}
		return
	}
	nodes := e.nodes64
	d := pairDealer{roots: roots, votes: votes, nq: e.numPruned, k: k}
	b0, r0, o0 := d.start(0)
	b1, r1, o1 := d.start(1)
	b2, r2, o2 := d.start(2)
	b3, r3, o3 := d.start(3)
	for {
		for r0 >= 0 && r1 >= 0 && r2 >= 0 && r3 >= 0 {
			w0, w1, w2, w3 := nodes[b0+r0], nodes[b1+r1], nodes[b2+r2], nodes[b3+r3]
			r0 = fusedStepAt(w0, q, o0)
			r1 = fusedStepAt(w1, q, o1)
			r2 = fusedStepAt(w2, q, o2)
			r3 = fusedStepAt(w3, q, o3)
		}
		if d.t == len(roots) {
			break
		}
		// Deal every leafed lane a pair while pairs are left; the rest
		// keep their leaf for the drain below.
		if r0 < 0 {
			b0, r0, o0 = d.deal(0, r0)
		}
		if r1 < 0 && d.t < len(roots) {
			b1, r1, o1 = d.deal(1, r1)
		}
		if r2 < 0 && d.t < len(roots) {
			b2, r2, o2 = d.deal(2, r2)
		}
		if r3 < 0 && d.t < len(roots) {
			b3, r3, o3 = d.deal(3, r3)
		}
	}
	votes[d.row[0]][e.finishCompactFused(q[o0:], b0, r0)]++
	votes[d.row[1]][e.finishCompactFused(q[o1:], b1, r1)]++
	votes[d.row[2]][e.finishCompactFused(q[o2:], b2, r2)]++
	votes[d.row[3]][e.finishCompactFused(q[o3:], b3, r3)]++
}

// pairDealer hands out a chunk's (tree, row) pairs to voteChunkFused's
// four lanes in tree-major order, and remembers which row each lane
// walks so a leafed lane votes for it.
type pairDealer struct {
	roots []int32
	votes *[16][]int32
	nq, k int
	t, r  int    // the next pair: tree t, row r
	row   [4]int // the row lane i walks
}

// start deals lane i the next pair: its tree's base and first cursor
// (laneStart) and the rank offset of its row.
func (d *pairDealer) start(i int) (base, rel, off int) {
	base, rel = laneStart(d.roots[d.t])
	d.row[i], off = d.r, d.r*d.nq
	if d.r++; d.r == d.k {
		d.t, d.r = d.t+1, 0
	}
	return base, rel, off
}

// deal votes leafed lane i (rel < 0) for its row and deals it the next
// pair, which the caller has checked is left.
func (d *pairDealer) deal(i, rel int) (int, int, int) {
	d.votes[d.row[i]][^rel]++
	return d.start(i)
}

// predictBlockCompactFused is the compact arena's block loop. It
// quantizes the block in chunks of up to 16 rows into s.q and deals
// each chunk's (tree, row) pairs to four lanes (voteChunkFused). A
// one-row chunk walks its trees four at a time (voteRowFused) instead.
func (e *FlatForestEngine) predictBlockCompactFused(rows [][]float32, out []int32, s *flatScratch) {
	nq := e.numPruned
	for b := 0; b < len(rows); {
		k := min(len(rows)-b, 16)
		e.quantizeBlockFused(rows[b:b+k], s.q)
		var stack [16][maxStackClasses]int32
		votes := voteLanes16(&stack, s.votes, e.numClasses, k)
		if k == 1 {
			e.voteRowFused(s.q[:nq], votes[0])
		} else {
			e.voteChunkFused(s.q, k, &votes)
		}
		for i := 0; i < k; i++ {
			out[b+i] = rf.Argmax(votes[i])
		}
		b += k
	}
}
