package treeexec

import (
	"math"

	"flint/internal/ieee754"
	"flint/internal/rf"
)

// The SIMD kernel is the vector form of the fused walk: where the fused
// kernel executes 8 scalar branch-free steps per group per level, this
// kernel executes one 8-lane vector step — gather the 8 cursors' fused
// node words, extract key/feat/kids with vector shifts and masks,
// gather the 8 quantized ranks, and run the (key - q) >> 31 child
// select entirely in vector registers. The quantizer gets the same
// treatment: one feature's cut segment is binary-searched against 8
// rows' keys at a time, all lanes halving in lockstep because the
// segment bounds — and therefore the iteration count — are shared.
//
// The vector step itself lives behind two small primitives with
// per-architecture implementations:
//
//	fusedWalk8(nodes, base, q, nq, cur)  — step 8 cursors to their leaves
//	fusedRank8(cuts, lo, n, keys, ranks) — rank 8 keys in one cut segment
//
// On amd64 hosts with AVX2 (flat_fused_amd64.go/.s) these are Go
// assembly; everywhere else (flat_fused_noasm.go) they fall back to the
// portable lane-parallel forms below, which exist so the kernel stays
// runnable, testable and bit-identical on every platform even though
// calibration only ever volunteers it where the native ISA is present.
//
// Lane protocol: cur[i] >= 0 is an active cursor (node index relative
// to base), cur[i] < 0 is a finished lane holding ^class. Groups
// narrower than 8 start their unused lanes at -1, so the same walk
// serves every interleave width with no scalar drain path — an
// inactive lane's gathers are masked off and its cursor rides along
// unchanged.

// DetectedISA reports the vector ISA the SIMD kernel executes natively
// on this host: "avx2" on amd64 hosts with AVX2 (and without the noasm
// build tag), "" where only the portable fallback is available.
func DetectedISA() string { return detectedISA() }

// fusedWalk8Go is the portable 8-lane fused walk: every active lane is
// stepped once per pass until all lanes hold leaf classes. Lane i's
// quantized row is q[i*nq : (i+1)*nq] — the contiguous scratch layout
// the vector gathers index directly.
func fusedWalk8Go(nodes []uint64, base int32, q []uint16, nq int32, cur *[8]int32) {
	for {
		active := false
		for i := range cur {
			if cur[i] >= 0 {
				active = true
				lane := q[int32(i)*nq : (int32(i)+1)*nq]
				cur[i] = int32(fusedStep(nodes[base+cur[i]], lane))
			}
		}
		if !active {
			return
		}
	}
}

// fusedRank8Go is the portable 8-lane segment rank: each key is ranked
// against cuts[lo:lo+n] by the scalar branchless search. The vector
// form runs the identical halving sequence in lockstep, so per-lane
// results agree exactly.
func fusedRank8Go(cuts []uint32, lo, n int32, keys *[8]uint32, ranks *[8]uint16) {
	for i := range keys {
		ranks[i] = branchlessRank(cuts, lo, lo+n, keys[i])
	}
}

// quantizeBlockSIMD is quantizeBlockFused with the 8-lane segment rank:
// feature-major over the pruned features, ranking the whole group's
// keys against each feature's cut segment in one vector search. Lanes
// beyond the group are padded with lane 0's key — their searches run
// (the vector has no partial width) but their ranks are not written.
func (e *FlatForestEngine) quantizeBlockSIMD(rows [][]float32, dst []uint16) {
	cuts, cutLo := e.cuts, e.cutLo
	nq := e.numPruned
	n := len(rows)
	var keys [8]uint32
	var ranks [8]uint16
	for p, f := range e.prunedOrig {
		lo, hi := cutLo[p], cutLo[p+1]
		if hi == lo {
			// Empty segment: rank 0 for every row, and nothing for the
			// vector search to probe.
			for i := 0; i < n; i++ {
				dst[i*nq+p] = 0
			}
			continue
		}
		for i := 0; i < n; i++ {
			keys[i] = ieee754.TotalOrderKey32(math.Float32bits(rows[i][f]))
		}
		for i := n; i < 8; i++ {
			keys[i] = keys[0]
		}
		fusedRank8(cuts, lo, hi-lo, &keys, &ranks)
		for i := 0; i < n; i++ {
			dst[i*nq+p] = ranks[i]
		}
	}
}

// classifySIMDGroup walks one tree for a group of k quantized rows
// (lanes of q, k <= 8) and writes the k leaf classes into cls. Lanes
// k..7 start finished so the vector walk never touches their scratch.
func (e *FlatForestEngine) classifySIMDGroup(root int32, k int, q []uint16, cls *[8]int32) {
	if root < 0 {
		for i := 0; i < k; i++ {
			cls[i] = ^root
		}
		return
	}
	var cur [8]int32
	for i := k; i < 8; i++ {
		cur[i] = -1
	}
	fusedWalk8(e.nodes64, root, q, int32(e.numPruned), &cur)
	for i := 0; i < k; i++ {
		cls[i] = ^cur[i]
	}
}

// predictBlockCompactSIMD is the SIMD-kernel block loop. Unlike the
// branchy kernel's 8/4/2/1 cascade, one group shape serves every width:
// a group of k = min(width, remaining) rows quantizes and walks with
// lanes k..7 inactive, so remainders need no separate narrow kernels.
func (e *FlatForestEngine) predictBlockCompactSIMD(rows [][]float32, out []int32, s *flatScratch, width int) {
	nc := e.numClasses
	for b := 0; b < len(rows); {
		k := len(rows) - b
		if k > width {
			k = width
		}
		e.quantizeBlockSIMD(rows[b:b+k], s.q)
		var stack [8][maxStackClasses]int32
		lanes := voteLanes(&stack, s.votes, nc, k)
		var cls [8]int32
		for _, root := range e.roots {
			e.classifySIMDGroup(root, k, s.q, &cls)
			for i := 0; i < k; i++ {
				lanes[i][cls[i]]++
			}
		}
		for i := 0; i < k; i++ {
			out[b+i] = rf.Argmax(lanes[i])
		}
		b += k
	}
}
