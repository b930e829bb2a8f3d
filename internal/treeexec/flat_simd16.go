package treeexec

import "flint/internal/rf"

// The dual-group SIMD walk attacks the gather-latency bound that keeps
// the 8-lane kernel (flat_simd.go) behind the scalar fused walk: with a
// single group, the two VPGATHERDQ node fetches and the VPGATHERDD rank
// fetch per level form one serial chain, and the out-of-order core has
// nothing else to issue while they are in flight. This walk keeps TWO
// independent 8-lane groups resident — issue group A's node gathers,
// then do group B's field-extract/compare/select while A's loads are in
// flight, and vice versa — so every gather round-trip overlaps a full
// level of independent ALU work (software pipelining in the style of
// the FPGA deep-forest accelerators that interleave tree walks to hide
// memory latency).
//
// The second half of the fix is lane compaction. A vector group walks
// to its deepest lane; with 8 lanes that is the expected maximum of 8
// chain lengths, and the tail levels run nearly empty. Instead of
// compacting in registers, the walk RETURNS to Go when occupancy drops
// below a threshold (minActive), and the streaming driver retires the
// finished lanes' votes and refills them from its (tree, row) work
// queue — a permute in scheduling space rather than a VPERMD, which
// also removes the group-shape restriction: each lane carries its own
// tree base and its own quantized-row offset, so one vector group can
// walk 16 different (tree, row) pairs at once.
//
// Lane protocol matches the 8-lane walk: cur[i] >= 0 is an active
// cursor relative to base[i], cur[i] < 0 holds ^class (or parks an
// empty lane at -1 = ^0, which the driver distinguishes by rowOf).

// simdWalk16 is the register-file state of the dual-group walk: group A
// is lanes 0..7, group B lanes 8..15. base[i] is lane i's tree arena
// base and qoff[i] its element offset into the 16-lane rank scratch
// (row index * numPruned) — per-lane, because compaction-refill means
// lanes of one group walk different trees and different rows. The
// layout is load-bearing for the assembly form: three contiguous
// 64-byte arrays, one YMM register pair each.
type simdWalk16 struct {
	cur  [16]int32
	base [16]int32
	qoff [16]int32
}

// fusedWalk16Go is the portable dual-group walk, and the semantic
// contract the assembly form must match exactly: at the top of every
// level, count active lanes and return when the count drops below
// minActive; otherwise step every active lane once. Stepping all
// active lanes exactly once per level (rather than looping a lane to
// its leaf) is what makes the asm and Go forms agree on *state* at
// return, not just on final classes — the driver resumes either form
// mid-walk after a refill.
func fusedWalk16Go(nodes []uint64, q []uint16, st *simdWalk16, minActive int32) {
	for {
		active := int32(0)
		for i := range st.cur {
			if st.cur[i] >= 0 {
				active++
			}
		}
		if active < minActive {
			return
		}
		for i := range st.cur {
			if st.cur[i] >= 0 {
				w := nodes[st.base[i]+st.cur[i]]
				st.cur[i] = int32(fusedStep(w, q[st.qoff[i]:]))
			}
		}
	}
}

// predictBlockCompactSIMD16 is the width-16 SIMD block loop: chunks of
// up to 16 rows quantize into the 16 rank lanes of s.q, then a single
// work queue of (tree, row) pairs streams through the dual-group walk.
// refill is the occupancy threshold: the walk returns when fewer than
// refill lanes remain active, and finished lanes vote and refill from
// the queue, so the group never walks to its deepest lane while work
// is pending. refill <= 0 selects the kernel default; refill == 1
// disables compaction (a group drains fully before the driver looks at
// it again) — both are calibrated candidates in the mode ladder.
func (e *FlatForestEngine) predictBlockCompactSIMD16(rows [][]float32, out []int32, s *flatScratch, refill int32) {
	if refill <= 0 {
		refill = defaultSIMDRefill
	}
	if refill > 16 {
		refill = 16
	}
	nq := int32(e.numPruned)
	nc := e.numClasses
	nodes := e.nodes64
	roots := e.roots
	for b := 0; b < len(rows); {
		k := len(rows) - b
		if k > 16 {
			k = 16
		}
		chunk := rows[b : b+k]
		h := k
		if h > 8 {
			h = 8
		}
		e.quantizeBlockSIMD(chunk[:h], s.q)
		if k > 8 {
			e.quantizeBlockSIMD(chunk[8:], s.q[8*int(nq):])
		}
		var stack [16][maxStackClasses]int32
		lanes := voteLanes16(&stack, s.votes, nc, k)

		// Work queue: (tree ti, row ri), tree-major so one tree's nodes
		// stay cache-resident across its k rows. Leaf-only trees vote
		// immediately and never occupy a lane.
		var st simdWalk16
		var rowOf [16]int32
		for i := range rowOf {
			// Every lane starts empty (not "walking row 0"): the first
			// pass of the fill loop below assigns real work.
			rowOf[i] = -1
			st.cur[i] = -1
		}
		ti, ri := 0, 0
		for {
			// Retire finished lanes, then refill every free lane from
			// the queue (or park it at -1 with rowOf -1).
			for i := 0; i < 16; i++ {
				if rowOf[i] >= 0 && st.cur[i] < 0 {
					lanes[rowOf[i]][^st.cur[i]]++
					rowOf[i] = -1
				}
				if rowOf[i] < 0 {
					for ti < len(roots) && roots[ti] < 0 {
						c := ^roots[ti]
						for j := 0; j < k; j++ {
							lanes[j][c]++
						}
						ti++
					}
					if ti < len(roots) {
						st.cur[i] = 0
						st.base[i] = roots[ti]
						st.qoff[i] = int32(ri) * nq
						rowOf[i] = int32(ri)
						ri++
						if ri == k {
							ri = 0
							ti++
						}
					} else {
						st.cur[i] = -1
						rowOf[i] = -1
					}
				}
			}
			na := int32(0)
			for i := 0; i < 16; i++ {
				if st.cur[i] >= 0 {
					na++
				}
			}
			if na == 0 {
				break
			}
			// Once the queue is dry (or the fill came up short on a
			// small forest) no refill can raise occupancy, so drain
			// fully — otherwise the walk would return immediately with
			// active < minActive and the driver would spin.
			ma := refill
			if ti >= len(roots) || na < ma {
				ma = 1
			}
			fusedWalk16(nodes, s.q, &st, ma)
		}
		for i := 0; i < k; i++ {
			out[b+i] = rf.Argmax(lanes[i])
		}
		b += k
	}
}
