package treeexec

import (
	"math"

	"flint/internal/core"
	"flint/internal/ieee754"
	"flint/internal/rf"
)

// Decision-path tracing: the same forest walk every kernel runs, but
// recording each inner-node decision instead of only the terminal
// class. The robustness tooling (internal/robust) is built on it — an
// attacker perturbing a row needs to know which thresholds the row's
// walk actually touched and in which direction it crossed them — and it
// doubles as an explainability surface: the full evidence trail behind
// one prediction.
//
// Tracing deliberately reuses each variant's exact comparison predicate
// (FLInt sign-resolved compare, hardware float compare, total-order
// key compare, quantized rank compare), so the traced direction at
// every node is the decision the serving kernels take — not a float
// re-derivation that could disagree in the -0.0/NaN corners. All batch
// kernels (branchy, fused, simd, at every interleave width) are
// bit-identical to the single-row walk by construction and by test, so
// a path traced here is the path any serving configuration walked.

// PathStep records one inner-node decision of a forest walk: the node
// visited, the input column it examined, the split threshold it
// compared against, and the direction the walk took. The FLInt
// comparison convention applies: a row goes left exactly when
// x[Feature] <= Threshold in float total order, so Right reports the
// strict "greater" outcome.
//
// Threshold is the split decoded from the arena back into float space;
// the decoding is exact (arena keys are bijective images of the trained
// split values), so core.PrecodeSplit32(Threshold) reproduces the key
// the kernel compared against. Rank is the threshold's index in the
// feature's sorted distinct cut table — the quantized-rank space the
// compact kernels walk in — and is 0 for the AoS variants, which keep
// no cut tables.
type PathStep struct {
	Tree      int     // tree index within the forest
	Node      int32   // absolute arena index of the inner node
	Feature   int32   // original input column the node examines
	Threshold float32 // split value; x <= Threshold walks left
	Rank      uint16  // split rank in the feature's cut table (compact only)
	Right     bool    // true when the walk took the strict-greater child
}

// DecisionPath walks every tree of the forest for one row, appending
// each inner-node decision to buf (which may be nil; pass the returned
// slice back in to amortize its allocation across rows) and returning
// the steps together with the majority-vote class. The class is
// bit-consistent with Predict for every (kernel, width) serving mode:
// the trace drives the same per-variant comparison the kernels execute,
// and those are bit-identical across kernels by contract.
//
// Leaf-only trees contribute a vote but no steps. The per-row cost is
// one full forest walk plus a step append per inner node visited; keep
// it off the serving hot path and use Predict/PredictBatch there.
func (e *FlatForestEngine) DecisionPath(x []float32, buf []PathStep) ([]PathStep, int32) {
	buf = buf[:0]
	var stack [maxStackClasses]int32
	counts := voteSlice(&stack, e.numClasses)

	if e.variant == FlatCompact {
		var qs [maxStackQuantizedFeatures]uint16
		q := e.rowRanks(&qs)
		e.quantizeBlockFused([][]float32{x}, q)
		for ti, root := range e.roots {
			var class int32
			buf, class = e.traceCompact(q, ti, root, buf)
			counts[class]++
		}
		return buf, rf.Argmax(counts)
	}

	// All AoS variants compare in spaces that are monotone images of
	// the float total order, so one precoded key vector drives every
	// predicate below exactly (see the per-variant le computation).
	var kstack [maxStackQuantizedFeatures]uint32
	var keys []uint32
	if e.numFeatures <= maxStackQuantizedFeatures {
		keys = core.PrecodeFeatures32(kstack[:0:e.numFeatures], x)
	} else {
		keys = core.PrecodeFeatures32(nil, x)
	}
	for ti, root := range e.roots {
		var class int32
		buf, class = e.traceAoS(keys, ti, root, buf)
		counts[class]++
	}
	return buf, rf.Argmax(counts)
}

// traceCompact is classifyCompact with step recording: the identical
// rank-space predicate, plus the threshold decoded from the cut table
// the rank indexes.
func (e *FlatForestEngine) traceCompact(q []uint16, ti int, root int32, buf []PathStep) ([]PathStep, int32) {
	if root < 0 {
		return buf, ^root
	}
	keys, feats, kids := e.keys16, e.feats16, e.kids
	base := int(root)
	rel := 0
	for rel >= 0 {
		i := base + rel
		w := kids[i]
		p := feats[i]
		rank := keys[i]
		le := q[p] <= rank
		buf = append(buf, PathStep{
			Tree:      ti,
			Node:      int32(i),
			Feature:   e.prunedOrig[p],
			Threshold: math.Float32frombits(ieee754.FromTotalOrderKey32(e.cuts[e.cutLo[p]+int32(rank)])),
			Rank:      rank,
			Right:     !le,
		})
		if le {
			rel = int(int16(w))
		} else {
			rel = int(int16(w >> 16))
		}
	}
	return buf, int32(^rel)
}

// traceAoS walks one AoS-arena tree over precoded total-order keys,
// recording each decision. For every AoS variant the stored key is a
// monotone bijection of the split's total-order key, so the single
// uint32 compare here takes exactly the branch the variant's own
// predicate takes (the cross-variant agreement the engine test suite
// pins), while the threshold decodes per the variant's key space.
func (e *FlatForestEngine) traceAoS(keys []uint32, ti int, root int32, buf []PathStep) ([]PathStep, int32) {
	arena := e.arena
	i := root
	for i >= 0 {
		n := &arena[i]
		var threshold float32
		switch e.variant {
		case FlatPrecoded:
			threshold = math.Float32frombits(ieee754.FromTotalOrderKey32(uint32(n.key)))
		default: // FlatFLInt and FlatFloat32 store SI(bits(split))
			threshold = ieee754.FromSI32(n.key)
		}
		le := keys[n.feature] <= core.PrecodeSplit32(threshold)
		buf = append(buf, PathStep{
			Tree:      ti,
			Node:      i,
			Feature:   n.feature,
			Threshold: threshold,
			Right:     !le,
		})
		if le {
			i = n.left
		} else {
			i = n.right
		}
	}
	return buf, ^i
}
