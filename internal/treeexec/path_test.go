package treeexec

import (
	"math"
	"math/rand"
	"testing"

	"flint/internal/core"
	"flint/internal/dataset"
	"flint/internal/rf"
)

// replayPath re-walks the source forest following the traced steps,
// verifying at every node that the step's feature and threshold are the
// trained split (exact bits, modulo the documented -0.0 -> +0.0
// rewrite) and that the recorded direction is the float-semantics
// decision; it returns the majority class of the leaves the replay
// lands on. This pins DecisionPath to the model, independently of any
// engine kernel.
func replayPath(t *testing.T, f *rf.Forest, x []float32, steps []PathStep, numClasses int) int32 {
	t.Helper()
	counts := make([]int32, numClasses)
	cursor := 0
	for ti := range f.Trees {
		nodes := f.Trees[ti].Nodes
		ni := int32(0)
		for !nodes[ni].IsLeaf() {
			if cursor >= len(steps) {
				t.Fatalf("tree %d: path ends mid-walk at node %d", ti, ni)
			}
			s := steps[cursor]
			cursor++
			n := &nodes[ni]
			if s.Tree != ti || s.Feature != n.Feature {
				t.Fatalf("tree %d node %d: step %+v does not match source node %+v", ti, ni, s, n)
			}
			want := n.Split
			if want == 0 {
				want = 0 // engines rewrite -0.0 splits to +0.0
			}
			if math.Float32bits(s.Threshold) != math.Float32bits(want) {
				t.Fatalf("tree %d node %d: threshold %v (bits %#x) does not decode the trained split %v (bits %#x)",
					ti, ni, s.Threshold, math.Float32bits(s.Threshold), want, math.Float32bits(want))
			}
			le := x[n.Feature] <= want
			if s.Right == le {
				t.Fatalf("tree %d node %d: direction Right=%v disagrees with %v <= %v", ti, ni, s.Right, x[n.Feature], want)
			}
			if le {
				ni = n.Left
			} else {
				ni = n.Right
			}
		}
		counts[nodes[ni].Class]++
	}
	if cursor != len(steps) {
		t.Fatalf("path has %d extra steps past the last tree", len(steps)-cursor)
	}
	return rf.Argmax(counts)
}

// TestDecisionPathBitConsistentAllWorkloads is the tentpole acceptance
// test for the tracing half: on every bundled workload and every arena
// variant, the traced path must replay exactly on the source forest and
// its class must match Predict — and, for the compact arena, match the
// batch walk.
func TestDecisionPathBitConsistentAllWorkloads(t *testing.T) {
	for _, ds := range dataset.Names() {
		ds := ds
		t.Run(ds, func(t *testing.T) {
			f, d := trainedForest(t, ds, 8, 6)
			rows := d.Features
			if len(rows) > 160 {
				rows = rows[:160]
			}
			for _, v := range []FlatVariant{FlatFLInt, FlatFloat32, FlatPrecoded, FlatCompact} {
				e, err := NewFlat(f, v)
				if err != nil {
					t.Fatal(err)
				}
				var buf []PathStep
				want := make([]int32, len(rows))
				for i, x := range rows {
					var got int32
					buf, got = e.DecisionPath(x, buf)
					want[i] = e.Predict(x)
					if got != want[i] {
						t.Fatalf("%v row %d: DecisionPath class %d, Predict %d", v, i, got, want[i])
					}
					if replayed := replayPath(t, f, x, buf, e.NumClasses()); replayed != got {
						t.Fatalf("%v row %d: replayed class %d, traced class %d", v, i, replayed, got)
					}
					if e.Variant() == FlatCompact {
						for _, s := range buf {
							p := -1
							for pi, orig := range e.prunedOrig {
								if orig == s.Feature {
									p = pi
								}
							}
							if p < 0 {
								t.Fatalf("step feature %d is not a pruned feature", s.Feature)
							}
							if k := core.PrecodeSplit32(s.Threshold); e.cuts[e.cutLo[p]+int32(s.Rank)] != k {
								t.Fatalf("step rank %d does not index threshold %v in feature %d's cut table", s.Rank, s.Threshold, s.Feature)
							}
						}
					}
				}
				if e.Variant() != FlatCompact {
					continue
				}
				out := e.PredictBatch(rows, nil, 2, 16)
				for i := range rows {
					if out[i] != want[i] {
						t.Fatalf("row %d: batch class %d, traced class %d", i, out[i], want[i])
					}
				}
			}
		})
	}
}

// TestDecisionPathAdversarialRandomForests drives the tracer over
// randomly grown trees on the extreme split-value pool (signed zeros,
// subnormals, extremes) — the corner inputs where a float re-derivation
// of the walk would first disagree with the kernels' integer
// predicates.
func TestDecisionPathAdversarialRandomForests(t *testing.T) {
	rng := rand.New(rand.NewSource(7331))
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
			if d == 0 || rng.Float64() < 0.3 {
				nodes = append(nodes, rf.Node{Feature: rf.LeafFeature, Class: int32(rng.Intn(3))})
				return me
			}
			nodes = append(nodes, rf.Node{
				Feature:      int32(rng.Intn(4)),
				Split:        splitPool[rng.Intn(len(splitPool))],
				LeftFraction: rng.Float64(),
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
	for trial := 0; trial < 20; trial++ {
		f := &rf.Forest{NumFeatures: 4, NumClasses: 3,
			Trees: []rf.Tree{randTree(6), randTree(6), randTree(6)}}
		for _, v := range []FlatVariant{FlatFLInt, FlatFloat32, FlatPrecoded, FlatCompact} {
			e, err := NewFlat(f, v)
			if err != nil {
				t.Fatal(err)
			}
			var buf []PathStep
			x := make([]float32, 4)
			for probe := 0; probe < 48; probe++ {
				for j := range x {
					if rng.Intn(2) == 0 {
						x[j] = splitPool[rng.Intn(len(splitPool))]
					} else {
						x[j] = splitPool[rng.Intn(len(splitPool))] * float32(rng.NormFloat64())
					}
				}
				var got int32
				buf, got = e.DecisionPath(x, buf)
				if want := e.Predict(x); got != want {
					t.Fatalf("trial %d %v: DecisionPath class %d, Predict %d for %v", trial, v, got, want, x)
				}
			}
		}
	}
}

// TestDecisionPathLeafOnlyTrees pins the degenerate shape: a forest of
// single-leaf trees votes but traces no steps.
func TestDecisionPathLeafOnlyTrees(t *testing.T) {
	f := &rf.Forest{NumFeatures: 2, NumClasses: 3, Trees: []rf.Tree{
		{Nodes: []rf.Node{{Feature: rf.LeafFeature, Class: 2}}},
		{Nodes: []rf.Node{{Feature: rf.LeafFeature, Class: 2}}},
		{Nodes: []rf.Node{{Feature: rf.LeafFeature, Class: 1}}},
	}}
	for _, v := range []FlatVariant{FlatFLInt, FlatCompact} {
		e, err := NewFlat(f, v)
		if err != nil {
			t.Fatal(err)
		}
		steps, class := e.DecisionPath([]float32{3, 4}, nil)
		if len(steps) != 0 || class != 2 {
			t.Fatalf("%v: got %d steps, class %d; want 0 steps, class 2", v, len(steps), class)
		}
	}
}
