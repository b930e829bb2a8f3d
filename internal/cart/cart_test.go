package cart

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"flint/internal/dataset"
	"flint/internal/rf"
)

// xorDataset is a small nonlinear problem a depth-2 tree solves exactly:
// label = (x0 > 0) XOR (x1 > 0).
func xorDataset(n int) *dataset.Dataset {
	d := &dataset.Dataset{Name: "xor", NumClasses: 2}
	vals := []float32{-2, -1.5, -1, -0.5, 0.5, 1, 1.5, 2}
	for i := 0; i < n; i++ {
		x0 := vals[i%len(vals)]
		x1 := vals[(i*3+1)%len(vals)]
		label := int32(0)
		if (x0 > 0) != (x1 > 0) {
			label = 1
		}
		d.Features = append(d.Features, []float32{x0, x1})
		d.Labels = append(d.Labels, label)
	}
	return d
}

func TestTrainTreeSolvesXOR(t *testing.T) {
	d := xorDataset(64)
	tree, err := TrainTree(d, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range d.Features {
		if got := tree.Predict(x); got != d.Labels[i] {
			t.Fatalf("tree mispredicts row %d: got %d want %d", i, got, d.Labels[i])
		}
	}
	if depth := tree.Depth(); depth < 2 {
		t.Errorf("XOR needs depth >= 2, got %d", depth)
	}
}

func TestMaxDepthRespected(t *testing.T) {
	d, err := dataset.Generate("magic", 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, maxDepth := range []int{1, 2, 5, 10} {
		f, err := TrainForest(d, Config{NumTrees: 3, MaxDepth: maxDepth, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if got := f.MaxDepth(); got > maxDepth {
			t.Errorf("MaxDepth=%d: trained depth %d", maxDepth, got)
		}
		// Depth-1 trees are stumps with exactly one split.
		if maxDepth == 1 {
			for _, tr := range f.Trees {
				if len(tr.Nodes) > 3 {
					t.Errorf("depth-1 tree has %d nodes", len(tr.Nodes))
				}
			}
		}
	}
}

func TestForestValidatesAndIsDeterministic(t *testing.T) {
	d, err := dataset.Generate("wine", 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{NumTrees: 5, MaxDepth: 8, Seed: 42}
	a, err := TrainForest(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("forest invalid: %v", err)
	}
	b, err := TrainForest(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNodes() != b.NumNodes() {
		t.Fatalf("same seed produced different forests: %d vs %d nodes", a.NumNodes(), b.NumNodes())
	}
	for ti := range a.Trees {
		for ni := range a.Trees[ti].Nodes {
			if a.Trees[ti].Nodes[ni] != b.Trees[ti].Nodes[ni] {
				t.Fatalf("tree %d node %d differs", ti, ni)
			}
		}
	}
	c, err := TrainForest(d, Config{NumTrees: 5, MaxDepth: 8, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNodes() == c.NumNodes() {
		same := true
		for ti := range a.Trees {
			for ni := range a.Trees[ti].Nodes {
				if a.Trees[ti].Nodes[ni] != c.Trees[ti].Nodes[ni] {
					same = false
				}
			}
		}
		if same {
			t.Error("different seeds produced identical forests")
		}
	}
}

func TestForestBeatsChance(t *testing.T) {
	for _, name := range dataset.Names() {
		d, err := dataset.Generate(name, 800, 11)
		if err != nil {
			t.Fatal(err)
		}
		train, test := d.Split(0.75, 1)
		f, err := TrainForest(train, Config{NumTrees: 10, MaxDepth: 12, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		acc := rf.Accuracy(f, test.Features, test.Labels)
		chance := 1.0 / float64(d.NumClasses)
		if acc < chance+0.15 {
			t.Errorf("%s: forest accuracy %.3f too close to chance %.3f", name, acc, chance)
		}
	}
}

func TestDeeperForestsGrow(t *testing.T) {
	// The depth sweep of Figure 3 only makes sense if raising the depth
	// cap actually yields deeper trees until the data is exhausted.
	d, err := dataset.Generate("gas", 600, 2)
	if err != nil {
		t.Fatal(err)
	}
	shallow, err := TrainForest(d, Config{NumTrees: 2, MaxDepth: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	deep, err := TrainForest(d, Config{NumTrees: 2, MaxDepth: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if deep.NumNodes() <= shallow.NumNodes() {
		t.Errorf("deeper cap did not grow the forest: %d vs %d nodes",
			deep.NumNodes(), shallow.NumNodes())
	}
}

func TestLeftFractionsRecorded(t *testing.T) {
	d, err := dataset.Generate("magic", 500, 9)
	if err != nil {
		t.Fatal(err)
	}
	f, err := TrainForest(d, Config{NumTrees: 2, MaxDepth: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	inner, nontrivial := 0, 0
	for _, tr := range f.Trees {
		for _, n := range tr.Nodes {
			if n.IsLeaf() {
				continue
			}
			inner++
			if n.LeftFraction <= 0 || n.LeftFraction >= 1 {
				t.Fatalf("inner node has degenerate LeftFraction %v", n.LeftFraction)
			}
			if n.LeftFraction != 0.5 {
				nontrivial++
			}
		}
	}
	if inner == 0 {
		t.Fatal("no inner nodes trained")
	}
	if nontrivial == 0 {
		t.Error("all branch probabilities are exactly 0.5; CAGS would be a no-op")
	}
}

func TestMinSamplesLeaf(t *testing.T) {
	d := xorDataset(64)
	f, err := TrainForest(d, Config{
		NumTrees: 1, MinSamplesLeaf: 10, DisableBootstrap: true, MaxFeatures: -1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Count samples reaching each leaf; none may hold fewer than 10.
	counts := make(map[int32]int)
	tr := f.Trees[0]
	for _, x := range d.Features {
		i := int32(0)
		for !tr.Nodes[i].IsLeaf() {
			if x[tr.Nodes[i].Feature] <= tr.Nodes[i].Split {
				i = tr.Nodes[i].Left
			} else {
				i = tr.Nodes[i].Right
			}
		}
		counts[i]++
	}
	for leaf, c := range counts {
		if c < 10 {
			t.Errorf("leaf %d holds %d samples, want >= 10", leaf, c)
		}
	}
}

func TestConstantFeaturesYieldLeaf(t *testing.T) {
	d := &dataset.Dataset{Name: "const", NumClasses: 2}
	for i := 0; i < 20; i++ {
		d.Features = append(d.Features, []float32{1.5, -2.5})
		d.Labels = append(d.Labels, int32(i%2))
	}
	tree, err := TrainTree(d, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Nodes) != 1 || !tree.Nodes[0].IsLeaf() {
		t.Fatalf("constant features must produce a single leaf, got %d nodes", len(tree.Nodes))
	}
}

func TestPureNodeStops(t *testing.T) {
	d := &dataset.Dataset{Name: "pure", NumClasses: 2}
	for i := 0; i < 20; i++ {
		d.Features = append(d.Features, []float32{float32(i)})
		d.Labels = append(d.Labels, 0)
	}
	tree, err := TrainTree(d, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Nodes) != 1 {
		t.Fatalf("pure dataset must produce a single leaf, got %d nodes", len(tree.Nodes))
	}
	if tree.Nodes[0].Class != 0 {
		t.Error("wrong leaf class")
	}
}

func TestMidpoint(t *testing.T) {
	if m := midpoint(1, 2); m != 1.5 {
		t.Errorf("midpoint(1,2) = %v", m)
	}
	// Adjacent float32 values: the midpoint would round to b, so the rule
	// must fall back to a.
	a := float32(1)
	b := math.Nextafter32(a, 2)
	if m := midpoint(a, b); m != a {
		t.Errorf("midpoint of adjacent floats = %v, want %v", m, a)
	}
	if m := midpoint(-2, -1); m != -1.5 {
		t.Errorf("midpoint(-2,-1) = %v", m)
	}
	// Large magnitudes must not overflow to +Inf.
	if m := midpoint(math.MaxFloat32, math.MaxFloat32); m != math.MaxFloat32 {
		t.Errorf("midpoint(max,max) = %v", m)
	}
}

func TestSplitsSeparateTrainingData(t *testing.T) {
	// Every trained split must route at least one training sample to each
	// side — the property midpoint() exists to protect.
	d, err := dataset.Generate("eye", 400, 13)
	if err != nil {
		t.Fatal(err)
	}
	f, err := TrainForest(d, Config{NumTrees: 3, MaxDepth: 10, Seed: 2, DisableBootstrap: true})
	if err != nil {
		t.Fatal(err)
	}
	for ti := range f.Trees {
		tr := &f.Trees[ti]
		for ni, n := range tr.Nodes {
			if n.IsLeaf() {
				continue
			}
			if n.LeftFraction <= 0 || n.LeftFraction >= 1 {
				t.Errorf("tree %d node %d: split does not separate (fraction %v)", ti, ni, n.LeftFraction)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	d := xorDataset(16)
	bad := []Config{
		{NumTrees: -1},
		{MaxDepth: -2},
		{MinSamplesSplit: 1},
		{MinSamplesLeaf: -1},
	}
	for i, cfg := range bad {
		if _, err := TrainForest(d, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := TrainForest(&dataset.Dataset{Name: "empty", NumClasses: 2}, Config{}); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestMaxFeaturesAll(t *testing.T) {
	d := xorDataset(64)
	f, err := TrainForest(d, Config{NumTrees: 1, MaxFeatures: -1, DisableBootstrap: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rf.Accuracy(f, d.Features, d.Labels) != 1 {
		t.Error("full-feature tree should fit XOR exactly")
	}
	// MaxFeatures beyond the dimensionality clamps.
	f2, err := TrainForest(d, Config{NumTrees: 1, MaxFeatures: 99, DisableBootstrap: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rf.Accuracy(f2, d.Features, d.Labels) != 1 {
		t.Error("clamped MaxFeatures should behave like all features")
	}
}

func TestGiniMass(t *testing.T) {
	if g := giniMass([]int64{5, 5}, 10); math.Abs(g-5) > 1e-12 {
		t.Errorf("giniMass balanced = %v, want 5 (0.5 * 10)", g)
	}
	if g := giniMass([]int64{10, 0}, 10); g != 0 {
		t.Errorf("giniMass pure = %v, want 0", g)
	}
	if g := giniMass(nil, 0); g != 0 {
		t.Errorf("giniMass empty = %v", g)
	}
}

// refTrainForest is TrainForest with the split search the trainer used
// before its integer-key rewrite: at every node, a fresh (value, label)
// slice per candidate feature, gathered from the row-major features and
// sorted with sort.Slice, and a stable out-of-place partition. It is the
// reference TestTrainMatchesReference pins the rewrite against.
func refTrainForest(d *dataset.Dataset, cfg Config) *rf.Forest {
	cfg = cfg.withDefaults()
	nf := d.NumFeatures()
	maxFeat := cfg.MaxFeatures
	switch {
	case maxFeat == 0:
		maxFeat = int(math.Round(math.Sqrt(float64(nf))))
		if maxFeat < 1 {
			maxFeat = 1
		}
	case maxFeat < 0 || maxFeat > nf:
		maxFeat = nf
	}
	forest := &rf.Forest{NumFeatures: nf, NumClasses: d.NumClasses, Trees: make([]rf.Tree, cfg.NumTrees)}
	for t := 0; t < cfg.NumTrees; t++ {
		rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(t)))
		idx := make([]int, d.Len())
		for i := range idx {
			if cfg.DisableBootstrap {
				idx[i] = i
			} else {
				idx[i] = rng.Intn(d.Len())
			}
		}
		b := &builder{data: d, cfg: cfg, maxFeat: maxFeat, rng: rng,
			features: make([]int, nf), classBuf: make([]int64, d.NumClasses)}
		for i := range b.features {
			b.features[i] = i
		}
		refGrow(b, idx, 0)
		forest.Trees[t] = rf.Tree{Nodes: b.nodes}
	}
	return forest
}

// refGrow is builder.grow over refBestSplit and refPartition.
func refGrow(b *builder, idx []int, depth int) int32 {
	hist := b.classHist(idx)
	if len(idx) < b.cfg.MinSamplesSplit || (b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) || isPure(hist) {
		return b.leaf(hist)
	}
	feat, split, ok := refBestSplit(b, idx, hist)
	if !ok {
		return b.leaf(hist)
	}
	left, right := refPartition(b.data, idx, feat, split)
	if len(left) < b.cfg.MinSamplesLeaf || len(right) < b.cfg.MinSamplesLeaf {
		return b.leaf(hist)
	}
	me := int32(len(b.nodes))
	b.nodes = append(b.nodes, rf.Node{Feature: int32(feat), Split: split,
		LeftFraction: float64(len(left)) / float64(len(idx))})
	l := refGrow(b, left, depth+1)
	r := refGrow(b, right, depth+1)
	b.nodes[me].Left = l
	b.nodes[me].Right = r
	return me
}

// refBestSplit is the reflection-sort split search.
func refBestSplit(b *builder, idx []int, hist []int64) (feat int, split float32, ok bool) {
	type splitCandidate struct {
		v float32
		y int32
	}
	n := int64(len(idx))
	parent := giniMass(hist, n)
	bestGain := 1e-12
	cand := make([]splitCandidate, len(idx))
	nf := len(b.features)
	for i := 0; i < b.maxFeat && i < nf; i++ {
		j := i + b.rng.Intn(nf-i)
		b.features[i], b.features[j] = b.features[j], b.features[i]
	}
	for fi := 0; fi < b.maxFeat && fi < nf; fi++ {
		f := b.features[fi]
		for i, s := range idx {
			cand[i] = splitCandidate{v: b.data.Features[s][f], y: b.data.Labels[s]}
		}
		sort.Slice(cand, func(i, j int) bool { return cand[i].v < cand[j].v })
		if cand[0].v == cand[len(cand)-1].v {
			continue
		}
		left := b.classBuf
		for c := range left {
			left[c] = 0
		}
		var nl int64
		for i := 0; i < len(cand)-1; i++ {
			left[cand[i].y]++
			nl++
			if cand[i].v == cand[i+1].v {
				continue
			}
			sumSqL, sumSqR := 0.0, 0.0
			for c := range left {
				l := float64(left[c])
				r := float64(hist[c] - left[c])
				sumSqL += l * l
				sumSqR += r * r
			}
			nr := n - nl
			child := (float64(nl) - sumSqL/float64(nl)) + (float64(nr) - sumSqR/float64(nr))
			if gain := parent - child; gain > bestGain {
				bestGain = gain
				feat = f
				split = midpoint(cand[i].v, cand[i+1].v)
				ok = true
			}
		}
	}
	return feat, split, ok
}

// refPartition is the stable out-of-place partition.
func refPartition(d *dataset.Dataset, idx []int, feat int, split float32) (left, right []int) {
	for _, s := range idx {
		if d.Features[s][feat] <= split {
			left = append(left, s)
		} else {
			right = append(right, s)
		}
	}
	return left, right
}

// sameForest reports the first node whose fields differ bit for bit
// between two forests, or ok.
func sameForest(a, b *rf.Forest) (tree, node int, ok bool) {
	if len(a.Trees) != len(b.Trees) {
		return -1, -1, false
	}
	for ti := range a.Trees {
		an, bn := a.Trees[ti].Nodes, b.Trees[ti].Nodes
		if len(an) != len(bn) {
			return ti, -1, false
		}
		for ni := range an {
			x, y := an[ni], bn[ni]
			if x.Feature != y.Feature || x.Left != y.Left || x.Right != y.Right || x.Class != y.Class ||
				math.Float32bits(x.Split) != math.Float32bits(y.Split) ||
				math.Float64bits(x.LeftFraction) != math.Float64bits(y.LeftFraction) {
				return ti, ni, false
			}
		}
	}
	return 0, 0, true
}

// TestTrainMatchesReference pins the integer-key split search to the
// reflection-sort reference: every node field of every tree must match
// bit for bit, on all five workloads under a bounded depth, unlimited
// depth with one candidate feature per node (flintperf large's shape)
// and all features without bootstrap — and on a dataset full of signed
// zeros and ties, where the key fold of -0 onto +0 and the in-place
// partition's reordering must not show.
func TestTrainMatchesReference(t *testing.T) {
	cfgs := []Config{
		{NumTrees: 3, MaxDepth: 20, Seed: 7},
		{NumTrees: 2, MaxFeatures: 1, Seed: 8},
		{NumTrees: 2, MaxFeatures: -1, DisableBootstrap: true, Seed: 9},
	}
	for _, name := range dataset.Names() {
		d, err := dataset.Generate(name, 600, 21)
		if err != nil {
			t.Fatal(err)
		}
		for ci, cfg := range cfgs {
			got, err := TrainForest(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ti, ni, ok := sameForest(got, refTrainForest(d, cfg)); !ok {
				t.Fatalf("%s config %d: tree %d node %d differs from the reference", name, ci, ti, ni)
			}
		}
	}
	zeros := &dataset.Dataset{Name: "zeros", NumClasses: 3}
	negZero := float32(math.Copysign(0, -1))
	vals := []float32{negZero, 0, negZero, 1, -1, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 2}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		zeros.Features = append(zeros.Features, []float32{vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]})
		zeros.Labels = append(zeros.Labels, int32(rng.Intn(3)))
	}
	for ci, cfg := range cfgs {
		got, err := TrainForest(zeros, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ti, ni, ok := sameForest(got, refTrainForest(zeros, cfg)); !ok {
			t.Fatalf("zeros config %d: tree %d node %d differs from the reference", ci, ti, ni)
		}
	}
}
