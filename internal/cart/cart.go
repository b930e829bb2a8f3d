// Package cart trains random forests of CART decision trees, replacing
// the scikit-learn training step of the paper's evaluation (Section V-A).
//
// The trainer mirrors scikit-learn's RandomForestClassifier defaults where
// they matter for this reproduction: Gini impurity, bootstrap resampling,
// sqrt(features) candidate features per node, midpoint split thresholds
// stored as float32, and a maximal tree depth that counts edges (so the
// paper's "maximal depth 1" is a single split). Hyper-parameter tuning is
// explicitly out of the paper's scope, and out of this package's too.
//
// During construction the trainer records, for every inner node, the
// empirical fraction of training samples that take the left branch. This
// is the branch-probability information the CAGS optimization of Chen et
// al. consumes (package cags).
package cart

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"flint/internal/core"
	"flint/internal/dataset"
	"flint/internal/ieee754"
	"flint/internal/rf"
)

// Config controls forest training. The zero value requests the defaults
// documented on each field.
type Config struct {
	// NumTrees is the ensemble size. Default 10.
	NumTrees int
	// MaxDepth limits the number of edges on any root-to-leaf path.
	// 0 means unlimited.
	MaxDepth int
	// MinSamplesSplit is the smallest node size that may still be
	// split. Default 2.
	MinSamplesSplit int
	// MinSamplesLeaf is the smallest sample count a child may receive.
	// Default 1.
	MinSamplesLeaf int
	// MaxFeatures is the number of candidate features examined per
	// node. 0 selects round(sqrt(NumFeatures)), scikit-learn's
	// classifier default. Negative selects all features.
	MaxFeatures int
	// DisableBootstrap trains every tree on the full training set
	// instead of a bootstrap resample.
	DisableBootstrap bool
	// Seed makes training deterministic. Trees t derives its private
	// stream from Seed and t.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.NumTrees == 0 {
		c.NumTrees = 10
	}
	if c.MinSamplesSplit == 0 {
		c.MinSamplesSplit = 2
	}
	if c.MinSamplesLeaf == 0 {
		c.MinSamplesLeaf = 1
	}
	return c
}

func (c Config) validate() error {
	if c.NumTrees < 1 {
		return fmt.Errorf("cart: NumTrees = %d, want >= 1", c.NumTrees)
	}
	if c.MaxDepth < 0 {
		return fmt.Errorf("cart: MaxDepth = %d, want >= 0", c.MaxDepth)
	}
	if c.MinSamplesSplit < 2 {
		return fmt.Errorf("cart: MinSamplesSplit = %d, want >= 2", c.MinSamplesSplit)
	}
	if c.MinSamplesLeaf < 1 {
		return fmt.Errorf("cart: MinSamplesLeaf = %d, want >= 1", c.MinSamplesLeaf)
	}
	return nil
}

// TrainForest trains a random forest on the dataset.
func TrainForest(d *dataset.Dataset, cfg Config) (*rf.Forest, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("cart: cannot train on empty dataset %s", d.Name)
	}
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

	forest := &rf.Forest{
		NumFeatures: nf,
		NumClasses:  d.NumClasses,
		Trees:       make([]rf.Tree, cfg.NumTrees),
	}
	cols := keyColumns(d)
	keys := make([]uint64, d.Len())
	for t := 0; t < cfg.NumTrees; t++ {
		rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(t)))
		idx := make([]int, d.Len())
		if cfg.DisableBootstrap {
			for i := range idx {
				idx[i] = i
			}
		} else {
			for i := range idx {
				idx[i] = rng.Intn(d.Len())
			}
		}
		b := &builder{
			data:     d,
			cols:     cols,
			keys:     keys,
			cfg:      cfg,
			maxFeat:  maxFeat,
			rng:      rng,
			features: make([]int, nf),
			classBuf: make([]int64, d.NumClasses),
		}
		for i := range b.features {
			b.features[i] = i
		}
		b.grow(idx, 0)
		forest.Trees[t] = rf.Tree{Nodes: b.nodes}
	}
	if err := forest.Validate(); err != nil {
		return nil, fmt.Errorf("cart: trained forest fails validation: %w", err)
	}
	return forest, nil
}

// TrainTree trains a single deterministic decision tree on the full
// dataset without bootstrap or feature subsampling — the classic CART
// setting, useful for tests and the code generation examples.
func TrainTree(d *dataset.Dataset, maxDepth int, seed int64) (*rf.Tree, error) {
	f, err := TrainForest(d, Config{
		NumTrees:         1,
		MaxDepth:         maxDepth,
		MaxFeatures:      -1,
		DisableBootstrap: true,
		Seed:             seed,
	})
	if err != nil {
		return nil, err
	}
	return &f.Trees[0], nil
}

// keyColumns copies the dataset's features column-major, each value as
// its total-order key (core.PrecodeSplit32: -0 folded onto +0), so the
// split search gathers one feature's samples from one contiguous column
// and sorts plain integers. x <= s exactly when key(x) <= key(s) for
// every non-NaN x, and Validate has rejected NaN.
func keyColumns(d *dataset.Dataset) [][]uint32 {
	cols := make([][]uint32, d.NumFeatures())
	for f := range cols {
		col := make([]uint32, d.Len())
		for s, x := range d.Features {
			col[s] = core.PrecodeSplit32(x[f])
		}
		cols[f] = col
	}
	return cols
}

// keyValue decodes a total-order key back to its float32 value.
func keyValue(k uint32) float32 {
	return math.Float32frombits(ieee754.FromTotalOrderKey32(k))
}

// builder grows one tree.
type builder struct {
	data     *dataset.Dataset
	cols     [][]uint32 // keyColumns(data), shared by every tree
	keys     []uint64   // bestSplit scratch, one word per sample
	cfg      Config
	maxFeat  int
	rng      *rand.Rand
	nodes    []rf.Node
	features []int   // identity permutation, partially shuffled per node
	classBuf []int64 // scratch class histogram
}

// grow appends the subtree for the samples in idx and returns its root's
// node index.
func (b *builder) grow(idx []int, depth int) int32 {
	hist := b.classHist(idx)
	if len(idx) < b.cfg.MinSamplesSplit ||
		(b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) ||
		isPure(hist) {
		return b.leaf(hist)
	}
	feat, split, ok := b.bestSplit(idx, hist)
	if !ok {
		return b.leaf(hist)
	}
	left, right := partition(b.cols[feat], idx, split)
	if len(left) < b.cfg.MinSamplesLeaf || len(right) < b.cfg.MinSamplesLeaf {
		return b.leaf(hist)
	}
	me := int32(len(b.nodes))
	b.nodes = append(b.nodes, rf.Node{
		Feature:      int32(feat),
		Split:        split,
		LeftFraction: float64(len(left)) / float64(len(idx)),
	})
	l := b.grow(left, depth+1)
	r := b.grow(right, depth+1)
	b.nodes[me].Left = l
	b.nodes[me].Right = r
	return me
}

func (b *builder) leaf(hist []int64) int32 {
	best := 0
	for c := 1; c < len(hist); c++ {
		if hist[c] > hist[best] {
			best = c
		}
	}
	me := int32(len(b.nodes))
	b.nodes = append(b.nodes, rf.Node{Feature: rf.LeafFeature, Class: int32(best)})
	return me
}

func (b *builder) classHist(idx []int) []int64 {
	hist := make([]int64, b.data.NumClasses)
	for _, i := range idx {
		hist[b.data.Labels[i]]++
	}
	return hist
}

func isPure(hist []int64) bool {
	nonzero := 0
	for _, c := range hist {
		if c > 0 {
			nonzero++
		}
	}
	return nonzero <= 1
}

// gini returns n * (1 - sum_c p_c^2) scaled by n, i.e. the impurity mass,
// so weighted sums across children need no division.
func giniMass(hist []int64, n int64) float64 {
	if n == 0 {
		return 0
	}
	sumSq := 0.0
	for _, c := range hist {
		sumSq += float64(c) * float64(c)
	}
	return float64(n) - sumSq/float64(n)
}

// bestSplit scans maxFeat randomly chosen features for the Gini-optimal
// split of the samples in idx. It returns ok=false when no feature admits
// a separating threshold (all candidate features constant).
//
// Each feature's samples are sorted as one word apiece, key<<32 | label,
// with the samples' feature keys from the column copy. The scan only
// looks at boundaries between distinct values, where the left histogram
// holds exactly the samples at or below the value whatever their order,
// so the result depends neither on the order of idx nor on how ties
// sort.
func (b *builder) bestSplit(idx []int, hist []int64) (feat int, split float32, ok bool) {
	n := int64(len(idx))
	parent := giniMass(hist, n)
	bestGain := 1e-12
	keys := b.keys[:len(idx)]

	// Partial Fisher-Yates over the feature identity permutation gives a
	// uniform random subset of maxFeat features.
	nf := len(b.features)
	for i := 0; i < b.maxFeat && i < nf; i++ {
		j := i + b.rng.Intn(nf-i)
		b.features[i], b.features[j] = b.features[j], b.features[i]
	}

	labels := b.data.Labels
	for fi := 0; fi < b.maxFeat && fi < nf; fi++ {
		f := b.features[fi]
		col := b.cols[f]
		for i, s := range idx {
			keys[i] = uint64(col[s])<<32 | uint64(uint32(labels[s]))
		}
		slices.Sort(keys)
		if keys[0]>>32 == keys[len(keys)-1]>>32 {
			continue // constant feature
		}
		left := b.classBuf
		for c := range left {
			left[c] = 0
		}
		var nl int64
		for i := 0; i < len(keys)-1; i++ {
			left[uint32(keys[i])]++
			nl++
			if keys[i]>>32 == keys[i+1]>>32 {
				continue
			}
			// right histogram = hist - left, impurity mass via sums.
			sumSqL, sumSqR := 0.0, 0.0
			for c := range left {
				l := float64(left[c])
				r := float64(hist[c] - left[c])
				sumSqL += l * l
				sumSqR += r * r
			}
			nr := n - nl
			child := (float64(nl) - sumSqL/float64(nl)) + (float64(nr) - sumSqR/float64(nr))
			gain := parent - child
			if gain > bestGain {
				bestGain = gain
				feat = f
				split = midpoint(keyValue(uint32(keys[i]>>32)), keyValue(uint32(keys[i+1]>>32)))
				ok = true
			}
		}
	}
	return feat, split, ok
}

// midpoint returns a float32 threshold strictly separating a < b:
// (a+b)/2, falling back to a when rounding lands on b (scikit-learn's
// rule, which keeps `x <= threshold` a true partition).
func midpoint(a, b float32) float32 {
	m := float32((float64(a) + float64(b)) / 2)
	if m >= b { // float32 rounding collapsed the midpoint onto b
		m = a
	}
	return m
}

// partition reorders idx in place so the samples with x[feat] <= split
// come first, and returns the two halves; col is feature feat's key
// column. The order within each half is not kept: nothing downstream
// depends on it (see bestSplit).
func partition(col []uint32, idx []int, split float32) (left, right []int) {
	key := core.PrecodeSplit32(split)
	i, j := 0, len(idx)
	for i < j {
		if col[idx[i]] <= key {
			i++
		} else {
			j--
			idx[i], idx[j] = idx[j], idx[i]
		}
	}
	return idx[:i], idx[i:]
}
