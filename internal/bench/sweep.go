// Package bench regenerates the FLInt paper's evaluation (Section V):
// the parameter sweep over datasets, ensemble sizes and maximal tree
// depths, the normalized execution time aggregation (geometric mean and
// variance across datasets and ensemble sizes, Figure 3 / Tables II-III),
// and the output formatting.
//
// Three measurement backends share one sweep driver:
//
//   - InterpBackend times the interpreted treeexec engines on the host.
//   - CCBackend generates the paper's C implementations, compiles them
//     with the system C compiler at -O2 and times the binaries — the
//     closest reproduction of the paper's actual toolchain.
//   - SimBackend executes generated ARMv8 assembly on the asmsim cost
//     models, providing the Table I machine axis this environment lacks.
package bench

import (
	"fmt"
	"io"
	"math"
	"sort"

	"flint/internal/cags"
	"flint/internal/cart"
	"flint/internal/dataset"
	"flint/internal/rf"
)

// Impl names one measured implementation, matching the paper's legends.
type Impl string

// The implementations of the paper's evaluation. Naive is the baseline
// every other implementation is normalized against.
const (
	ImplNaive       Impl = "naive"        // standard if-else tree, float compares
	ImplCAGS        Impl = "cags"         // cache-aware grouping and swapping [6]
	ImplFLInt       Impl = "flint"        // FLInt C realization
	ImplCAGSFLInt   Impl = "cags-flint"   // CAGS with FLInt integrated
	ImplFLIntASM    Impl = "flint-asm"    // direct assembly FLInt (Fig. 4, Table III)
	ImplSoftFloat   Impl = "softfloat"    // software float baseline (E9)
	ImplPrecoded    Impl = "precoded"     // key-space precoding extension
	ImplFlat        Impl = "flat-flint"   // single-arena forest, FLInt compares
	ImplFlatBatch   Impl = "flat-batch"   // arena + row-blocked batch kernel
	ImplFlatCompact Impl = "flat-compact" // quantized 8-byte compact arena, fused lane walk
	ImplTableC      Impl = "table-c"      // codegen ModeTable: compact arena as compiled C

)

// SweepConfig selects the grid of Section V-A.
type SweepConfig struct {
	// Datasets defaults to the paper's five workloads.
	Datasets []string
	// TreeCounts defaults to {1,5,10,15,20,30,50,80,100}.
	TreeCounts []int
	// Depths defaults to {1,5,10,15,20,30,50}.
	Depths []int
	// Rows is the synthetic dataset size; 0 selects the UCI-equivalent
	// full size. Benchmark presets use smaller sizes to keep training
	// tractable.
	Rows int
	// Seed drives dataset synthesis and training.
	Seed int64
}

// PaperGrid is the full grid of Section V-A.
func PaperGrid() SweepConfig {
	return SweepConfig{
		Datasets:   dataset.Names(),
		TreeCounts: []int{1, 5, 10, 15, 20, 30, 50, 80, 100},
		Depths:     []int{1, 5, 10, 15, 20, 30, 50},
		Seed:       1,
	}
}

// QuickGrid is a reduced grid with the same depth axis, suitable for
// minutes-scale runs.
func QuickGrid() SweepConfig {
	return SweepConfig{
		Datasets:   dataset.Names(),
		TreeCounts: []int{1, 5, 10},
		Depths:     []int{1, 5, 10, 15, 20, 30, 50},
		Rows:       1200,
		Seed:       1,
	}
}

func (c SweepConfig) withDefaults() SweepConfig {
	if len(c.Datasets) == 0 {
		c.Datasets = dataset.Names()
	}
	if len(c.TreeCounts) == 0 {
		c.TreeCounts = []int{1, 5, 10, 15, 20, 30, 50, 80, 100}
	}
	if len(c.Depths) == 0 {
		c.Depths = []int{1, 5, 10, 15, 20, 30, 50}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Workload is one trained configuration handed to a backend: the plain
// forest, its CAGS-reordered counterpart and the held-out test rows.
type Workload struct {
	Dataset  string
	Trees    int
	MaxDepth int
	Forest   *rf.Forest
	// CAGSForest is the grouped (probability-preordered) forest; the
	// swapping half of CAGS is applied by the backends' code generation.
	CAGSForest *rf.Forest
	Test       *dataset.Dataset
}

// Backend measures one workload and returns the cost per inference
// (nanoseconds for host backends, cycles for simulators) per
// implementation. Implementations may differ per backend.
type Backend interface {
	// Name labels the backend ("interp", "cc", "sim:x86-server", ...).
	Name() string
	// Measure returns per-implementation cost for the workload.
	Measure(w *Workload) (map[Impl]float64, error)
}

// Cell is one measured grid point.
type Cell struct {
	Backend  string
	Dataset  string
	Trees    int
	MaxDepth int
	Impl     Impl
	// Cost is the per-inference cost in the backend's unit.
	Cost float64
}

// Results collects sweep measurements.
type Results struct {
	Cells []Cell
}

// RunSweep trains and measures the whole grid, reporting progress to
// progress (may be nil).
func RunSweep(cfg SweepConfig, backends []Backend, progress io.Writer) (*Results, error) {
	cfg = cfg.withDefaults()
	logf := func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, format, args...)
		}
	}
	res := &Results{}
	for _, ds := range cfg.Datasets {
		full, err := dataset.Generate(ds, cfg.Rows, cfg.Seed)
		if err != nil {
			return nil, err
		}
		train, test := full.Split(0.75, cfg.Seed) // the paper's 75/25 split
		for _, trees := range cfg.TreeCounts {
			for _, depth := range cfg.Depths {
				forest, err := cart.TrainForest(train, cart.Config{
					NumTrees: trees, MaxDepth: depth, Seed: cfg.Seed,
				})
				if err != nil {
					return nil, fmt.Errorf("bench: training %s t=%d d=%d: %w", ds, trees, depth, err)
				}
				grouped, err := cags.ReorderForest(forest)
				if err != nil {
					return nil, err
				}
				w := &Workload{
					Dataset: ds, Trees: trees, MaxDepth: depth,
					Forest: forest, CAGSForest: grouped, Test: test,
				}
				for _, b := range backends {
					costs, err := b.Measure(w)
					if err != nil {
						return nil, fmt.Errorf("bench: %s on %s t=%d d=%d: %w", b.Name(), ds, trees, depth, err)
					}
					for impl, cost := range costs {
						res.Cells = append(res.Cells, Cell{
							Backend: b.Name(), Dataset: ds, Trees: trees,
							MaxDepth: depth, Impl: impl, Cost: cost,
						})
					}
					logf("%s %s t=%d d=%d: %v\n", b.Name(), ds, trees, depth, formatCosts(costs))
				}
			}
		}
	}
	return res, nil
}

func formatCosts(costs map[Impl]float64) string {
	keys := make([]string, 0, len(costs))
	for k := range costs {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%.1f", k, costs[Impl(k)])
	}
	return out
}

// Normalized returns, for every (backend, dataset, trees, depth, impl)
// cell, the cost divided by the baseline implementation's cost at the
// same grid point. Cells without a baseline are skipped.
func (r *Results) Normalized(baseline Impl) []Cell {
	type key struct {
		backend, ds string
		trees, d    int
	}
	base := make(map[key]float64)
	for _, c := range r.Cells {
		if c.Impl == baseline {
			base[key{c.Backend, c.Dataset, c.Trees, c.MaxDepth}] = c.Cost
		}
	}
	var out []Cell
	for _, c := range r.Cells {
		b, ok := base[key{c.Backend, c.Dataset, c.Trees, c.MaxDepth}]
		if !ok || b <= 0 {
			continue
		}
		c.Cost /= b
		out = append(out, c)
	}
	return out
}

// GeoMean returns the geometric mean of vs; it panics on empty input and
// ignores non-positive entries (which cannot arise from valid timings).
func GeoMean(vs []float64) float64 {
	if len(vs) == 0 {
		panic("bench: GeoMean of empty slice")
	}
	sum, n := 0.0, 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Variance returns the population variance of vs.
func Variance(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	mean := 0.0
	for _, v := range vs {
		mean += v
	}
	mean /= float64(len(vs))
	acc := 0.0
	for _, v := range vs {
		acc += (v - mean) * (v - mean)
	}
	return acc / float64(len(vs))
}

// Series is one curve of Figure 3: normalized time versus maximal depth
// for one implementation on one backend, aggregated (geometric mean)
// across datasets and ensemble sizes, with the per-point variance the
// paper also reports.
type Series struct {
	Backend  string
	Impl     Impl
	Depths   []int
	Mean     []float64
	Variance []float64
}

// Figure3 aggregates normalized results into per-implementation,
// per-backend depth series (the curves of the paper's Figure 3).
func Figure3(r *Results, baseline Impl) []Series {
	norm := r.Normalized(baseline)
	type key struct {
		backend string
		impl    Impl
		depth   int
	}
	buckets := make(map[key][]float64)
	backends := map[string]bool{}
	impls := map[Impl]bool{}
	depthSet := map[int]bool{}
	for _, c := range norm {
		buckets[key{c.Backend, c.Impl, c.MaxDepth}] = append(buckets[key{c.Backend, c.Impl, c.MaxDepth}], c.Cost)
		backends[c.Backend] = true
		impls[c.Impl] = true
		depthSet[c.MaxDepth] = true
	}
	var depths []int
	for d := range depthSet {
		depths = append(depths, d)
	}
	sort.Ints(depths)
	var backendNames []string
	for b := range backends {
		backendNames = append(backendNames, b)
	}
	sort.Strings(backendNames)
	var implNames []string
	for i := range impls {
		implNames = append(implNames, string(i))
	}
	sort.Strings(implNames)

	var out []Series
	for _, b := range backendNames {
		for _, im := range implNames {
			s := Series{Backend: b, Impl: Impl(im)}
			for _, d := range depths {
				vs := buckets[key{b, Impl(im), d}]
				if len(vs) == 0 {
					continue
				}
				s.Depths = append(s.Depths, d)
				s.Mean = append(s.Mean, GeoMean(vs))
				s.Variance = append(s.Variance, Variance(vs))
			}
			if len(s.Depths) > 0 {
				out = append(out, s)
			}
		}
	}
	return out
}

// TableRow is one row of Table II / Table III: the overall geometric mean
// of the normalized execution time and the mean restricted to deep trees
// (maximal depth >= 20), per backend and implementation.
type TableRow struct {
	Backend string
	Impl    Impl
	Overall float64
	Deep    float64 // configurations with MaxDepth >= 20
}

// Table aggregates normalized results in the shape of Tables II and III.
// Only the requested implementations are included, in the given order.
func Table(r *Results, baseline Impl, impls []Impl) []TableRow {
	norm := r.Normalized(baseline)
	type key struct {
		backend string
		impl    Impl
	}
	all := make(map[key][]float64)
	deep := make(map[key][]float64)
	backends := map[string]bool{}
	for _, c := range norm {
		k := key{c.Backend, c.Impl}
		all[k] = append(all[k], c.Cost)
		if c.MaxDepth >= 20 {
			deep[k] = append(deep[k], c.Cost)
		}
		backends[c.Backend] = true
	}
	var backendNames []string
	for b := range backends {
		backendNames = append(backendNames, b)
	}
	sort.Strings(backendNames)
	var out []TableRow
	for _, b := range backendNames {
		for _, im := range impls {
			k := key{b, im}
			if len(all[k]) == 0 {
				continue
			}
			row := TableRow{Backend: b, Impl: im, Overall: GeoMean(all[k])}
			if len(deep[k]) > 0 {
				row.Deep = GeoMean(deep[k])
			}
			out = append(out, row)
		}
	}
	return out
}
