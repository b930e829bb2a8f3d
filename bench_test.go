// Benchmarks regenerating the FLInt paper's evaluation artifacts, one
// family per table/figure (see DESIGN.md's experiment index), plus the
// ablation benches A1-A4. The full normalized tables are produced by
// cmd/flintbench; these testing.B benches expose the same measurements
// as per-configuration numbers under `go test -bench`.
//
// Conventions: host wall-clock benches report ns/op per single forest
// inference; simulator benches additionally report the modeled
// cycles/inf metric, which is the number the paper's figures are about.
package flint_test

import (
	"bytes"
	"fmt"
	"math"
	mrand "math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"flint"
	"flint/internal/asmsim"
	"flint/internal/bench"
	"flint/internal/cags"
	"flint/internal/cart"
	"flint/internal/codegen"
	"flint/internal/core"
	"flint/internal/dataset"
	"flint/internal/generated"
	"flint/internal/isa"
	"flint/internal/rf"
	"flint/internal/treeexec"
)

// benchDataset/forest caches keep training out of the measured loops.
type forestKey struct {
	ds           string
	trees, depth int
}

var (
	benchMu      sync.Mutex
	benchData    = map[string]*dataset.Dataset{}
	benchForests = map[forestKey]*rf.Forest{}
)

func getData(b *testing.B, name string) *dataset.Dataset {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if d, ok := benchData[name]; ok {
		return d
	}
	d, err := dataset.Generate(name, 1500, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchData[name] = d
	return d
}

func getForest(b *testing.B, ds string, trees, depth int) (*rf.Forest, *dataset.Dataset) {
	b.Helper()
	d := getData(b, ds)
	benchMu.Lock()
	defer benchMu.Unlock()
	k := forestKey{ds, trees, depth}
	if f, ok := benchForests[k]; ok {
		return f, d
	}
	f, err := cart.TrainForest(d, cart.Config{NumTrees: trees, MaxDepth: depth, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	benchForests[k] = f
	return f, d
}

func encodeAll(d *dataset.Dataset) [][]int32 {
	out := make([][]int32, d.Len())
	for i, x := range d.Features {
		out[i] = core.EncodeFeatures32(nil, x)
	}
	return out
}

// ---- E3/E4: Figure 3 and Table II (host, interpreted engines) ----

// BenchmarkFig3 sweeps the paper's depth axis for the four
// implementations of Figure 3 on the magic workload with a 10-tree
// ensemble. ns/op is one forest inference.
func BenchmarkFig3(b *testing.B) {
	depths := []int{1, 5, 10, 15, 20, 30, 50}
	for _, depth := range depths {
		forest, d := getForest(b, "magic", 10, depth)
		grouped, err := cags.ReorderForest(forest)
		if err != nil {
			b.Fatal(err)
		}
		encoded := encodeAll(d)

		naive, err := treeexec.NewFloat32(forest)
		if err != nil {
			b.Fatal(err)
		}
		cagsEng, err := treeexec.NewFloat32(grouped)
		if err != nil {
			b.Fatal(err)
		}
		fl, err := treeexec.NewFLInt(forest)
		if err != nil {
			b.Fatal(err)
		}
		cagsFl, err := treeexec.NewFLInt(grouped)
		if err != nil {
			b.Fatal(err)
		}

		b.Run(fmt.Sprintf("naive/d%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			var sink int32
			for i := 0; i < b.N; i++ {
				sink += naive.Predict(d.Features[i%d.Len()])
			}
			_ = sink
		})
		b.Run(fmt.Sprintf("cags/d%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			var sink int32
			for i := 0; i < b.N; i++ {
				sink += cagsEng.Predict(d.Features[i%d.Len()])
			}
			_ = sink
		})
		b.Run(fmt.Sprintf("flint/d%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			var sink int32
			for i := 0; i < b.N; i++ {
				sink += fl.PredictEncoded(encoded[i%len(encoded)])
			}
			_ = sink
		})
		b.Run(fmt.Sprintf("cags-flint/d%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			var sink int32
			for i := 0; i < b.N; i++ {
				sink += cagsFl.PredictEncoded(encoded[i%len(encoded)])
			}
			_ = sink
		})
	}
}

// BenchmarkTable2 measures the deep-tree configuration (D>=20) the
// paper's Table II isolates, on every workload.
func BenchmarkTable2(b *testing.B) {
	for _, ds := range dataset.Names() {
		forest, d := getForest(b, ds, 10, 20)
		grouped, err := cags.ReorderForest(forest)
		if err != nil {
			b.Fatal(err)
		}
		encoded := encodeAll(d)
		naive, err := treeexec.NewFloat32(forest)
		if err != nil {
			b.Fatal(err)
		}
		cagsFl, err := treeexec.NewFLInt(grouped)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(ds+"/naive", func(b *testing.B) {
			b.ReportAllocs()
			var sink int32
			for i := 0; i < b.N; i++ {
				sink += naive.Predict(d.Features[i%d.Len()])
			}
			_ = sink
		})
		b.Run(ds+"/cags-flint", func(b *testing.B) {
			b.ReportAllocs()
			var sink int32
			for i := 0; i < b.N; i++ {
				sink += cagsFl.PredictEncoded(encoded[i%len(encoded)])
			}
			_ = sink
		})
	}
}

// ---- E3 simulated: Figure 3 on the Table I machine stand-ins ----

// simUnderTest builds a simulator for one (variant, flavor, cags)
// configuration.
func simUnderTest(b *testing.B, f *rf.Forest, m asmsim.Machine, v codegen.Variant, fl codegen.Flavor, swap bool) *asmsim.Simulator {
	b.Helper()
	var buf bytes.Buffer
	if err := codegen.Forest(&buf, f, codegen.Options{
		Language: codegen.LangARMv8, Variant: v, Flavor: fl, CAGS: swap,
	}); err != nil {
		b.Fatal(err)
	}
	prog, err := isa.Parse(buf.String())
	if err != nil {
		b.Fatal(err)
	}
	sim, err := asmsim.New(prog, m)
	if err != nil {
		b.Fatal(err)
	}
	return sim
}

func runSimBench(b *testing.B, sim *asmsim.Simulator, f *rf.Forest, d *dataset.Dataset, rows [][]uint32) {
	b.Helper()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		_, c, err := sim.RunForest("forest", len(f.Trees), f.NumClasses, rows[i%len(rows)])
		if err != nil {
			b.Fatal(err)
		}
		cycles += c
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/inf")
}

func bitRows(d *dataset.Dataset, n int) [][]uint32 {
	if n > d.Len() {
		n = d.Len()
	}
	out := make([][]uint32, n)
	for i := 0; i < n; i++ {
		out[i] = make([]uint32, len(d.Features[i]))
		for j, v := range d.Features[i] {
			out[i][j] = math.Float32bits(v)
		}
	}
	return out
}

// BenchmarkFig3Simulated runs the four Figure 3 implementations on every
// Table I machine profile (depth 20, 5 trees). The paper-relevant number
// is the cycles/inf metric.
func BenchmarkFig3Simulated(b *testing.B) {
	forest, d := getForest(b, "magic", 5, 20)
	rows := bitRows(d, 64)
	configs := []struct {
		name string
		v    codegen.Variant
		fl   codegen.Flavor
		swap bool
	}{
		{"naive", codegen.VariantFloat, codegen.FlavorCC, false},
		{"cags", codegen.VariantFloat, codegen.FlavorCC, true},
		{"flint", codegen.VariantFLInt, codegen.FlavorCC, false},
		{"cags-flint", codegen.VariantFLInt, codegen.FlavorCC, true},
	}
	for _, m := range asmsim.TableI() {
		for _, cfg := range configs {
			sim := simUnderTest(b, forest, m, cfg.v, cfg.fl, cfg.swap)
			b.Run(m.Name+"/"+cfg.name, func(b *testing.B) {
				runSimBench(b, sim, forest, d, rows)
			})
		}
	}
}

// ---- E5/E6: Figure 4 and Table III (C realization vs direct assembly) ----

// BenchmarkFig4CvsASM compares the compiled-C-style FLInt realization
// (constants in data memory) against the direct assembly realization
// (movz/movk immediates) on the x86-server profile across the depth axis.
func BenchmarkFig4CvsASM(b *testing.B) {
	m, _ := asmsim.MachineByName("x86-server")
	for _, depth := range []int{5, 10, 20, 30, 50} {
		forest, d := getForest(b, "magic", 5, depth)
		rows := bitRows(d, 64)
		naive := simUnderTest(b, forest, m, codegen.VariantFloat, codegen.FlavorCC, false)
		cImpl := simUnderTest(b, forest, m, codegen.VariantFLInt, codegen.FlavorCC, false)
		asmImpl := simUnderTest(b, forest, m, codegen.VariantFLInt, codegen.FlavorHand, false)
		b.Run(fmt.Sprintf("naive/d%d", depth), func(b *testing.B) { runSimBench(b, naive, forest, d, rows) })
		b.Run(fmt.Sprintf("flint-c/d%d", depth), func(b *testing.B) { runSimBench(b, cImpl, forest, d, rows) })
		b.Run(fmt.Sprintf("flint-asm/d%d", depth), func(b *testing.B) { runSimBench(b, asmImpl, forest, d, rows) })
	}
}

// BenchmarkTable3FLIntASM measures the direct assembly realization on
// all four machine profiles at the deep-tree setting of Table III.
func BenchmarkTable3FLIntASM(b *testing.B) {
	forest, d := getForest(b, "magic", 5, 20)
	rows := bitRows(d, 64)
	for _, m := range asmsim.TableI() {
		naive := simUnderTest(b, forest, m, codegen.VariantFloat, codegen.FlavorCC, false)
		asmImpl := simUnderTest(b, forest, m, codegen.VariantFLInt, codegen.FlavorHand, false)
		b.Run(m.Name+"/naive", func(b *testing.B) { runSimBench(b, naive, forest, d, rows) })
		b.Run(m.Name+"/flint-asm", func(b *testing.B) { runSimBench(b, asmImpl, forest, d, rows) })
	}
}

// ---- E9: no-FPU motivation ----

// BenchmarkNoFPU compares soft-float traversal (the FPU-less baseline)
// against FLInt on the host, and on the embedded machine profile.
func BenchmarkNoFPU(b *testing.B) {
	forest, d := getForest(b, "sensorless", 10, 12)
	encoded := encodeAll(d)
	soft, err := treeexec.NewSoftFloat(forest)
	if err != nil {
		b.Fatal(err)
	}
	fl, err := treeexec.NewFLInt(forest)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("softfloat", func(b *testing.B) {
		b.ReportAllocs()
		var sink int32
		for i := 0; i < b.N; i++ {
			sink += soft.PredictEncoded(encoded[i%len(encoded)])
		}
		_ = sink
	})
	b.Run("flint", func(b *testing.B) {
		b.ReportAllocs()
		var sink int32
		for i := 0; i < b.N; i++ {
			sink += fl.PredictEncoded(encoded[i%len(encoded)])
		}
		_ = sink
	})
	m, _ := asmsim.MachineByName("embedded-nofpu")
	rows := bitRows(d, 32)
	floatSim := simUnderTest(b, forest, m, codegen.VariantFloat, codegen.FlavorCC, false)
	flintSim := simUnderTest(b, forest, m, codegen.VariantFLInt, codegen.FlavorHand, false)
	b.Run("sim-embedded/float", func(b *testing.B) { runSimBench(b, floatSim, forest, d, rows) })
	b.Run("sim-embedded/flint", func(b *testing.B) { runSimBench(b, flintSim, forest, d, rows) })
}

// ---- Compiled trees (pre-generated Go, the arch-forest analog) ----

// BenchmarkGeneratedTrees measures the checked-in compiled if-else
// forests: split constants are immediates in the instruction stream,
// the mechanism the paper exploits.
func BenchmarkGeneratedTrees(b *testing.B) {
	d := getData(b, "magic")
	encoded := encodeAll(d)
	for _, name := range []string{"magic_d5", "magic_d10", "magic_d10_cags", "magic_d15"} {
		e, ok := generated.Lookup(name)
		if !ok {
			b.Fatalf("missing generated forest %s", name)
		}
		b.Run(name+"/float", func(b *testing.B) {
			b.ReportAllocs()
			var sink int32
			for i := 0; i < b.N; i++ {
				sink += e.Float(d.Features[i%d.Len()])
			}
			_ = sink
		})
		b.Run(name+"/flint", func(b *testing.B) {
			b.ReportAllocs()
			var sink int32
			for i := 0; i < b.N; i++ {
				sink += e.FLInt(encoded[i%len(encoded)])
			}
			_ = sink
		})
	}
}

// ---- Ablations (DESIGN.md A1-A4) ----

// BenchmarkAblationCompareForms (A1): the three proved operator forms
// against the hardware comparison, on a fixed pseudo-random operand
// stream.
func BenchmarkAblationCompareForms(b *testing.B) {
	const n = 4096
	xs := make([]int32, n)
	ys := make([]int32, n)
	fx := make([]float32, n)
	fy := make([]float32, n)
	state := uint32(0x9E3779B9)
	next := func() uint32 {
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		return state
	}
	for i := 0; i < n; i++ {
		a, c := next(), next()
		// Clear the NaN exponent pattern to stay in domain.
		if a&0x7F80_0000 == 0x7F80_0000 {
			a &^= 0x0080_0000
		}
		if c&0x7F80_0000 == 0x7F80_0000 {
			c &^= 0x0080_0000
		}
		xs[i], ys[i] = int32(a), int32(c)
		fx[i], fy[i] = math.Float32frombits(a), math.Float32frombits(c)
	}
	b.Run("hardware", func(b *testing.B) {
		var t int
		for i := 0; i < b.N; i++ {
			if fx[i%n] >= fy[i%n] {
				t++
			}
		}
		_ = t
	})
	b.Run("xor-theorem1", func(b *testing.B) {
		var t int
		for i := 0; i < b.N; i++ {
			if core.GEBits32(xs[i%n], ys[i%n]) {
				t++
			}
		}
		_ = t
	})
	b.Run("swap-theorem2", func(b *testing.B) {
		var t int
		for i := 0; i < b.N; i++ {
			if core.GEBits32Swap(xs[i%n], ys[i%n]) {
				t++
			}
		}
		_ = t
	})
	b.Run("total-order", func(b *testing.B) {
		var t int
		for i := 0; i < b.N; i++ {
			if core.GEBits32TotalOrder(xs[i%n], ys[i%n]) {
				t++
			}
		}
		_ = t
	})
}

// BenchmarkAblationEngineForms (A2): per-node sign branch vs general XOR
// operator vs per-load total-order transform vs per-vector precoding.
func BenchmarkAblationEngineForms(b *testing.B) {
	forest, d := getForest(b, "magic", 10, 15)
	encoded := encodeAll(d)
	keys := make([][]uint32, d.Len())
	for i, x := range d.Features {
		keys[i] = core.PrecodeFeatures32(nil, x)
	}
	fl, err := treeexec.NewFLInt(forest)
	if err != nil {
		b.Fatal(err)
	}
	xor, err := treeexec.NewFLIntXor(forest)
	if err != nil {
		b.Fatal(err)
	}
	to, err := treeexec.NewTotalOrder(forest)
	if err != nil {
		b.Fatal(err)
	}
	pre, err := treeexec.NewPrecoded(forest)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("flint", func(b *testing.B) {
		b.ReportAllocs()
		var sink int32
		for i := 0; i < b.N; i++ {
			sink += fl.PredictEncoded(encoded[i%len(encoded)])
		}
		_ = sink
	})
	b.Run("flint-xor", func(b *testing.B) {
		b.ReportAllocs()
		var sink int32
		for i := 0; i < b.N; i++ {
			sink += xor.PredictEncoded(encoded[i%len(encoded)])
		}
		_ = sink
	})
	b.Run("total-order", func(b *testing.B) {
		b.ReportAllocs()
		var sink int32
		for i := 0; i < b.N; i++ {
			sink += to.PredictEncoded(encoded[i%len(encoded)])
		}
		_ = sink
	})
	b.Run("precoded", func(b *testing.B) {
		b.ReportAllocs()
		var sink int32
		for i := 0; i < b.N; i++ {
			sink += pre.PredictPrecoded(keys[i%len(keys)])
		}
		_ = sink
	})
}

// BenchmarkAblationCAGS (A3): original layout vs grouped layout for both
// comparison kernels (interpreted: the grouping half), plus the
// generated-code swap half via the pre-generated magic entries.
func BenchmarkAblationCAGS(b *testing.B) {
	forest, d := getForest(b, "gas", 10, 15)
	grouped, err := cags.ReorderForest(forest)
	if err != nil {
		b.Fatal(err)
	}
	encoded := encodeAll(d)
	plainF, err := treeexec.NewFLInt(forest)
	if err != nil {
		b.Fatal(err)
	}
	groupF, err := treeexec.NewFLInt(grouped)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("flint/original-layout", func(b *testing.B) {
		b.ReportAllocs()
		var sink int32
		for i := 0; i < b.N; i++ {
			sink += plainF.PredictEncoded(encoded[i%len(encoded)])
		}
		_ = sink
	})
	b.Run("flint/grouped-layout", func(b *testing.B) {
		b.ReportAllocs()
		var sink int32
		for i := 0; i < b.N; i++ {
			sink += groupF.PredictEncoded(encoded[i%len(encoded)])
		}
		_ = sink
	})
}

// BenchmarkAblationWidth (A4): float32 vs float64 FLInt traversal.
func BenchmarkAblationWidth(b *testing.B) {
	forest, d := getForest(b, "wine", 10, 12)
	encoded := encodeAll(d)
	wide := make([][]int64, d.Len())
	for i, x := range d.Features {
		w := make([]float64, len(x))
		for j, v := range x {
			w[j] = float64(v)
		}
		wide[i] = core.EncodeFeatures64(nil, w)
	}
	fl32, err := treeexec.NewFLInt(forest)
	if err != nil {
		b.Fatal(err)
	}
	fl64, err := treeexec.NewFLInt64(forest)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("flint32", func(b *testing.B) {
		b.ReportAllocs()
		var sink int32
		for i := 0; i < b.N; i++ {
			sink += fl32.PredictEncoded(encoded[i%len(encoded)])
		}
		_ = sink
	})
	b.Run("flint64", func(b *testing.B) {
		b.ReportAllocs()
		var sink int32
		for i := 0; i < b.N; i++ {
			sink += fl64.PredictEncoded(wide[i%len(wide)])
		}
		_ = sink
	})
}

// ---- E1: the interpretation machinery behind Figure 2 ----

// BenchmarkFig2Interpretation measures the exact bit-level
// interpretation used to draw Figure 2 (not a paper table; included for
// completeness of the harness).
func BenchmarkFig2Interpretation(b *testing.B) {
	f := flint.Forest{} // silence unused-import pruning of the facade
	_ = f
	b.Run("SI", func(b *testing.B) {
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += iee754SI(uint64(uint32(i)))
		}
		_ = sink
	})
}

func iee754SI(b uint64) int64 { return int64(int32(uint32(b))) }

// ---- Batch serving: per-row vs row-blocked arena kernel ----

// BenchmarkBatchThroughput measures whole-batch classification as
// rows/sec on the two highest-volume workloads, contrasting the per-row
// Batch over the per-tree FLInt engine with the row-blocked arena
// kernel (ephemeral workers, and the persistent zero-alloc Batcher) at
// matched worker counts, for both the 16-byte FLInt arena — its
// row-group walk at every interleave width (x1/x2/x4/x8 cursors) — and
// the 8-byte compact arena's tree-lane walk. -benchmem makes the steady-state allocation claim
// measurable: the Batcher rows must report 0 allocs/op.
func BenchmarkBatchThroughput(b *testing.B) {
	workerCounts := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 {
		workerCounts = append(workerCounts, n)
	}
	for _, ds := range []string{"magic", "sensorless"} {
		// Serving-scale ensembles: deep trees, arena past the L2 sweet
		// spot, where memory layout decides throughput.
		forest, d := getForest(b, ds, 30, 20)
		rows := d.Features
		perTree, err := treeexec.NewFLInt(forest)
		if err != nil {
			b.Fatal(err)
		}
		flat, err := treeexec.NewFlat(forest, treeexec.FlatFLInt)
		if err != nil {
			b.Fatal(err)
		}
		compact, err := treeexec.NewFlat(forest, treeexec.FlatCompact)
		if err != nil {
			b.Fatal(err)
		}
		if compact.Variant() != treeexec.FlatCompact {
			b.Fatalf("compact fell back to %v", compact.Variant())
		}
		reportRows := func(b *testing.B) {
			b.ReportMetric(float64(len(rows))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		}
		for _, w := range workerCounts {
			w := w
			b.Run(fmt.Sprintf("%s/per-row/w%d", ds, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := treeexec.Batch(perTree, rows, w); err != nil {
						b.Fatal(err)
					}
				}
				reportRows(b)
			})
			for _, arena := range benchArenas(flat, compact) {
				arena := arena
				// Forced interleave widths expose the FLInt arena's
				// 2/4/8-way walks individually; serving code normally
				// leaves the calibrated gate in charge. The compact
				// arena's one walk reads no width.
				for _, width := range arena.widths {
					width := width
					b.Run(fmt.Sprintf("%s/%s/x%d/w%d", ds, arena.tag, width, w), func(b *testing.B) {
						arena.e.SetInterleave(width)
						b.ReportAllocs()
						out := make([]int32, len(rows))
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							out = arena.e.PredictBatch(rows, out, w, 0)
						}
						reportRows(b)
					})
				}
			}
			for _, arena := range []struct {
				tag string
				e   *treeexec.FlatForestEngine
			}{{"batcher", flat}, {"batcher-compact", compact}} {
				arena := arena
				b.Run(fmt.Sprintf("%s/%s/w%d", ds, arena.tag, w), func(b *testing.B) {
					arena.e.CalibrateInterleave(20 * time.Millisecond)
					pool := treeexec.NewBatcher(arena.e, w, 0)
					defer pool.Close()
					out := make([]int32, len(rows))
					pool.Predict(rows, out) // warm up the pool
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						out = pool.Predict(rows, out)
					}
					reportRows(b)
				})
			}
		}
	}

	// Mispredict-hostile workload: a random roughly-balanced forest with
	// depth-20 paths, uniform split thresholds and uniform rows, so
	// every node comparison is close to a coin flip no predictor can
	// learn — the regime the branchy walk pays a pipeline flush per
	// level in and the fused walk converts into data dependencies. The
	// trained workloads above have skewed, learnable branches that mute
	// this gap; this one makes the branchy-vs-fused trade visible
	// in-tree.
	hostile := randomBalancedForest(24, 20, 7)
	hostileRows := uniformRows(512, hostile.NumFeatures, 8)
	hflat, err := treeexec.NewFlat(hostile, treeexec.FlatFLInt)
	if err != nil {
		b.Fatal(err)
	}
	hcompact, err := treeexec.NewFlat(hostile, treeexec.FlatCompact)
	if err != nil {
		b.Fatal(err)
	}
	if hcompact.Variant() != treeexec.FlatCompact {
		b.Fatalf("hostile forest fell back to %v", hcompact.Variant())
	}
	reportHostileRows := func(b *testing.B) {
		b.ReportMetric(float64(len(hostileRows))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	}
	for _, arena := range benchArenas(hflat, hcompact) {
		arena := arena
		for _, width := range arena.widths {
			width := width
			b.Run(fmt.Sprintf("hostile/%s/x%d/w1", arena.tag, width), func(b *testing.B) {
				arena.e.SetInterleave(width)
				b.ReportAllocs()
				out := make([]int32, len(hostileRows))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out = arena.e.PredictBatch(hostileRows, out, 1, 0)
				}
				reportHostileRows(b)
			})
		}
	}

	// Adversarially-generated workload: the decision-path attack
	// (internal/robust) perturbs trained magic rows until they sit
	// exactly on — or one float past — the thresholds their original
	// walk brushed closest. Unlike the synthetic hostile forest above,
	// this keeps the trained arena and measures the trained workload's
	// own worst case: tie-heavy comparisons with the least learnable
	// branch history the real decision boundary admits.
	advForest, advData := getForest(b, "magic", 30, 20)
	advCompact, err := treeexec.NewFlat(advForest, treeexec.FlatCompact)
	if err != nil {
		b.Fatal(err)
	}
	if advCompact.Variant() != treeexec.FlatCompact {
		b.Fatalf("magic forest fell back to %v", advCompact.Variant())
	}
	advFlat, err := treeexec.NewFlat(advForest, treeexec.FlatFLInt)
	if err != nil {
		b.Fatal(err)
	}
	advRows := flint.AdversarialRows(advCompact, advData.Features[:512], flint.AttackConfig{})
	reportAdvRows := func(b *testing.B) {
		b.ReportMetric(float64(len(advRows))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	}
	for _, arena := range benchArenas(advFlat, advCompact) {
		arena := arena
		for _, width := range arena.widths {
			width := width
			b.Run(fmt.Sprintf("adversarial/magic/%s/x%d/w1", arena.tag, width), func(b *testing.B) {
				arena.e.SetInterleave(width)
				b.ReportAllocs()
				out := make([]int32, len(advRows))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out = arena.e.PredictBatch(advRows, out, 1, 0)
				}
				reportAdvRows(b)
			})
		}
	}
}

// benchArena is one row family of BenchmarkBatchThroughput: an engine
// and the interleave widths it is timed at.
type benchArena struct {
	tag    string
	e      *treeexec.FlatForestEngine
	widths []int
}

// benchArenas returns the two row families: the FLInt arena's blocked
// walk at every interleave width, and the compact arena's one walk.
func benchArenas(flat, compact *treeexec.FlatForestEngine) []benchArena {
	return []benchArena{{"blocked", flat, []int{1, 2, 4, 8}}, {"compact", compact, []int{1}}}
}

// randomBalancedForest grows a forest for the mispredict-hostile bench:
// roughly balanced random trees (a dense top, then leaves with fixed
// probability, paths capped at maxDepth) whose split thresholds are
// uniform in [0, 1) over random features — against uniform rows every
// comparison is ~50/50, the branch pattern pure noise.
func randomBalancedForest(trees, maxDepth int, seed int64) *rf.Forest {
	const numFeatures = 16
	const numClasses = 4
	rng := mrand.New(mrand.NewSource(seed))
	out := make([]rf.Tree, trees)
	for t := range out {
		var nodes []rf.Node
		var grow func(d int) int32
		grow = func(d int) int32 {
			me := int32(len(nodes))
			if d >= maxDepth || (d > 4 && rng.Float64() < 0.35) {
				nodes = append(nodes, rf.Node{Feature: rf.LeafFeature, Class: int32(rng.Intn(numClasses))})
				return me
			}
			nodes = append(nodes, rf.Node{
				Feature: int32(rng.Intn(numFeatures)),
				Split:   rng.Float32(),
			})
			l := grow(d + 1)
			r := grow(d + 1)
			nodes[me].Left, nodes[me].Right = l, r
			return me
		}
		grow(0)
		out[t] = rf.Tree{Nodes: nodes}
	}
	return &rf.Forest{NumFeatures: numFeatures, NumClasses: numClasses, Trees: out}
}

// uniformRows synthesizes n feature vectors uniform in [0, 1) — the
// distribution randomBalancedForest's thresholds are drawn from.
func uniformRows(n, numFeatures int, seed int64) [][]float32 {
	rng := mrand.New(mrand.NewSource(seed))
	rows := make([][]float32, n)
	for i := range rows {
		r := make([]float32, numFeatures)
		for j := range r {
			r[j] = rng.Float32()
		}
		rows[i] = r
	}
	return rows
}

// TestBenchInfraSanity keeps the sweep entry points compiling and honest:
// a tiny sweep through the public harness must succeed.
func TestBenchInfraSanity(t *testing.T) {
	cfg := bench.SweepConfig{
		Datasets:   []string{"wine"},
		TreeCounts: []int{2},
		Depths:     []int{3},
		Rows:       200,
		Seed:       1,
	}
	m, _ := asmsim.MachineByName("x86-desktop")
	res, err := bench.RunSweep(cfg, []bench.Backend{
		&bench.InterpBackend{},
		&bench.SimBackend{Machine: m, MaxRows: 16},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) == 0 {
		t.Fatal("empty sweep")
	}
}
