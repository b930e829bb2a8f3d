// Package flint is a Go implementation of FLInt — full-precision IEEE 754
// floating point comparison using only two's-complement integer and logic
// operations — together with the complete random forest inference stack
// the FLInt paper (Hakert, Chen, Chen; DATE 2024) builds and evaluates it
// in: a CART trainer, interpreted and code-generated if-else tree
// execution engines, the cache-aware grouping-and-swapping optimization
// of Chen et al., C/Go/ARMv8/x86-64 code generators, a soft-float
// baseline and an ARMv8-subset cost-model simulator.
//
// This package is the public facade: it re-exports the library's
// user-facing types and functions from the internal packages. A typical
// workflow:
//
//	data, _ := flint.GenerateDataset("magic", 2000, 1)
//	train, test := data.Split(0.75, 1)
//	forest, _ := flint.Train(train, flint.TrainConfig{NumTrees: 20, MaxDepth: 10})
//	engine, _ := flint.NewFLIntEngine(forest)
//	class := engine.Predict(test.Features[0])
//
// The comparison operator itself is available directly:
//
//	flint.GE32(a, b)                 // a >= b via integer operations
//	sp := flint.MustEncodeSplit32(s) // offline split encoding
//	sp.LE(flint.FeatureBits32(x))    // x <= s, one integer comparison
//
// # Choosing an execution engine: the three arena layouts
//
// Three memory layouts execute a trained forest, each the right tool at
// a different scale:
//
//   - Per-tree engines (NewFLIntEngine, NewFloatEngine, ...): one node
//     slice per tree, 16-byte nodes with explicit leaves. The layout the
//     paper's figures measure. Best for single-row latency on small
//     ensembles and for the ablation variants (XOR, total-order,
//     precoded, soft-float, float64).
//
//   - Flat AoS arena (NewFlatEngine, FlatFLInt/FlatFloat32/
//     FlatPrecoded): every inner node of every tree in one contiguous
//     array of 16-byte nodes, leaves folded into negative child indices
//     (^class), per-tree root offsets. Halves the traversed footprint
//     versus per-tree engines and feeds the row-blocked batch kernel,
//     which walks groups of 2/4/8 rows with interleaved register-
//     resident cursors once the arena outgrows the cache (runtime-
//     calibrated gates; see Calibrate). Best general-purpose serving
//     engine.
//
//   - Compact SoA arena (FlatCompact): each node encoded in 8 bytes,
//     uint16 key / uint16 feature / packed int32 children. Split values
//     are reduced — exactly, via per-feature total-order ranking — to
//     16-bit keys, and each row is quantized by binary search before
//     the walk. The cut tables are feature-pruned: only the columns the
//     forest actually splits on are searched (and only the split-on
//     count is bounded by the encoding, so wide sparse-split inputs
//     compact fine). Predictions are bit-identical to FlatFLInt. A walk
//     touches half the AoS arena's bytes, so roughly twice the forest
//     fits in the same cache; it wins on big ensembles. The engine holds
//     two encodings of every node (parallel slices for the branchy
//     kernel, one fused word for the others), so it keeps ~16 bytes per
//     node resident where ArenaBytes reports the 8 a walk touches.
//     Forests exceeding the narrow encoding (per-feature distinct
//     splits, per-tree size, classes, split-on features — probe with
//     Compactable) gracefully fall back to the FLInt arena.
//
// Batch work should go through PredictBatch (ephemeral workers) or a
// persistent Batcher (zero-alloc steady state; concurrent Predict calls
// interleave block-by-block over the shared pool).
//
// # Calibrating the interleaved batch kernel
//
// On arenas past the cache comfort zone the batch kernel walks 2, 4 or
// 8 rows with register-resident cursors so the core overlaps their node
// fetches. Where those crossovers sit depends on the host (cache sizes,
// load-queue depth) and on the arena layout — the compact arena's
// quantization overhead and denser packing shift them — so the gate
// table (InterleaveGates) keeps one threshold set per interleaving
// layout and engines pick their width from it at construction:
//
//   - Calibrate(budget) measures a synthetic arena ladder for both the
//     FLInt and compact layouts once per process and installs per-
//     variant gates for engines built afterwards.
//   - engine.CalibrateInterleave(budget) times the engine's own arena,
//     on rows synthesized from its own split tables — every calibration
//     input spans the trained comparison range, so the measured walks
//     branch both ways like production traffic.
//   - engine.CalibrateInterleaveRows(rows, budget) is the most accurate
//     tool: pass sampled production rows and the engine times exactly
//     the branch and fetch patterns it will serve. Prefer this when
//     request traffic is at hand (the synthetic rows approximate range,
//     not distribution).
//
// # Kernel selection: the four-kernel family on the compact arena
//
// The compact arena has four walk kernels producing bit-identical
// predictions, ordered by how much of the walk they vectorize. The
// branchy kernel executes one data-dependent branch per cursor per tree
// level (plus three slice loads per node); on deep trained forests
// those branches are near 50/50 and the mispredict flushes dominate.
// The fused kernel loads each node as a single pre-packed 64-bit word
// (key | feature | children) and computes the child index
// arithmetically — the same control-to-data-dependency conversion FLInt
// performs on the comparison, applied to the child select — so a walk
// mispredicts once per chain (the loop exit) instead of once per level,
// at the price of a longer serial dependency per step. Its quantizer is
// a branchless binary search.
//
// The two SIMD kernels split the fused walk at its memory boundary. The
// walk has two phases with opposite vector economics: quantization
// (binary-search each feature value against its cut table) is lockstep
// halving with no gathers on its critical path and one cut segment
// shared by the whole group — it vectorizes cleanly — while the tree
// walk itself needs one node-word gather per lane per level, and a
// gather's latency is the latency of its slowest lane. KernelSIMDQuant
// takes only the clean half: the 8-lane vector quantizer feeds the
// scalar fused walk, so it inherits the fused walk's gather-free
// inner loop and wins wherever quantization (cost scaling with
// features) is a large share of the row. KernelSIMD vectorizes both
// phases: 8 cursors' node words and 8 quantized keys per gather, the
// branch-free child select in vector registers. At width 16 it walks
// two independent 8-lane groups software-pipelined — group A's gathers
// issue, then group B's field-extract/compare/select executes while
// A's loads are in flight, and vice versa — so every gather round-trip
// overlaps a full level of independent ALU work, and a calibrated
// lane-compaction threshold returns the walk to the driver when
// occupancy drops, which retires finished lanes' votes and refills them
// from the pending (tree, row) queue instead of walking a nearly-empty
// group to its deepest lane. Which kernel wins is a host and workload
// property, so the kernel is a calibrated dimension exactly like the
// interleave width:
//
//   - At construction, engines pick the kernel from the gate table's
//     CompactFusedMin/CompactSIMDQuantMin/CompactSIMDMin byte
//     thresholds (zero — every older table — keeps the kernel off;
//     the default table sets CompactFusedMin to 1, so an uncalibrated
//     compact engine runs fused; Calibrate measures them, and more
//     aggressive kernels' gates outrank less aggressive ones where both
//     apply; CompactSIMD16Min gates the dual-group width within the
//     SIMD kernel).
//   - Every calibration pass (CalibrateInterleave,
//     CalibrateInterleaveRows, Batcher.Recalibrate) times each
//     row-group width under the branchy and SIMD kernels, the fused and
//     SIMD-quant kernels once each (at width 1: they read no width),
//     and the width-16 dual-group walk with lane compaction off and on,
//     and installs the winning (width, kernel, compaction) triple as one
//     atomic unit, so recalibrating under live Batcher traffic can never
//     mix a width measured under one kernel with another.
//   - engine.SetKernel forces and pins a kernel (subsequent calibration
//     then times widths under it alone) — the A/B switch behind
//     flintbench's -kernel flag; engine.Kernel reports the current one.
//   - Persistence round-trips the triple: SaveCalibration records the
//     kernel and compaction threshold next to the width, LoadCalibration
//     restores them (records written before the kernel axis existed
//     load as branchy — the only kernel those deployments ever ran).
//
// The kernel governs batch blocks. The branchy and SIMD kernels walk
// row groups of the installed width. The fused and SIMD-quant kernels
// quantize a block in chunks of 16 rows and walk all of a chunk's
// (tree, row) pairs with four cursors, dealt tree-major (every row
// through tree 0, then tree 1, ...): a cursor that reaches its leaf
// votes for its row and takes the next pair, so four node loads stay in
// flight until the pairs run out, where a row group stalls each time
// one of its rows leafs. A lone row (Predict, PredictEncoded,
// PredictPrecoded), and a one-row chunk, walks its own trees four at a
// time on the fused step under every kernel: the four cursors share the
// row's ranks. Answers stay bit-identical either way.
//
// ISA gating and the portable fallback: DetectedISA reports the vector
// instruction set the SIMD kernels run natively here ("avx2", or ""
// where there is none — non-amd64 builds, the noasm build tag, or
// amd64 hosts without AVX2). Calibration only competes the SIMD
// kernels where DetectedISA is non-empty; elsewhere it never
// volunteers them, and a persisted "simd" or "simd-quant" calibration
// record loads as branchy (a width-16 record narrows to 8) with
// CalibrationSource reporting "persisted-degraded". Pinning KernelSIMD
// or KernelSIMDQuant by hand still works on every host — they run
// portable lane-parallel Go forms with identical predictions (the
// differential-test contract), they just stop being fast — so A/B
// tooling behaves the same everywhere.
//
// # The adaptive serving lifecycle: reservoir → recalibrate → persist
//
// A serving deployment does not need to gather those production rows by
// hand. Every Batcher keeps a reservoir sample of the traffic it serves
// (Vitter's Algorithm R over a stride-decimated view of the stream;
// storage is pre-allocated, so the zero-alloc steady state survives):
//
//   - batcher.Recalibrate(budget) re-times the engine's interleave
//     width on the sampled rows and installs the winner atomically, so
//     it is safe to call periodically while Predict traffic is in
//     flight — the width follows the distribution actually served.
//   - engine.SaveCalibration(w, batcher.SampleSnapshot()) persists the
//     measured gate table, the engine's width and the sampled rows as
//     JSON. On the next start, engine.LoadCalibration(r) validates the
//     record against the engine's arena fingerprint and restores the
//     width; SetInterleaveGates(rec.Gates) additionally installs the
//     persisted gate table when the record came from this same hardware
//     (left explicit so a foreign or pre-calibration record cannot
//     silently clobber gates the process already measured); and
//     batcher.SeedSample(rec.Rows) re-arms the reservoir with the
//     previous deployment's traffic, so a restart (or a hardware move,
//     after one Recalibrate) never falls back to synthetic
//     approximations. See examples/batchserve for the whole loop.
//
// # Drift-aware serving: detect distribution shift, recalibrate automatically
//
// The reservoir → Recalibrate loop above still needs something to decide
// when to recalibrate. A Batcher can make that call itself: arm it with
// EnableDriftDetection and it compares the live traffic reservoir
// against the calibration baseline on a served-row cadence — per-feature
// histograms over the engine's own quantized split ranks, scored with a
// population-stability-index distance — and when the distance crosses
// the configured threshold it runs the Recalibrate path on its own,
// installing the re-timed (width, kernel) mode through the same atomic
// gate every manual recalibration uses:
//
//	b := flint.NewBatcher(engine, 0)
//	defer b.Close()
//	b.EnableDriftDetection(flint.DriftConfig{}, calibrationRows)
//	...            // serve; a shifted distribution triggers recalibration
//	b.DriftStats() // distance trajectory, trigger/suppression counters
//
// The Predict hot path pays one atomic load and counter bump per batch —
// the zero-alloc steady state is untouched — while histogram scoring and
// the triggered recalibration run on a dedicated watcher goroutine.
// After any trigger the baseline rebases to the traffic just timed
// (manual Recalibrate rebases it too), so the detector tracks the newest
// accepted distribution instead of re-firing on the same shift, and a
// cooldown suppresses trigger storms while a shift is still settling
// (suppressed checks are counted, not lost). Batcher.SaveCalibration
// persists the armed DriftConfig inside the calibration record, so the
// next deployment restores detection together with the width, kernel and
// seeded reservoir. See examples/sensordrift for the loop closing on the
// gas workload's drifting batches.
//
// # Model registry and network serving
//
// One engine wired to one Batcher is the in-process special case of the
// registry-backed serving stack. A ServedModel owns the whole per-model
// serving state — engine, Batcher, traffic reservoir, drift detector,
// calibration record — with a documented lifecycle (build →
// calibrate-or-load → serve → recalibrate → save → drain/close) and an
// error-returning Predict (a malformed row or a retired model comes
// back as an error a front-end can map to a status code, never a
// panic). A ModelRegistry serves many ServedModels side by side, keyed
// by name, and hot-swaps them: Registry.Swap(name, newModel) flips an
// atomic pointer and drains the old model — in-flight predictions
// complete, the worker pool and drift watcher stop — while
// Registry.Predict retries the flip invisibly, so a model upgrade
// drops zero requests. Calibration persistence routes through the
// registry too (Registry.SaveCalibration stamps the model name;
// Registry.LoadCalibration rejects a record that belongs to a
// different registered model, even when two arenas share a
// fingerprint).
//
//	reg := flint.NewModelRegistry()
//	reg.Register(flint.NewServedModel("magic", engine, 0))
//	out, err := reg.Predict("magic", rows, nil)
//	...
//	reg.Swap("magic", rebuiltModel) // zero dropped requests
//
// The network boundary is the serve layer (NewServer): an HTTP/JSON
// front-end (POST /v1/models/{name}:predict) that coalesces single-row
// and batch requests from many connections without a batching window —
// a lane predicts as soon as it is idle and batches whatever queued
// behind the in-flight call — applies per-model admission control
// (bounded queue, 429 on overflow), and reports per-model counters,
// latency quantiles and drift state on GET /v1/models and /metrics.
// cmd/flintserve wraps it into a binary: manifest-driven model sets,
// SIGHUP or POST /v1/reload hot reload through Swap, and a -selfcheck
// smoke mode CI runs against all five workloads. flintbench
// -servebench measures the wire path (rows/s, p50/p99) as
// BENCH_serve.json next to BENCH_batch.json.
//
// # Decision paths and robustness auditing
//
// FlatEngine.DecisionPath traces the exact per-tree comparison sequence
// behind a prediction — node, feature, threshold (and its quantized rank
// on the compact arena), direction — bit-consistent with Predict across
// every kernel and interleave width. On top of it, the robustness audit
// attacks rows the way an adversary would (greedy minimal threshold
// crossings in FLInt total order): RobustnessAudit reports the flip rate
// as a function of perturbation budget, AdversarialRow/AdversarialRows
// produce boundary-hugging worst-case serving workloads, and flintbench
// -audit emits the per-workload report CI archives as BENCH_robust.json.
//
// # Code generation: if-else listings and the integer-only table form
//
// GenerateCode emits a trained forest as source code, in one of two
// realization shapes (CodegenOptions.Mode):
//
//   - ModeIfElse (the default) — the paper's Listings 1-4: every tree
//     as nested branches in C or Go (plus ARMv8 and x86-64 assembly),
//     with float comparisons (VariantFloat) or the offline-encoded
//     integer comparisons (VariantFLInt), optional CAGS branch swapping
//     and double precision. Code size grows with the node count and
//     each node costs one comparison against an inline constant. Wins
//     on small forests whose hot paths fit the instruction cache, and
//     it is the only shape with assembly backends.
//
//   - ModeTable — the serving runtime's compact fused arena
//     (FlatCompact) as emittable source: static per-feature cut tables,
//     one uint64 word per node, a branchless binary-search quantizer
//     and the (key - rank) >> 31 shift-select walk loop. Integer-only
//     end to end — no float comparison, no FPU — and code size is
//     constant per forest: the model lives in data memory at ~8 bytes
//     per node (CompactModel.TableBytes reports the exact footprint),
//     the natural shape for flash-constrained FPU-less targets and for
//     forests deep enough that if-else code outgrows the instruction
//     cache. Supported for C and Go; predictions are bit-identical to
//     the FlatCompact engine (the Go form takes EncodeFeatures32
//     input). Forests exceeding the compact encoding return a
//     *CodegenNotCompactableError — probe Compactable first.
//
// flintbench -emit dumps both shapes for a trained workload side by
// side, and the cc bench backend times the table-driven C next to the
// if-else realizations. The tables themselves are available
// programmatically via FlatEngine.ExportCompact.
//
// Malformed input fails fast on every batch entry: rows whose length is
// not the engine's NumFeatures panic in the caller's goroutine
// (Batcher.Predict, PredictBatch) or return an error (Batch,
// BatchFloat) instead of killing the process from inside a worker.
package flint

import (
	"io"
	"time"

	"flint/internal/cags"
	"flint/internal/cart"
	"flint/internal/codegen"
	"flint/internal/core"
	"flint/internal/dataset"
	"flint/internal/flintsort"
	"flint/internal/ieee754"
	"flint/internal/rf"
	"flint/internal/robust"
	"flint/internal/serve"
	"flint/internal/softfloat"
	"flint/internal/treeexec"
)

// ---- The FLInt operator (the paper's primary contribution) ----

// GE32 reports x >= y for float32 operands using only integer and logic
// operations (Theorem 1 of the paper). See internal/core for the domain
// discussion: NaN is excluded, and -0.0 orders below +0.0.
func GE32(x, y float32) bool { return core.GE32(x, y) }

// LE32 reports x <= y via integer operations.
func LE32(x, y float32) bool { return core.LE32(x, y) }

// GT32 reports x > y via integer operations.
func GT32(x, y float32) bool { return core.GT32(x, y) }

// LT32 reports x < y via integer operations.
func LT32(x, y float32) bool { return core.LT32(x, y) }

// GE64 reports x >= y for float64 operands via integer operations.
func GE64(x, y float64) bool { return core.GE64(x, y) }

// LE64 reports x <= y via integer operations.
func LE64(x, y float64) bool { return core.LE64(x, y) }

// Compare32 orders x against y (-1, 0, +1) in FLInt's total order.
func Compare32(x, y float32) int { return core.Compare32(x, y) }

// Compare64 orders x against y (-1, 0, +1) in FLInt's total order.
func Compare64(x, y float64) int { return core.Compare64(x, y) }

// Split32 is a decision tree split value encoded offline for single-
// comparison FLInt evaluation (Section IV-B of the paper).
type Split32 = core.Split32

// Split64 is the float64 counterpart of Split32.
type Split64 = core.Split64

// EncodeSplit32 encodes a split value, rejecting NaN.
func EncodeSplit32(s float32) (Split32, error) { return core.EncodeSplit32(s) }

// MustEncodeSplit32 encodes a split value, panicking on NaN.
func MustEncodeSplit32(s float32) Split32 { return core.MustEncodeSplit32(s) }

// EncodeSplit64 encodes a float64 split value, rejecting NaN.
func EncodeSplit64(s float64) (Split64, error) { return core.EncodeSplit64(s) }

// MustEncodeSplit64 encodes a float64 split value, panicking on NaN.
func MustEncodeSplit64(s float64) Split64 { return core.MustEncodeSplit64(s) }

// FeatureBits32 reinterprets a float32 feature as the signed integer the
// split predicates consume (the `(int*)` cast of Listing 2).
func FeatureBits32(x float32) int32 { return ieee754.SI32(x) }

// FeatureBits64 reinterprets a float64 feature as a signed integer.
func FeatureBits64(x float64) int64 { return ieee754.SI64(x) }

// EncodeFeatures32 reinterprets a feature vector into dst.
func EncodeFeatures32(dst []int32, src []float32) []int32 {
	return core.EncodeFeatures32(dst, src)
}

// SoftLE32 is the software IEEE `<=` used on FPU-less devices, provided
// as the baseline FLInt replaces (package softfloat).
func SoftLE32(a, b float32) bool { return softfloat.LEFloat32(a, b) }

// ---- Model, data and training ----

// Forest is a trained random forest over float32 features.
type Forest = rf.Forest

// Tree is a single decision tree.
type Tree = rf.Tree

// Node is one decision tree node.
type Node = rf.Node

// Predictor classifies float32 feature vectors.
type Predictor = rf.Predictor

// Dataset is an in-memory classification dataset.
type Dataset = dataset.Dataset

// TrainConfig configures random forest training (scikit-learn-like
// defaults; see internal/cart).
type TrainConfig = cart.Config

// GenerateDataset synthesizes one of the paper's five evaluation
// workloads ("eye", "gas", "magic", "sensorless", "wine"); rows <= 0
// selects the full UCI-equivalent size.
func GenerateDataset(name string, rows int, seed int64) (*Dataset, error) {
	return dataset.Generate(name, rows, seed)
}

// DatasetNames returns the workload names in the paper's order.
func DatasetNames() []string { return dataset.Names() }

// Train trains a random forest.
func Train(d *Dataset, cfg TrainConfig) (*Forest, error) { return cart.TrainForest(d, cfg) }

// TrainTree trains a single deterministic CART tree.
func TrainTree(d *Dataset, maxDepth int, seed int64) (*Tree, error) {
	return cart.TrainTree(d, maxDepth, seed)
}

// ReadForestJSON loads a forest serialized with Forest.WriteJSON.
func ReadForestJSON(r io.Reader) (*Forest, error) { return rf.ReadJSON(r) }

// Accuracy returns the fraction of correct predictions.
func Accuracy(p Predictor, x [][]float32, y []int32) float64 { return rf.Accuracy(p, x, y) }

// ---- Execution engines ----

// Float32Engine executes a forest with hardware float comparisons.
type Float32Engine = treeexec.Float32Engine

// FLIntEngine executes a forest with offline-resolved FLInt comparisons.
type FLIntEngine = treeexec.FLIntEngine

// PrecodedEngine executes a forest in total-order key space (one
// transformation per feature vector, one unsigned compare per node).
type PrecodedEngine = treeexec.PrecodedEngine

// SoftFloatEngine executes a forest with software float comparisons,
// modeling an FPU-less device.
type SoftFloatEngine = treeexec.SoftFloatEngine

// NewFloatEngine compiles a forest for hardware float traversal.
func NewFloatEngine(f *Forest) (*Float32Engine, error) { return treeexec.NewFloat32(f) }

// NewFLIntEngine compiles a forest for FLInt traversal.
func NewFLIntEngine(f *Forest) (*FLIntEngine, error) { return treeexec.NewFLInt(f) }

// NewPrecodedEngine compiles a forest for precoded traversal.
func NewPrecodedEngine(f *Forest) (*PrecodedEngine, error) { return treeexec.NewPrecoded(f) }

// NewSoftFloatEngine compiles a forest for soft-float traversal.
func NewSoftFloatEngine(f *Forest) (*SoftFloatEngine, error) { return treeexec.NewSoftFloat(f) }

// ---- Forest-arena execution (batch serving) ----

// FlatEngine executes a forest out of one contiguous node arena with
// per-tree root offsets and branch-free leaf decoding (leaves are
// negative child indices carrying the complemented class). It is the
// engine of choice for batch and serving workloads: PredictBatch and
// Batcher walk blocks of rows in lock-step through each tree so arena
// node fetches amortize across the block.
type FlatEngine = treeexec.FlatForestEngine

// FlatVariant selects the comparison kernel a FlatEngine is compiled
// for (FLInt, hardware float, total-order precoded, or the quantized
// compact SoA arena).
type FlatVariant = treeexec.FlatVariant

// The arena comparison variants.
const (
	FlatFLInt    = treeexec.FlatFLInt
	FlatFloat32  = treeexec.FlatFloat32
	FlatPrecoded = treeexec.FlatPrecoded
	FlatCompact  = treeexec.FlatCompact
)

// InterleaveGates are the arena-size thresholds (bytes) from which the
// batch kernel walks 2, 4 and 8 rows at once, one threshold set per
// interleaving arena layout (the 16-byte AoS arenas read Min2/Min4/
// Min8, the compact SoA arena reads CompactMin2/CompactMin4/
// CompactMin8); see Calibrate.
type InterleaveGates = treeexec.InterleaveGates

// Kernel selects how the compact arena's batch kernel resolves each
// node's child: KernelBranchy compares and branches per level,
// KernelFused loads the node as one pre-packed word and computes the
// child branch-free, KernelSIMDQuant vectorizes only the quantizer (the
// gather-free half of the walk) and runs the fused walk scalar, and
// KernelSIMD runs the branch-free step 8 lanes per instruction in
// vector registers where the host ISA allows — two software-pipelined
// 8-lane groups with lane compaction at interleave width 16 (see the
// package doc's kernel-selection section). All produce bit-identical
// predictions; calibration picks the fastest alongside the interleave
// width, and FlatEngine.SetKernel pins a choice for A/B measurement.
type Kernel = treeexec.Kernel

// The compact walk kernels, plus the KernelAuto sentinel that clears a
// SetKernel pin (handing the choice back to calibration).
const (
	KernelBranchy   = treeexec.KernelBranchy
	KernelFused     = treeexec.KernelFused
	KernelSIMDQuant = treeexec.KernelSIMDQuant
	KernelSIMD      = treeexec.KernelSIMD
	KernelAuto      = treeexec.KernelAuto
)

// ParseKernel maps a kernel name ("branchy", "fused", "simd-quant",
// "simd", or the legacy empty string meaning branchy) to its constant.
func ParseKernel(name string) (Kernel, error) { return treeexec.ParseKernel(name) }

// DetectedISA reports the vector instruction set the SIMD kernels
// execute natively on this host ("avx2"), or "" where only their
// portable fallbacks are available and calibration therefore never
// selects them.
func DetectedISA() string { return treeexec.DetectedISA() }

// Compactable reports whether a forest fits the compact SoA arena's
// 8-byte node encoding; when it does not, reason names the limit
// exceeded and NewFlatEngineVariant(f, FlatCompact) will fall back to
// the 32-bit FLInt arena.
func Compactable(f *Forest) (ok bool, reason string) { return treeexec.Compactable(f) }

// Calibrate measures, on this host and for each interleaving arena
// layout, the arena sizes past which the batch kernel's 2/4/8-way
// interleaved walks win, and installs the per-variant thresholds for
// engines constructed afterwards. Call it once at process start
// (budget <= 0 selects ~200ms). Individual engines can self-tune
// instead via FlatEngine.CalibrateInterleave, or — most accurately —
// on sampled production rows via FlatEngine.CalibrateInterleaveRows.
func Calibrate(budget time.Duration) InterleaveGates { return treeexec.Calibrate(budget) }

// CurrentInterleaveGates returns the gate table newly constructed
// engines will read: the last Calibrate (or SetInterleaveGates) result,
// or the static defaults.
func CurrentInterleaveGates() InterleaveGates { return treeexec.CurrentInterleaveGates() }

// SetInterleaveGates installs a gate table for subsequently constructed
// engines — for deployments that ship thresholds measured offline
// instead of spending Calibrate's startup budget.
func SetInterleaveGates(g InterleaveGates) { treeexec.SetInterleaveGates(g) }

// Batcher is a persistent worker pool over a FlatEngine: goroutines and
// per-worker scratch are allocated once, so steady-state batch
// prediction with a reused output slice allocates nothing. It also
// samples the traffic it serves into a fixed-capacity reservoir
// (allocation-free on the Predict path) feeding Recalibrate — re-timing
// the engine's interleave width on measured rows, safely while traffic
// is in flight — and SampleSnapshot, whose rows SaveCalibration can
// persist for the next deployment's warm start.
type Batcher = treeexec.Batcher

// ArenaFingerprint identifies the compiled arena a calibration record
// was measured on (variant, node count, feature and class counts);
// LoadCalibration rejects records whose fingerprint does not match the
// loading engine.
type ArenaFingerprint = treeexec.ArenaFingerprint

// CalibrationRecord is the persisted calibration state of one engine —
// arena fingerprint, host gate table, chosen interleave width and
// optionally sampled traffic rows — written by FlatEngine.
// SaveCalibration and restored by FlatEngine.LoadCalibration.
type CalibrationRecord = treeexec.CalibrationRecord

// WriteGatesJSON persists a host-wide interleave gate table alone (no
// engine fingerprint), e.g. a Calibrate result measured offline.
func WriteGatesJSON(w io.Writer, g InterleaveGates) error { return treeexec.WriteGatesJSON(w, g) }

// ReadGatesJSON reads a gate table written by WriteGatesJSON; install
// it with SetInterleaveGates.
func ReadGatesJSON(r io.Reader) (InterleaveGates, error) { return treeexec.ReadGatesJSON(r) }

// NewFlatEngine compiles a forest into a single-arena FLInt engine. To
// keep the CAGS cache benefit inside the arena, pass a Reorder-ed
// forest. Other comparison kernels: NewFlatEngineVariant.
func NewFlatEngine(f *Forest) (*FlatEngine, error) {
	return treeexec.NewFlat(f, treeexec.FlatFLInt)
}

// NewFlatEngineVariant compiles a forest into a single-arena engine for
// the given comparison variant.
func NewFlatEngineVariant(f *Forest, v FlatVariant) (*FlatEngine, error) {
	return treeexec.NewFlat(f, v)
}

// PredictBatch classifies all rows with the engine's row-blocked kernel
// on up to workers goroutines (0 selects GOMAXPROCS). For steady-state
// serving without per-call goroutine spawning, use NewBatcher.
func PredictBatch(e *FlatEngine, rows [][]float32, workers int) []int32 {
	return e.PredictBatch(rows, nil, workers, 0)
}

// NewBatcher starts a persistent worker pool of the given size over the
// engine (0 selects GOMAXPROCS), with traffic-reservoir sampling
// enabled at the default capacity and stride. Close it when done.
func NewBatcher(e *FlatEngine, workers int) *Batcher {
	return treeexec.NewBatcher(e, workers, 0)
}

// NewBatcherSampled is NewBatcher with the row-block size and the
// reservoir parameters explicit: block is the rows-per-work-unit of the
// pool (<= 0 selects the default, like NewBatcher), capacity rows are
// held in the traffic reservoir (negative disables sampling, zero
// selects the default) and one served row in every stride is considered
// for admission (<= 0 selects the default).
func NewBatcherSampled(e *FlatEngine, workers, block, capacity, stride int) *Batcher {
	return treeexec.NewBatcherSampled(e, workers, block, capacity, stride)
}

// ---- Model registry and network serving ----

// ServedModel is one model's complete serving state — engine, Batcher,
// traffic reservoir, drift detector, calibration record — as a single
// swappable unit with an error-returning Predict. See the "Model
// registry and network serving" section of the package documentation.
type ServedModel = treeexec.ServedModel

// ModelRegistry serves a set of ServedModels by name and hot-swaps
// them without dropping requests (Swap flips an atomic pointer and
// drains the old model; Predict retries across the flip).
type ModelRegistry = treeexec.ModelRegistry

// ModelStats is a point-in-time snapshot of one served model's engine
// mode, counters and drift state (ServedModel.Stats, Registry.Stats).
type ModelStats = treeexec.ModelStats

// ErrModelRetired is returned by ServedModel.Predict after Close (or a
// registry Swap) retired the model; ModelRegistry.Predict absorbs it by
// retrying against the replacement.
var ErrModelRetired = treeexec.ErrModelRetired

// NewModelRegistry returns an empty model registry.
func NewModelRegistry() *ModelRegistry { return treeexec.NewModelRegistry() }

// NewServedModel wraps an engine as a registry-servable model with a
// default-sampled Batcher of the given pool size (0 selects
// GOMAXPROCS).
func NewServedModel(name string, e *FlatEngine, workers int) *ServedModel {
	return treeexec.NewServedModel(name, e, workers, 0)
}

// NewServedModelSampled is NewServedModel with the Batcher's row-block
// size and reservoir parameters explicit (NewBatcherSampled semantics).
func NewServedModelSampled(name string, e *FlatEngine, workers, block, capacity, stride int) *ServedModel {
	return treeexec.NewServedModelSampled(name, e, workers, block, capacity, stride)
}

// Server is the HTTP/JSON front-end over a ModelRegistry: cross-request
// batching (a lane predicts as soon as it is idle and batches whatever
// queued behind the in-flight call), per-model admission control and
// metrics. Mount Server.Handler on an http.Server; see cmd/flintserve
// for the packaged binary.
type Server = serve.Server

// ServeConfig tunes the front-end (coalescing row cap, admission queue
// bound); the zero value selects the defaults.
type ServeConfig = serve.Config

// NewServer builds the HTTP front-end over a registry.
func NewServer(reg *ModelRegistry, cfg ServeConfig) *Server { return serve.New(reg, cfg) }

// ---- Drift detection and decision-path robustness auditing ----

// DriftConfig parameterizes a Batcher's drift detector (check cadence,
// PSI trigger threshold, recalibration cooldown, evidence floor,
// histogram bins, recalibration budget); the zero value selects the
// defaults. Arm it with Batcher.EnableDriftDetection.
type DriftConfig = treeexec.DriftConfig

// DriftStats is a snapshot of a Batcher's drift detector: the latest
// PSI distance, check/trigger/suppression counters and timestamps. A
// trigger counts once its recalibration pass has installed a mode;
// Starved counts the passes whose budget ran out before timing any
// candidate. Read it with Batcher.DriftStats; Batcher.CheckDrift forces
// a synchronous check.
type DriftStats = treeexec.DriftStats

// PathStep is one comparison on a row's decision path, as traced by
// FlatEngine.DecisionPath: the tree and arena node, the feature and
// threshold compared (with the compact arena's quantized rank), and the
// direction taken. The trace is bit-consistent with Predict on every
// kernel and interleave width.
type PathStep = treeexec.PathStep

// AttackConfig parameterizes the decision-path attack (iteration cap,
// normalized perturbation budget, per-feature cost scale); the zero
// value selects the defaults.
type AttackConfig = robust.Config

// AttackResult is the outcome of attacking one row: the perturbed copy,
// whether the prediction flipped, and the normalized cost and number of
// threshold crossings spent.
type AttackResult = robust.Result

// RobustnessReport is a robustness audit over a row set: the attack's
// flip rate as a function of perturbation budget.
type RobustnessReport = robust.Report

// AdversarialRow attacks one row with the greedy decision-path attack:
// it returns a minimally perturbed copy (each changed feature lands
// exactly on a trained threshold or its immediate float successor in
// FLInt total order) whose prediction flips when the search succeeds
// within the configured caps. The input row is not modified.
func AdversarialRow(e *FlatEngine, x []float32, cfg AttackConfig) AttackResult {
	return robust.Perturb(e, x, cfg)
}

// AdversarialRows attacks every row and returns the perturbed copies —
// a boundary-hugging worst-case serving workload for benchmarks and
// differential tests.
func AdversarialRows(e *FlatEngine, rows [][]float32, cfg AttackConfig) [][]float32 {
	return robust.AdversarialRows(e, rows, cfg)
}

// RobustnessAudit attacks every row and reports the flip-rate curve
// over the budget ladder (nil selects the default ladder; budgets read
// as fractions of the rows' per-feature value spread unless cfg.Scale
// overrides the normalization).
func RobustnessAudit(e *FlatEngine, rows [][]float32, budgets []float64, cfg AttackConfig) RobustnessReport {
	return robust.Audit(e, rows, budgets, cfg)
}

// ---- CAGS (Chen et al. [6]) ----

// Reorder applies the grouping half of CAGS: it permutes every tree's
// node array into hot-path preorder using the branch probabilities
// collected during training.
func Reorder(f *Forest) (*Forest, error) { return cags.ReorderForest(f) }

// ---- Code generation ----

// CodegenOptions configures source emission.
type CodegenOptions = codegen.Options

// CodegenNotCompactableError reports a ModeTable request for a forest
// that exceeds the compact encoding; its Reason names the limit.
type CodegenNotCompactableError = codegen.NotCompactableError

// CompactModel is the compact fused arena as an exported value — the
// tables ModeTable emits and FlatEngine.ExportCompact returns.
type CompactModel = treeexec.CompactModel

// Code generation languages, realization modes, comparison variants and
// assembly constant flavors (re-exported from internal/codegen).
const (
	LangC        = codegen.LangC
	LangGo       = codegen.LangGo
	LangARMv8    = codegen.LangARMv8
	LangX86      = codegen.LangX86
	ModeIfElse   = codegen.ModeIfElse
	ModeTable    = codegen.ModeTable
	VariantFloat = codegen.VariantFloat
	VariantFLInt = codegen.VariantFLInt
	FlavorHand   = codegen.FlavorHand
	FlavorCC     = codegen.FlavorCC
)

// GenerateCode writes a forest as source code in the configured
// language/variant (Listings 1-5 of the paper).
func GenerateCode(w io.Writer, f *Forest, opts CodegenOptions) error {
	return codegen.Forest(w, f, opts)
}

// ---- Beyond trees: comparison-free sorting (the paper's future work) ----

// SortFloat32s sorts x ascending in IEEE 754 totalOrder without
// executing a single floating point comparison (package flintsort): the
// FLInt future-work direction of applying the operator to other
// comparison-heavy applications.
func SortFloat32s(x []float32) { flintsort.Sort32(x) }

// SortFloat64s is SortFloat32s for float64 slices.
func SortFloat64s(x []float64) { flintsort.Sort64(x) }

// SearchFloat32s returns the smallest index i in totalOrder-sorted x
// with x[i] >= v, using integer comparisons only.
func SearchFloat32s(x []float32, v float32) int { return flintsort.Search32(x, v) }
