package treeexec

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flint/internal/core"
	"flint/internal/ieee754"
	"flint/internal/rf"
)

// FlatVariant selects the comparison kernel an arena is compiled for.
// The variant is fixed at compile time because it determines how split
// keys are encoded into the arena nodes.
type FlatVariant int

const (
	// FlatFLInt stores offline sign-resolved FLInt keys: one signed or
	// unsigned integer compare per node (the paper's Section IV-B).
	FlatFLInt FlatVariant = iota
	// FlatFloat32 stores raw float bit patterns and compares with the
	// hardware float unit — the naive baseline over the arena layout.
	FlatFloat32
	// FlatPrecoded stores total-order keys: one unsigned compare per
	// node against a per-vector precoded input (the key-space precoding
	// extension).
	FlatPrecoded
	// FlatCompact stores the forest as the quantized arena: each node
	// encoded in one 8-byte word (uint16 key, uint16 feature, packed
	// int32 children), with split values reduced to exact per-feature
	// total-order ranks (see flat_compact.go). The engine holds those
	// 8 bytes per node, which is what its one walk touches. Forests
	// exceeding the narrow encoding's limits fall back to the FlatFLInt
	// arena; probe with Compactable.
	FlatCompact
)

// String names the variant in benchmark output.
func (v FlatVariant) String() string {
	switch v {
	case FlatFLInt:
		return "flat-flint"
	case FlatFloat32:
		return "flat-float32"
	case FlatPrecoded:
		return "flat-precoded"
	case FlatCompact:
		return "flat-compact"
	}
	return fmt.Sprintf("flat-variant(%d)", int(v))
}

// FlatForestEngine executes a forest out of one contiguous node arena:
// every inner node of every tree lives in a single backing array, trees
// are addressed by per-tree root offsets, and leaves are not stored at
// all — a child index c < 0 encodes the leaf class as ^c. The hot loop
// is therefore load → compare → select with no per-node leaf branch:
//
//	for i >= 0 { n := &arena[i]; i = pick(n.left, n.right) }
//	class = ^i
//
// Within each tree the compiler preserves the relative order of the
// source tree's inner nodes, so a forest permuted by cags.ReorderForest
// keeps its hot-path-preorder locality inside the arena.
//
// The engine is immutable after construction apart from the interleave
// width knob (SetInterleave/CalibrateInterleave) and safe for concurrent
// use. Single rows go through Predict/PredictEncoded/PredictPrecoded;
// many rows should go through PredictBatch or a persistent Batcher: the
// rows of a block run back-to-back over the arena with per-worker
// scratch. On arenas past the cache comfort zone the FLInt arena walks
// rows in interleaved groups of 2, 4 or 8 register-resident cursors so
// the core overlaps their node fetches (see flat_interleave.go for the
// runtime-calibrated gates). The compact arena instead deals each
// 16-row chunk's (tree, row) pairs to four lanes that are refilled as
// they leaf, and a lone compact row walks four of its trees at once, so
// four node loads stay in flight either way (flat_fused.go).
type FlatForestEngine struct {
	arena   []node  // inner nodes of all trees, contiguous (AoS variants)
	roots   []int32 // per-tree entry: arena index (tree base for compact), or ^class for leaf-only trees
	variant FlatVariant

	// Compact arena (FlatCompact only): 8-byte nodes plus the
	// feature-pruned quantization tables. Cut tables exist only for the
	// numPruned features the forest actually splits on; node feature
	// fields and the quantized rank lanes are indexed by the dense pruned
	// renumbering, prunedOrig maps it back to input columns. See
	// flat_compact.go.
	nodes64    []uint64 // key16 | feat16<<16 | kids32<<32, one load per walk step
	cuts       []uint32 // flattened pruned-feature sorted distinct split keys (total order)
	cutLo      []int32  // numPruned+1 offsets into cuts
	prunedOrig []int32  // pruned feature index -> original input column
	numPruned  int      // features the forest splits on (== len(prunedOrig))

	numClasses  int
	numFeatures int
	// width is the FLInt batch kernel's row-group width (1, 2, 4 or 8),
	// selected at construction from the calibrated gates and the arena
	// footprint; SetInterleave and the calibration passes override it.
	// A compact engine keeps 1: its tree lanes read no width. It is
	// atomic because recalibration (Batcher.Recalibrate on sampled
	// traffic, or an explicit CalibrateInterleaveRows) may install a new
	// width while Batcher workers are mid-batch: every width produces
	// identical predictions, so a worker racing the store merely
	// finishes its block at the old width.
	width atomic.Int32
	// calibSource records where the current width came from (see the
	// calibSource* constants); CalibrationSource decodes it for reports.
	calibSource atomic.Int32
}

// NewFlat compiles a validated forest into a single-arena engine for the
// given comparison variant. The forest's node ordering (original or
// CAGS-reordered) is preserved tree by tree. A FlatCompact request for a
// forest exceeding the compact encoding's limits (see Compactable)
// gracefully falls back to the 32-bit FlatFLInt arena; check Variant()
// or probe Compactable to learn which representation was built.
func NewFlat(f *rf.Forest, v FlatVariant) (*FlatForestEngine, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if v == FlatCompact {
		if cuts, _ := compactProbe(f); cuts == nil {
			v = FlatFLInt
		} else {
			e := &FlatForestEngine{
				variant:     FlatCompact,
				numClasses:  f.NumClasses,
				numFeatures: f.NumFeatures,
			}
			if err := e.buildCompact(f, cuts); err != nil {
				return nil, err
			}
			e.width.Store(1)
			return e, nil
		}
	}
	var enc func(split float32) int32
	switch v {
	case FlatFLInt:
		enc = func(s float32) int32 { return core.MustEncodeSplit32(s).Key }
	case FlatFloat32:
		enc = ieee754.SI32
	case FlatPrecoded:
		enc = func(s float32) int32 { return int32(core.PrecodeSplit32(s)) }
	default:
		return nil, fmt.Errorf("treeexec: unknown flat variant %d", int(v))
	}

	inner := 0
	for i := range f.Trees {
		inner += len(f.Trees[i].Nodes) - f.Trees[i].NumLeaves()
	}
	if inner > math.MaxInt32 {
		return nil, fmt.Errorf("treeexec: forest has %d inner nodes, arena indices overflow int32", inner)
	}
	e := &FlatForestEngine{
		arena:       make([]node, 0, inner),
		roots:       make([]int32, len(f.Trees)),
		variant:     v,
		numClasses:  f.NumClasses,
		numFeatures: f.NumFeatures,
	}
	// remap is reused per tree: old node index -> arena index for inner
	// nodes, ^class for leaves.
	var remap []int32
	for ti := range f.Trees {
		src := f.Trees[ti].Nodes
		if cap(remap) < len(src) {
			remap = make([]int32, len(src))
		}
		remap = remap[:len(src)]
		base := int32(len(e.arena))
		next := base
		for i, n := range src {
			if n.IsLeaf() {
				remap[i] = ^n.Class
				continue
			}
			if !core.ValidFeature32(n.Split) {
				return nil, fmt.Errorf("treeexec: tree %d node %d has NaN split", ti, i)
			}
			remap[i] = next
			next++
		}
		e.roots[ti] = remap[0]
		for _, n := range src {
			if n.IsLeaf() {
				continue
			}
			e.arena = append(e.arena, node{
				feature: n.Feature,
				key:     enc(n.Split),
				left:    remap[n.Left],
				right:   remap[n.Right],
			})
		}
	}
	e.width.Store(int32(CurrentInterleaveGates().widthFor(e.ArenaBytes())))
	return e, nil
}

// Name identifies the engine in benchmark output.
func (e *FlatForestEngine) Name() string { return e.variant.String() }

// Variant returns the comparison kernel the arena was actually compiled
// for — after a FlatCompact fallback this is FlatFLInt.
func (e *FlatForestEngine) Variant() FlatVariant { return e.variant }

// NumClasses returns the number of prediction classes.
func (e *FlatForestEngine) NumClasses() int { return e.numClasses }

// NumFeatures returns the input dimensionality.
func (e *FlatForestEngine) NumFeatures() int { return e.numFeatures }

// PrunedFeatures returns the number of features the compiled forest
// actually splits on — the per-row quantization cost of the compact
// arena (one binary search each). For non-compact variants, which keep
// no cut tables, it returns NumFeatures.
func (e *FlatForestEngine) PrunedFeatures() int {
	if e.variant == FlatCompact {
		return e.numPruned
	}
	return e.numFeatures
}

// classifyFLInt walks one tree from root over sign-resolved FLInt keys.
func (e *FlatForestEngine) classifyFLInt(xi []int32, i int32) int32 {
	arena := e.arena
	for i >= 0 {
		n := &arena[i]
		v := xi[n.feature]
		var le bool
		if n.key >= 0 {
			le = v <= n.key
		} else {
			le = uint32(v) >= uint32(n.key)
		}
		if le {
			i = n.left
		} else {
			i = n.right
		}
	}
	return ^i
}

// classifyFloat walks one tree comparing reinterpreted hardware floats.
func (e *FlatForestEngine) classifyFloat(xi []int32, i int32) int32 {
	arena := e.arena
	for i >= 0 {
		n := &arena[i]
		if ieee754.FromSI32(xi[n.feature]) <= ieee754.FromSI32(n.key) {
			i = n.left
		} else {
			i = n.right
		}
	}
	return ^i
}

// classifyTotalOrder walks one tree over total-order keys, transforming
// each raw bit pattern at load time (the unamortized precoded form).
func (e *FlatForestEngine) classifyTotalOrder(xi []int32, i int32) int32 {
	arena := e.arena
	for i >= 0 {
		n := &arena[i]
		if ieee754.TotalOrderKey32(uint32(xi[n.feature])) <= uint32(n.key) {
			i = n.left
		} else {
			i = n.right
		}
	}
	return ^i
}

// classifyPrecoded walks one tree over a precoded key vector.
func (e *FlatForestEngine) classifyPrecoded(keys []uint32, i int32) int32 {
	arena := e.arena
	for i >= 0 {
		n := &arena[i]
		if keys[n.feature] <= uint32(n.key) {
			i = n.left
		} else {
			i = n.right
		}
	}
	return ^i
}

// classify2FLInt walks one tree for two rows at once. The two traversal
// chains are independent, so the out-of-order core overlaps their node
// fetches (2-way memory-level parallelism) — the lock-step payoff of the
// blocked kernel, with all per-lane state in registers. When the chains
// diverge in depth the leftover row finishes in a single-chain loop.
func (e *FlatForestEngine) classify2FLInt(x0, x1 []int32, root int32) (int32, int32) {
	arena := e.arena
	i0, i1 := root, root
	for i0 >= 0 && i1 >= 0 {
		n0 := &arena[i0]
		n1 := &arena[i1]
		v0 := x0[n0.feature]
		v1 := x1[n1.feature]
		var le0, le1 bool
		if n0.key >= 0 {
			le0 = v0 <= n0.key
		} else {
			le0 = uint32(v0) >= uint32(n0.key)
		}
		if n1.key >= 0 {
			le1 = v1 <= n1.key
		} else {
			le1 = uint32(v1) >= uint32(n1.key)
		}
		if le0 {
			i0 = n0.left
		} else {
			i0 = n0.right
		}
		if le1 {
			i1 = n1.left
		} else {
			i1 = n1.right
		}
	}
	if i0 >= 0 {
		return e.classifyFLInt(x0, i0), ^i1
	}
	if i1 >= 0 {
		return ^i0, e.classifyFLInt(x1, i1)
	}
	return ^i0, ^i1
}

// voteEncoded tallies every tree's class for a raw bit-pattern vector
// into counts (length numClasses, zeroed by the caller) on the AoS
// arenas; compact engines vote through voteRowFused. The variant switch
// is hoisted out of the per-tree loop.
func (e *FlatForestEngine) voteEncoded(xi []int32, counts []int32) {
	switch e.variant {
	case FlatFLInt:
		for _, root := range e.roots {
			counts[e.classifyFLInt(xi, root)]++
		}
	case FlatFloat32:
		for _, root := range e.roots {
			counts[e.classifyFloat(xi, root)]++
		}
	default:
		for _, root := range e.roots {
			counts[e.classifyTotalOrder(xi, root)]++
		}
	}
}

// maxStackQuantizedFeatures bounds the stack buffer a single compact row
// quantizes into; forests splitting on more features allocate (the
// bound is on the pruned count, not the input width). Batch paths
// always use engine scratch and stay allocation-free.
const maxStackQuantizedFeatures = 64

// PredictEncoded returns the majority-vote class for a raw bit-pattern
// vector (core.EncodeFeatures32 output). It is valid for every variant:
// the precoded arena transforms each load into key space, matching the
// total-order engine's semantics, and a compact engine ranks the row
// and walks its trees four at a time (predictRanked).
func (e *FlatForestEngine) PredictEncoded(xi []int32) int32 {
	if e.variant == FlatCompact {
		var qs [maxStackQuantizedFeatures]uint16
		q := e.rowRanks(&qs)
		e.quantizeBitsFused(q, xi)
		return e.predictRanked(q)
	}
	var stack [maxStackClasses]int32
	counts := voteSlice(&stack, e.numClasses)
	e.voteEncoded(xi, counts)
	return rf.Argmax(counts)
}

// PredictPrecoded returns the majority-vote class for a precoded key
// vector (core.PrecodeFeatures32 output). Exact for the FlatPrecoded
// variant (whose arena stores total-order keys) and for FlatCompact
// (which ranks the keys into its cut tables); other variants store keys
// the precoded input cannot be compared against and would walk garbage.
func (e *FlatForestEngine) PredictPrecoded(keys []uint32) int32 {
	if e.variant == FlatCompact {
		var qs [maxStackQuantizedFeatures]uint16
		q := e.rowRanks(&qs)
		e.quantizeKeysFused(q, keys)
		return e.predictRanked(q)
	}
	var stack [maxStackClasses]int32
	counts := voteSlice(&stack, e.numClasses)
	for _, root := range e.roots {
		counts[e.classifyPrecoded(keys, root)]++
	}
	return rf.Argmax(counts)
}

// Predict encodes x for the engine's variant and classifies it,
// satisfying rf.Predictor. A compact engine ranks x directly, with no
// bit-pattern detour.
func (e *FlatForestEngine) Predict(x []float32) int32 {
	switch e.variant {
	case FlatPrecoded:
		return e.PredictPrecoded(core.PrecodeFeatures32(make([]uint32, 0, 64), x))
	case FlatCompact:
		var qs [maxStackQuantizedFeatures]uint16
		q := e.rowRanks(&qs)
		e.quantizeBlockFused([][]float32{x}, q)
		return e.predictRanked(q)
	}
	return e.PredictEncoded(core.EncodeFeatures32(make([]int32, 0, 64), x))
}

// pairMinArenaNodes is the PR 1 static gate for the paired FLInt walk:
// past ~1MB of nodes the arena stops fitting in a per-core L2 and
// traversal becomes fetch-latency-bound, which the 2-way interleaved
// walk hides (measured 1.8x over the per-row engines at 16MB arenas,
// 20% at 2MB); below it the walks are IPC-bound and the simple per-row
// loop is cheaper. It survives only as the uncalibrated default for
// InterleaveGates.Min2 — run Calibrate to replace all the gates with
// crossovers measured on the actual host.
const pairMinArenaNodes = 1 << 16

// DefaultBlockRows is the default row-block size B of the batch kernel:
// a worker claims B rows at a time and walks them through the whole
// forest before the next block, so every node fetched from the arena is
// reused up to B times while it is cache-hot. It matches the compact
// walk's 16-row chunk, the unit it deals tree-major to its lanes;
// 64-row blocks (four chunks per block) served flintperf's
// large forest slower end to end, in 4 of 4 paired runs.
const DefaultBlockRows = 16

// flatScratch is the per-worker working set of the batch kernel: encode
// or quantize buffers for one interleaved group of rows and the group's
// vote-count tallies, allocated once at pool construction so the steady
// state allocates nothing. Buffers are sized for the widest group the
// variant supports (8 rows on the AoS arenas; a 16-row chunk on the
// compact arena) so a later SetInterleave/CalibrateInterleave never
// forces a reallocation.
type flatScratch struct {
	enc   []int32  // 8*numFeatures raw bit patterns (FLInt/Float32)
	keys  []uint32 // numFeatures precoded keys (FlatPrecoded only)
	q     []uint16 // 16*numPruned quantized ranks (FlatCompact only)
	votes []int32  // vote counts (spilled when classes > maxStackClasses)
}

func (e *FlatForestEngine) newScratch() *flatScratch {
	s := &flatScratch{}
	switch e.variant {
	case FlatPrecoded:
		s.votes = make([]int32, 8*e.numClasses)
		s.keys = make([]uint32, e.numFeatures)
	case FlatCompact:
		s.votes = make([]int32, 16*e.numClasses)
		s.q = make([]uint16, 16*e.numPruned)
	default:
		s.votes = make([]int32, 8*e.numClasses)
		s.enc = make([]int32, 8*e.numFeatures)
	}
	return s
}

// predictBlock classifies one block of rows into out, reusing s. The
// rows of a block run back-to-back through the whole arena, so the
// forest's hot set — halved by the leaf-free encoding relative to the
// per-tree engines — is reused across the block while cache-resident.
//
// Which order a block walks in depends on the arena. The AoS arenas
// stay row-major (each row, or interleaved group of rows, through every
// tree): on them a tree-major "lock-step" order and a level-synchronous
// lane variant both measured slower on commodity x86, their per-walk
// bookkeeping outweighing the node-fetch reuse. The compact arena deals
// tree-major (tree, row) pairs to four lanes refilled as they leaf,
// which keeps four node fetches in flight where a row group stalls on
// its first leaf: on flintperf's large forest, past L2, that served
// ~1.9x the rows/s of row groups of 4 (flat_fused.go).
func (e *FlatForestEngine) predictBlock(rows [][]float32, out []int32, s *flatScratch) {
	e.predictBlockWidth(rows, out, s, int(e.width.Load()))
}

// predictBlockWidth is predictBlock at an explicit interleave width,
// bypassing the engine's atomic width field. It exists so calibration
// (timeWidths) can time every candidate width without mutating shared
// engine state while Batcher workers are in flight; the serving path
// loads the atomic once per block and funnels through here.
func (e *FlatForestEngine) predictBlockWidth(rows [][]float32, out []int32, s *flatScratch, width int) {
	nf := e.numFeatures
	nc := e.numClasses
	switch {
	case e.variant == FlatPrecoded:
		for b, x := range rows {
			keys := core.PrecodeFeatures32(s.keys[:0], x)
			votes := s.votes[:nc]
			for i := range votes {
				votes[i] = 0
			}
			for _, root := range e.roots {
				votes[e.classifyPrecoded(keys, root)]++
			}
			out[b] = rf.Argmax(votes)
		}
	case e.variant == FlatCompact:
		e.predictBlockCompactFused(rows, out, s)
	case e.variant == FlatFLInt && width >= 2:
		e.predictBlockFLIntWide(rows, out, s, width)
	default:
		for b, x := range rows {
			out[b] = e.predictOneInto(core.EncodeFeatures32(s.enc[0:0:nf], x), s)
		}
	}
}

// predictOneInto classifies one encoded row using stack vote counts when
// they fit and the scratch tally otherwise, so the block kernel stays
// allocation-free for any class count.
func (e *FlatForestEngine) predictOneInto(xi []int32, s *flatScratch) int32 {
	if e.numClasses <= maxStackClasses {
		return e.PredictEncoded(xi)
	}
	votes := s.votes[:e.numClasses]
	for i := range votes {
		votes[i] = 0
	}
	e.voteEncoded(xi, votes)
	return rf.Argmax(votes)
}

// normBlock returns the effective row-block size for a requested value:
// zero or negative selects DefaultBlockRows. It is the single clamping
// point every batch entry (PredictBatch, NewBatcher, Batch, BatchFloat)
// funnels through.
func normBlock(block int) int {
	if block <= 0 {
		return DefaultBlockRows
	}
	return block
}

// normWorkers returns the effective worker count for a requested value:
// zero or negative selects runtime.GOMAXPROCS(0), and the result never
// exceeds jobs (the available parallel units), with a floor of 1. Like
// normBlock it is the single clamping point for all batch entries.
func normWorkers(workers, jobs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// checkRows panics when any row's length differs from the engine's
// feature width (the shared rowWidthError loop, surfaced as a panic).
// Every batch entry calls it in the caller's goroutine, where the panic
// is recoverable and carries the offending index — the same fail-fast
// pattern as the nil-engine guards. Without it a short row would index
// out of range inside a worker goroutine, which no caller can recover,
// killing the whole process.
func (e *FlatForestEngine) checkRows(entry string, rows [][]float32) {
	if err := rowWidthError(e.numFeatures, rows); err != nil {
		panic(fmt.Sprintf("treeexec: %s: %v", entry, err))
	}
}

// PredictBatch classifies all rows with the blocked kernel, spawning up
// to workers goroutines for this call that claim blocks of block rows
// from a shared cursor. Zero or negative workers selects GOMAXPROCS,
// zero or negative block selects DefaultBlockRows, and the worker count
// is capped at the number of blocks. The result is written into out
// when it has sufficient capacity; otherwise a new slice is allocated.
// For steady-state serving without per-call worker spawning, use a
// Batcher. Calling on a nil engine, or with a row whose length is not
// NumFeatures, panics immediately in the caller's goroutine (a clear
// error instead of an unrecoverable panic inside a spawned worker).
func (e *FlatForestEngine) PredictBatch(rows [][]float32, out []int32, workers, block int) []int32 {
	if isNilEngine(e) {
		panic("treeexec: PredictBatch on nil engine")
	}
	e.checkRows("PredictBatch", rows)
	if cap(out) < len(rows) {
		out = make([]int32, len(rows))
	}
	out = out[:len(rows)]
	if len(rows) == 0 {
		return out
	}
	block = normBlock(block)
	blocks := (len(rows) + block - 1) / block
	workers = normWorkers(workers, blocks)
	if workers == 1 {
		s := e.newScratch()
		for lo := 0; lo < len(rows); lo += block {
			hi := lo + block
			if hi > len(rows) {
				hi = len(rows)
			}
			e.predictBlock(rows[lo:hi], out[lo:hi], s)
		}
		return out
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.newScratch()
			for {
				bi := int(cursor.Add(1)) - 1
				if bi >= blocks {
					return
				}
				lo := bi * block
				hi := lo + block
				if hi > len(rows) {
					hi = len(rows)
				}
				e.predictBlock(rows[lo:hi], out[lo:hi], s)
			}
		}()
	}
	wg.Wait()
	return out
}

// batchJob is one block of work handed to a Batcher worker: the rows to
// classify, the output sub-slice to fill, and the issuing call's
// completion token to signal.
type batchJob struct {
	rows [][]float32
	out  []int32
	done *sync.WaitGroup
}

// Batcher drives a FlatForestEngine with a persistent worker pool: the
// goroutines and their scratch buffers (encode buffer + vote counts) are
// allocated once at construction, so repeated Predict calls with a
// caller-reused output slice allocate nothing. This is the serving
// configuration: keep one Batcher per engine for the process lifetime
// and feed it request batches.
//
// Predict is safe for concurrent use and independent calls interleave:
// each call carries its own completion token (drawn from a pool, so the
// steady state stays allocation-free), and the shared workers drain
// blocks from every in-flight call as they arrive instead of serializing
// whole batches behind a lock.
//
// Unless disabled at construction, the Batcher also maintains a
// reservoir sample of the rows it serves (pre-allocated storage, one
// atomic add per call plus a short mutex on every sampled row, so the
// zero-alloc steady state is preserved). The sample feeds Recalibrate —
// re-timing the engine's interleave width on measured traffic instead
// of synthetic rows — and SampleSnapshot, whose rows SaveCalibration
// can persist so the next deployment warm-starts from real traffic.
type Batcher struct {
	e       *FlatForestEngine
	block   int
	workers int
	sample  *rowReservoir // nil when sampling is disabled
	jobs    chan batchJob

	// drift holds the armed drift detector (EnableDriftDetection), or
	// nil. An atomic pointer so the Predict path reads it with one load
	// and arming mid-serve is race-free.
	drift atomic.Pointer[driftDetector]

	// tokens recycles per-call completion WaitGroups so concurrent
	// Predict calls track their own blocks without allocating. A
	// buffered channel rather than a sync.Pool: the pool is emptied on
	// every GC cycle, which would cost one allocation per post-GC call
	// and break the deterministic zero-alloc steady state.
	tokens chan *sync.WaitGroup
	// closeMu lets Predict calls proceed concurrently (read side) while
	// Close (write side) waits out in-flight calls before closing jobs.
	closeMu sync.RWMutex
	closed  bool
}

// DefaultReservoirRows is the traffic-reservoir capacity NewBatcher
// enables: enough rows for a stable interleave timing block (see
// minTimingRows) at a few hundred KB of storage for typical feature
// counts.
const DefaultReservoirRows = 256

// DefaultSampleStride is the decimation NewBatcher applies to reservoir
// sampling: one served row in every DefaultSampleStride is considered
// for admission, bounding the sampling cost (and its mutex) to a small
// fraction of the Predict path.
const DefaultSampleStride = 32

// NewBatcher starts a pool of workers goroutines processing blocks of
// block rows, with traffic-reservoir sampling enabled at the default
// capacity and stride. Zero or negative workers selects GOMAXPROCS,
// zero or negative block selects DefaultBlockRows (the same clamping as
// PredictBatch). Close releases the pool.
//
// A nil engine panics here, in the caller's goroutine, where it can be
// recovered — without the guard the constructor would hand back a
// working-looking Batcher whose workers die unrecoverably on their
// first scratch allocation.
func NewBatcher(e *FlatForestEngine, workers, block int) *Batcher {
	return NewBatcherSampled(e, workers, block, DefaultReservoirRows, DefaultSampleStride)
}

// NewBatcherSampled is NewBatcher with explicit reservoir parameters:
// capacity is the sample size held (negative disables sampling
// entirely; zero selects DefaultReservoirRows) and stride the
// decimation (one served row in every stride is considered; <= 0
// selects DefaultSampleStride). Reservoir storage is allocated here,
// once, so sampling keeps the steady state at zero allocations per op.
func NewBatcherSampled(e *FlatForestEngine, workers, block, capacity, stride int) *Batcher {
	if isNilEngine(e) {
		panic("treeexec: NewBatcher on nil engine")
	}
	workers = normWorkers(workers, int(^uint(0)>>1))
	b := &Batcher{
		e:       e,
		block:   normBlock(block),
		workers: workers,
		jobs:    make(chan batchJob, workers*4),
		tokens:  make(chan *sync.WaitGroup, 4*workers),
	}
	if capacity >= 0 {
		if capacity == 0 {
			capacity = DefaultReservoirRows
		}
		if stride <= 0 {
			stride = DefaultSampleStride
		}
		b.sample = newRowReservoir(capacity, e.numFeatures, uint64(stride))
	}
	for w := 0; w < workers; w++ {
		go func() {
			s := e.newScratch()
			for job := range b.jobs {
				e.predictBlock(job.rows, job.out, s)
				job.done.Done()
			}
		}()
	}
	return b
}

// Workers returns the pool size.
func (b *Batcher) Workers() int { return b.workers }

// Predict classifies all rows, writing into out when it has sufficient
// capacity (otherwise allocating a result slice). Concurrent calls are
// safe and interleave block-by-block over the shared worker pool;
// calling after Close panics — for every batch shape, including the
// empty one, so a misuse surfaces on the first call rather than the
// first non-empty one. A row whose length is not the engine's
// NumFeatures panics here, in the caller's goroutine, where it is
// recoverable — previously it killed the process from inside a worker.
func (b *Batcher) Predict(rows [][]float32, out []int32) []int32 {
	b.closeMu.RLock()
	defer b.closeMu.RUnlock()
	if b.closed {
		panic("treeexec: Batcher.Predict called after Close")
	}
	b.e.checkRows("Batcher.Predict", rows)
	if cap(out) < len(rows) {
		out = make([]int32, len(rows))
	}
	out = out[:len(rows)]
	if len(rows) == 0 {
		return out
	}
	b.sample.observe(rows)
	if d := b.drift.Load(); d != nil {
		d.offer(b.sample.seen.Load())
	}
	var done *sync.WaitGroup
	select {
	case done = <-b.tokens:
	default:
		done = new(sync.WaitGroup)
	}
	blocks := (len(rows) + b.block - 1) / b.block
	done.Add(blocks)
	for lo := 0; lo < len(rows); lo += b.block {
		hi := lo + b.block
		if hi > len(rows) {
			hi = len(rows)
		}
		b.jobs <- batchJob{rows: rows[lo:hi], out: out[lo:hi], done: done}
	}
	done.Wait()
	select {
	case b.tokens <- done:
	default: // more than 4*workers callers in flight; let it be collected
	}
	return out
}

// Close shuts the worker pool down after in-flight Predict calls drain.
// The drift-watcher goroutine (EnableDriftDetection) is stopped first
// and Close waits for it to exit, so no goroutine armed on this Batcher
// survives the call — the guarantee a ModelRegistry swap's drain path
// relies on.
func (b *Batcher) Close() {
	b.closeMu.Lock()
	defer b.closeMu.Unlock()
	if !b.closed {
		b.closed = true
		if d := b.drift.Load(); d != nil {
			// Stop the watcher before the pool: a drift-triggered
			// recalibration that races Close then completes against a
			// still-live engine instead of a dying pool.
			close(d.stop)
			<-d.done
		}
		close(b.jobs)
	}
}

// Engine returns the engine the pool serves — e.g. to persist its
// calibration alongside a SampleSnapshot.
func (b *Batcher) Engine() *FlatForestEngine { return b.e }

// SampleStats reports the traffic reservoir's fill level and the total
// rows observed on the Predict path ((0, 0) when sampling is disabled).
func (b *Batcher) SampleStats() (sampled int, seen uint64) { return b.sample.stats() }

// SampleSnapshot returns a copy of the reservoir's current rows — a
// uniform sample of served traffic — or nil when sampling is disabled
// or nothing has been served. Safe to call while Predict traffic flows;
// the snapshot allocates, so keep it off the per-request path.
func (b *Batcher) SampleSnapshot() [][]float32 { return b.sample.snapshot() }

// SeedSample pre-populates the traffic reservoir, typically with the
// Rows of a persisted CalibrationRecord, so a freshly started Batcher
// can Recalibrate on the previous deployment's measured traffic before
// its own sample fills. Rows of the wrong width are skipped; the number
// accepted is returned (0 when sampling is disabled).
func (b *Batcher) SeedSample(rows [][]float32) int { return b.sample.seedRows(rows) }

// Recalibrate re-times the engine's interleave width on the reservoir's
// sampled traffic (falling back to rows synthesized from the engine's
// split tables while the reservoir is empty or sampling is disabled)
// and installs the winner, returning it. The whole pass costs roughly
// budget wall time (<= 0 selects the CalibrateInterleaveRows default).
//
// It is safe while Predict traffic is in flight: candidate widths are
// timed through an explicit-width kernel without touching shared engine
// state, and the winner lands in one atomic store — workers racing the
// store finish their current block at the old width and pick up the new
// one on the next. Call it periodically (or after traffic shifts) to
// keep the width matched to the distribution actually served — or arm
// EnableDriftDetection to have the Batcher call it for you when the
// served distribution measurably moves.
//
// When a drift detector is armed, the sample this pass timed becomes
// its new baseline: drift is henceforth measured against the
// distribution the current mode was actually chosen on.
func (b *Batcher) Recalibrate(budget time.Duration) int {
	rows := b.sample.snapshot()
	w := b.e.CalibrateInterleaveRows(rows, budget)
	if d := b.drift.Load(); d != nil {
		d.rebase(rows)
	}
	return w
}
