package treeexec

import (
	"math"
	"sort"
	"sync/atomic"
	"time"

	"flint/internal/core"
	"flint/internal/ieee754"
	"flint/internal/rf"
)

// The FLInt arena's batch kernel walks W independent rows through each
// tree with W register-resident cursors, so the out-of-order core
// overlaps their node fetches (W-way memory-level parallelism). The
// payoff depends on the arena's cache footprint: small arenas are
// IPC-bound and prefer the plain per-row loop, large arenas are
// fetch-latency-bound and prefer wider interleave. The crossover points
// are host properties (load-queue depth, cache sizes), so they are
// gates measured at runtime rather than constants: see Calibrate and
// CalibrateInterleave. The compact arena reads no width: its one walk
// deals (tree, row) pairs to four tree lanes (flat_fused.go).

// interleaveWidths are the supported cursor counts, in ascending order.
var interleaveWidths = [4]int{1, 2, 4, 8}

// InterleaveGates holds the arena byte-size thresholds from which each
// wider interleaved walk wins on this host. A threshold of math.MaxInt
// disables that width. The zero value is not meaningful; use
// DefaultInterleaveGates or Calibrate. The json tags fix the
// persistence schema (CalibrationRecord, gate files, BENCH_batch.json)
// explicitly, consistent with the lowercase field names of the
// surrounding documents, so a future rename of the Go fields cannot
// silently break previously persisted records.
type InterleaveGates struct {
	// Min2/Min4/Min8 are the smallest arena footprints (bytes) at which
	// the 2-, 4- and 8-way walks outperform the next narrower one on the
	// 16-byte AoS arenas.
	Min2 int `json:"min2"`
	Min4 int `json:"min4"`
	Min8 int `json:"min8"`
}

// DefaultInterleaveGates are the static thresholds used until Calibrate
// measures the host: 2-way past the ~1MB L2 comfort zone (the PR 1
// pairMinArenaNodes point), 4-way past ~4MB, 8-way past ~16MB. They are
// conservative transcriptions of one x86 VM's measurements.
func DefaultInterleaveGates() InterleaveGates {
	return InterleaveGates{
		Min2: pairMinArenaNodes * 16, // the old node gate, in bytes
		Min4: 4 << 20,
		Min8: 16 << 20,
	}
}

// calibratedGates is the host-wide gate table installed by Calibrate;
// nil selects DefaultInterleaveGates. Engines read it once at
// construction.
var calibratedGates atomic.Pointer[InterleaveGates]

// CurrentInterleaveGates returns the gate table new engines will use:
// the last Calibrate result, or the static defaults.
func CurrentInterleaveGates() InterleaveGates {
	if g := calibratedGates.Load(); g != nil {
		return *g
	}
	return DefaultInterleaveGates()
}

// SetInterleaveGates installs a gate table for subsequently constructed
// engines (Calibrate calls this with measured values; tests and
// deployments with known-good numbers may call it directly).
func SetInterleaveGates(g InterleaveGates) {
	calibratedGates.Store(&g)
}

// widthFor selects the interleave width for an AoS arena footprint.
func (g InterleaveGates) widthFor(arenaBytes int) int {
	switch {
	case g.Min8 > 0 && arenaBytes >= g.Min8:
		return 8
	case g.Min4 > 0 && arenaBytes >= g.Min4:
		return 4
	case g.Min2 > 0 && arenaBytes >= g.Min2:
		return 2
	}
	return 1
}

// ArenaBytes returns the engine's node footprint: 16 bytes per node for
// the AoS arenas, 8 bytes per node (one nodes64 word) plus the pruned
// per-feature cut tables for the compact arena. This is the quantity the
// interleave gates are measured against, and for the compact arena it is
// also what the engine holds: its one walk reads every byte counted.
func (e *FlatForestEngine) ArenaBytes() int {
	if e.variant == FlatCompact {
		return 8*len(e.nodes64) + 4*len(e.cuts) + 4*len(e.cutLo) + 4*len(e.prunedOrig)
	}
	return 16 * len(e.arena)
}

// ArenaNodes returns the number of inner nodes stored in the arena.
func (e *FlatForestEngine) ArenaNodes() int {
	if e.variant == FlatCompact {
		return len(e.nodes64)
	}
	return len(e.arena)
}

// Interleave returns the batch kernel's current row-group width (1, 2,
// 4 or 8). A compact engine always reports 1: its tree lanes read no
// width.
func (e *FlatForestEngine) Interleave() int { return int(e.width.Load()) }

// Kernel names the walk a batch block runs: "fused" on the compact
// arena (the branch-free tree-lane walk of flat_fused.go), "branchy" on
// the AoS arenas (a compare and branch per node).
func (e *FlatForestEngine) Kernel() string {
	if e.variant == FlatCompact {
		return "fused"
	}
	return "branchy"
}

// SetInterleave forces the batch kernel's cursor count, bypassing the
// calibrated gates; the requested width is rounded down to the nearest
// supported one (1, 2, 4, 8) and returned. Only the FLInt arena
// interleaves rows; the Float32 and Precoded arenas store and ignore
// the width, and a compact engine, whose tree lanes read none, keeps
// width 1 and returns it. The width is installed atomically, so calling
// while Batcher workers are in flight is safe (in-flight blocks finish
// at the old width).
func (e *FlatForestEngine) SetInterleave(width int) int {
	if e.variant == FlatCompact {
		return 1
	}
	w := 1
	for _, c := range interleaveWidths {
		if width >= c {
			w = c
		}
	}
	e.width.Store(int32(w))
	// A forced width is an operator decision, not measurement; without
	// this the engine would keep reporting whatever evidence backed the
	// previous width.
	e.calibSource.Store(calibSourceManual)
	return w
}

// widthCandidates returns the widths one calibration pass times: every
// interleave width on the FLInt arena, and on the compact arena its one
// walk, at width 1.
func (e *FlatForestEngine) widthCandidates() []int {
	if e.variant == FlatCompact {
		return []int{1}
	}
	return interleaveWidths[:]
}

// Calibration sources for CalibrationSource: where the engine's current
// interleave width came from.
const (
	calibSourceDefault   int32 = iota // construction-time gate table
	calibSourceSynthetic              // rows synthesized from the split tables
	calibSourceRows                   // caller-supplied sampled rows
	calibSourcePersisted              // LoadCalibration record
	calibSourceManual                 // SetInterleave override
	calibSourceDegraded               // LoadCalibration record naming a retired mode
)

// CalibrationSource names where the engine's current interleave width
// came from: "default" (the construction-time gate table), "synthetic"
// (rows synthesized from the engine's own split tables), "rows"
// (caller-supplied sampled traffic, e.g. a Batcher reservoir),
// "persisted" (a LoadCalibration record), "persisted-degraded" (a
// compact record naming a retired kernel or width — the engine installed
// its one walk instead, so the mode carries no measurement evidence and
// deserves a recalibration pass) or "manual" (a SetInterleave override).
// Benchmark reports record it so a recorded width can be traced to its
// evidence — or to the lack of it.
func (e *FlatForestEngine) CalibrationSource() string {
	switch e.calibSource.Load() {
	case calibSourceSynthetic:
		return "synthetic"
	case calibSourceRows:
		return "rows"
	case calibSourcePersisted:
		return "persisted"
	case calibSourceManual:
		return "manual"
	case calibSourceDegraded:
		return "persisted-degraded"
	}
	return "default"
}

// CalibrateInterleave times this engine's own batch kernel at every
// supported interleave width and adopts the fastest, returning it. The
// timing rows are synthesized from the engine's own split tables (see
// CalibrateInterleaveRows for feeding sampled production rows instead),
// and the whole pass costs roughly budget wall time (budget <= 0
// selects 40ms). This is the on-demand, per-engine half of the
// calibration story; Calibrate measures host-wide gates for engines not
// yet built.
func (e *FlatForestEngine) CalibrateInterleave(budget time.Duration) int {
	return e.CalibrateInterleaveRows(nil, budget)
}

// CalibrateInterleaveRows is CalibrateInterleave over caller-supplied
// sample rows — typically rows drawn from production traffic, whose
// branch patterns (and therefore fetch-latency exposure) the synthetic
// rows can only approximate. Rows whose length is not NumFeatures are
// ignored; when none remain (or rows is nil) the engine falls back to
// rows synthesized from its own split tables, so every calibration
// input spans the arena's actual comparison range and trained walks
// branch both ways. The sample is resized to a bounded timing block
// (tiny samples replicated up to 64 rows, huge ones decimated evenly
// down to 256) so every width is timed on its real kernel and the pass
// stays within budget regardless of sample size. The compact arena has
// one candidate, its walk, which the pass times with the whole budget;
// the Float32 and Precoded arenas, which do not interleave, return the
// current width unchanged.
func (e *FlatForestEngine) CalibrateInterleaveRows(rows [][]float32, budget time.Duration) int {
	w, _ := e.CalibrateInterleaveRowsLadder(rows, budget)
	return w
}

// ModeTiming is one calibration-ladder candidate's measured throughput:
// the width and the walk it ran, and the rows/s it sustained on the
// timing block. Benchmark reports record the full ladder so losing
// widths' trajectories stay visible across hosts and PRs instead of
// disappearing behind the winner's gate.
type ModeTiming struct {
	Width      int     `json:"width"`
	Kernel     string  `json:"kernel"`
	RowsPerSec float64 `json:"rows_per_sec"`
	Winner     bool    `json:"winner,omitempty"`
}

// CalibrateInterleaveRowsLadder is CalibrateInterleaveRows returning,
// alongside the installed width, the per-candidate timing ladder the
// decision was made from — every width that completed a measured run,
// not just the winner. An empty ladder means the budget was too small
// to measure anything and the incumbent width was kept.
func (e *FlatForestEngine) CalibrateInterleaveRowsLadder(rows [][]float32, budget time.Duration) (int, []ModeTiming) {
	if e.variant != FlatFLInt && e.variant != FlatCompact {
		return e.Interleave(), nil
	}
	if budget <= 0 {
		budget = 40 * time.Millisecond
	}
	var sample [][]float32
	for _, r := range rows {
		if len(r) == e.numFeatures {
			sample = append(sample, r)
		}
	}
	source := calibSourceRows
	if len(sample) == 0 {
		sample = e.representativeRows(minTimingRows, 0x9E3779B9)
		source = calibSourceSynthetic
	}
	// A handful of valid rows (e.g. 1–7 from a barely-filled reservoir)
	// would time the 2/4/8-way kernels on their non-interleaved remainder
	// paths, making the selected width pure timer noise; replicate the
	// sample up to a minimum timing block so every width runs its real
	// kernel. Conversely a huge sample (a whole training set) would make
	// every warm-up pass walk all of it and blow the budget before a
	// single width is measured; decimate evenly down to a bounded block,
	// which preserves the sample's distribution.
	sample = capRows(replicateRows(sample, minTimingRows), maxTimingRows)
	width, measured, ladder := e.timeWidths(sample, budget)
	e.width.Store(int32(width))
	if measured {
		// A budget too small to time even one width returns the
		// incumbent; recording a source for it would claim evidence
		// that was never gathered.
		e.calibSource.Store(source)
	}
	return width, ladder
}

// minTimingRows is the smallest row block timeWidths may run: big enough
// that the widest (8-way) kernel spends its time in the interleaved walk
// rather than on leftover rows.
const minTimingRows = 64

// maxTimingRows bounds the timing block so one predictBlock pass stays
// well under any reasonable per-width budget slice.
const maxTimingRows = 256

// replicateRows cycles sample up to at least min rows (reusing the row
// slice headers — the timing loop only reads them); samples already that
// large are returned unchanged.
func replicateRows(sample [][]float32, min int) [][]float32 {
	if len(sample) == 0 || len(sample) >= min {
		return sample
	}
	out := make([][]float32, 0, min)
	for i := 0; len(out) < min; i++ {
		out = append(out, sample[i%len(sample)])
	}
	return out
}

// capRows decimates sample down to at most max rows by taking evenly
// spaced elements (reusing the row slice headers); samples within the
// bound are returned unchanged.
func capRows(sample [][]float32, max int) [][]float32 {
	if len(sample) <= max {
		return sample
	}
	out := make([][]float32, max)
	for i := range out {
		out[i] = sample[i*len(sample)/max]
	}
	return out
}

// timeWidths times the block kernel over rows at every width of
// widthCandidates, spending roughly budget wall time in total, and
// returns the fastest width (on an exact tie the first-measured
// candidate wins; the incumbent width is returned only when nothing was
// measured), whether any candidate actually completed a measured run
// (false means the result is just the incumbent and no timing evidence
// exists), and the full per-candidate ladder. It never touches the
// engine's live width field — every candidate runs through
// predictBlockWidth — so timing is safe while Batcher workers serve
// concurrently. The warm-up run of each candidate is counted against
// that candidate's budget slice, and once the whole budget is spent no
// further candidate even warms up, so the total wall time is bounded by
// budget plus at most one block pass. A candidate whose slice the
// warm-up alone exhausts does not compete: its only sample is
// cache-cold, and candidates time in ascending width order, so cold
// samples systematically favor the later (wider) walks — an undersized
// budget keeps the incumbent instead of installing a width chosen by
// cache state.
func (e *FlatForestEngine) timeWidths(rows [][]float32, budget time.Duration) (width int, measured bool, ladder []ModeTiming) {
	out := make([]int32, len(rows))
	s := e.newScratch()
	cands := e.widthCandidates()
	per := budget / time.Duration(len(cands))
	best, bestNs := e.Interleave(), math.MaxFloat64
	bestLadder := -1
	tstart := time.Now()
	for _, w := range cands {
		if time.Since(tstart) >= budget {
			break
		}
		start := time.Now()
		e.predictBlockWidth(rows, out, s, w) // warm up, counted
		warm := time.Since(start)
		var runs int
		mstart := time.Now()
		for time.Since(mstart) < per-warm {
			e.predictBlockWidth(rows, out, s, w)
			runs++
		}
		if runs == 0 {
			continue
		}
		measured = true
		ns := float64(time.Since(mstart).Nanoseconds()) / float64(runs)
		ladder = append(ladder, ModeTiming{
			Width:      w,
			Kernel:     e.Kernel(),
			RowsPerSec: float64(len(rows)) / (ns / 1e9),
		})
		if ns < bestNs {
			best, bestNs = w, ns
			bestLadder = len(ladder) - 1
		}
	}
	if bestLadder >= 0 {
		ladder[bestLadder].Winner = true
	}
	return best, measured, ladder
}

// Calibrate measures the FLInt arena's interleave crossover points on
// this host: for a ladder of synthetic arena sizes it times the widths
// 1/2/4/8 on rows spanning the arena's own split range, picks the
// fastest per size, derives monotone byte thresholds, installs them for
// subsequently constructed engines (SetInterleaveGates) and returns
// them. The whole pass costs roughly budget wall time (budget <= 0
// selects 200ms); call it once at process start, or whenever the
// deployment moves to different hardware.
func Calibrate(budget time.Duration) InterleaveGates {
	if budget <= 0 {
		budget = 200 * time.Millisecond
	}
	// Depth-9 synthetic trees stacked to the ladder's target footprints,
	// bracketing the L2/L3/DRAM regimes where the crossovers live.
	sizes := []int{256 << 10, 1 << 20, 4 << 20, 16 << 20}
	best := make([]int, len(sizes))
	for si, bytes := range sizes {
		e := syntheticFLIntEngine(bytes)
		best[si], _, _ = e.timeWidths(e.representativeRows(64, uint32(0xB5297A4D+si)), budget/time.Duration(len(sizes)))
	}
	g := InterleaveGates{}
	g.Min2, g.Min4, g.Min8 = gatesFromLadder(sizes, best)
	SetInterleaveGates(g)
	return g
}

// gatesFromLadder turns per-size fastest widths into monotone byte
// thresholds: widths are first forced non-decreasing over the size
// ladder (a narrow win at a larger size is measurement noise), then each
// threshold is the smallest size preferring at least that width, or
// math.MaxInt when no size did.
func gatesFromLadder(sizes []int, bestAt []int) (min2, min4, min8 int) {
	for i := 1; i < len(bestAt); i++ {
		if bestAt[i] < bestAt[i-1] {
			bestAt[i] = bestAt[i-1]
		}
	}
	min2, min4, min8 = math.MaxInt, math.MaxInt, math.MaxInt
	for i := len(sizes) - 1; i >= 0; i-- {
		if bestAt[i] >= 2 {
			min2 = sizes[i]
		}
		if bestAt[i] >= 4 {
			min4 = sizes[i]
		}
		if bestAt[i] >= 8 {
			min8 = sizes[i]
		}
	}
	return min2, min4, min8
}

// xorshift32 is the deterministic generator all calibration synthesis
// shares; seed must be non-zero.
func xorshift32(seed uint32) func() uint32 {
	rng := seed | 1
	return func() uint32 {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		return rng
	}
}

// syntheticSplit maps one generator draw to a split value uniform in
// (-1, 1), the range the synthetic engines and their calibration rows
// share.
func syntheticSplit(u uint32) float32 {
	f := float32(u>>8) * (1.0 / (1 << 24)) // [0, 1)
	if u&1 == 1 {
		f = -f
	}
	return f
}

// syntheticFLIntEngine builds a calibration-only FLInt arena of roughly
// the requested byte footprint out of random perfect trees, without
// training: topology only needs to be plausible for the walk's memory
// behavior, not meaningful, but split values are drawn from a bounded
// range so representativeRows can exercise both branch directions.
func syntheticFLIntEngine(arenaBytes int) *FlatForestEngine {
	const depth = 9
	const perTree = 1<<depth - 1 // inner nodes per perfect tree
	const numFeatures = 16
	trees := arenaBytes / (16 * perTree)
	if trees < 1 {
		trees = 1
	}
	e := &FlatForestEngine{
		arena:       make([]node, 0, trees*perTree),
		roots:       make([]int32, trees),
		variant:     FlatFLInt,
		numClasses:  4,
		numFeatures: numFeatures,
	}
	e.width.Store(1)
	next := xorshift32(0x2545F491)
	for t := 0; t < trees; t++ {
		base := int32(len(e.arena))
		e.roots[t] = base
		for i := 0; i < perTree; i++ {
			// Heap order: node i's children are 2i+1 and 2i+2; the last
			// level's children are leaves.
			var left, right int32
			if 2*i+1 < perTree {
				left, right = base+int32(2*i+1), base+int32(2*i+2)
			} else {
				left, right = ^int32(next()%4), ^int32(next()%4)
			}
			e.arena = append(e.arena, node{
				feature: int32(next() % numFeatures),
				key:     core.MustEncodeSplit32(syntheticSplit(next())).Key,
				left:    left,
				right:   right,
			})
		}
	}
	return e
}

// splitValues returns, per original feature, the engine's distinct
// split values decoded from the arena back into float space, sorted in
// FLInt total order. Features the forest never splits on get an empty
// slice.
func (e *FlatForestEngine) splitValues() [][]float32 {
	vals := make([][]float32, e.numFeatures)
	if e.variant == FlatCompact {
		for p, f := range e.prunedOrig {
			lo, hi := e.cutLo[p], e.cutLo[p+1]
			fv := make([]float32, 0, hi-lo)
			for _, k := range e.cuts[lo:hi] {
				fv = append(fv, math.Float32frombits(ieee754.FromTotalOrderKey32(k)))
			}
			vals[f] = fv // cut tables are already sorted and distinct
		}
		return vals
	}
	for i := range e.arena {
		n := &e.arena[i]
		var v float32
		if e.variant == FlatPrecoded {
			v = math.Float32frombits(ieee754.FromTotalOrderKey32(uint32(n.key)))
		} else {
			// FlatFLInt and FlatFloat32 both store SI(bits(split)).
			v = ieee754.FromSI32(n.key)
		}
		vals[n.feature] = append(vals[n.feature], v)
	}
	for f := range vals {
		fv := vals[f]
		sort.Slice(fv, func(i, j int) bool {
			return core.PrecodeSplit32(fv[i]) < core.PrecodeSplit32(fv[j])
		})
		w := 0
		for i, v := range fv {
			if i == 0 || core.PrecodeSplit32(v) != core.PrecodeSplit32(fv[w-1]) {
				fv[w] = v
				w++
			}
		}
		vals[f] = fv[:w]
	}
	return vals
}

// representativeRows synthesizes n calibration rows spanning the
// engine's own comparison range: each feature value is one of the
// feature's decoded split values — sometimes the split itself
// (exercising the <= tie), sometimes its immediate float neighbor on
// either side — so a trained arena's walks branch both ways and the
// timed traversals resemble production fetch patterns. (The PR 2
// synthesis cleared the exponent bits, so every row was a near-zero
// subnormal that compared below essentially every trained split and
// every cursor walked the same one-sided path.) Features the forest
// never splits on stay zero: no node reads them.
func (e *FlatForestEngine) representativeRows(n int, seed uint32) [][]float32 {
	vals := e.splitValues()
	next := xorshift32(seed)
	rows := make([][]float32, n)
	for i := range rows {
		r := make([]float32, e.numFeatures)
		for f := range r {
			fv := vals[f]
			if len(fv) == 0 {
				continue
			}
			c := fv[next()%uint32(len(fv))]
			switch next() % 3 {
			case 0:
				r[f] = c
			case 1:
				r[f] = math.Nextafter32(c, float32(math.Inf(-1)))
			default:
				r[f] = math.Nextafter32(c, float32(math.Inf(+1)))
			}
		}
		rows[i] = r
	}
	return rows
}

// voteLanes returns k zeroed vote-count views (k <= 8) for one
// interleaved group: stack-array backed when the class count fits the
// fast path, scratch-backed (and re-zeroed, only the k lanes actually
// used) otherwise. The returned array of slice headers lives in the
// caller's frame, so the block kernel stays allocation-free either way.
func voteLanes(stack *[8][maxStackClasses]int32, scratch []int32, nc, k int) [8][]int32 {
	var lanes [8][]int32
	if nc <= maxStackClasses {
		for i := 0; i < k; i++ {
			lanes[i] = stack[i][:nc]
		}
		return lanes
	}
	for i := 0; i < k; i++ {
		v := scratch[i*nc : (i+1)*nc]
		for j := range v {
			v[j] = 0
		}
		lanes[i] = v
	}
	return lanes
}

// voteLanes16 is voteLanes for the compact walk's chunks of up to 16
// rows (k <= 16), with the same stack-or-scratch split; the scratch
// vote buffer is sized for 16 rows at construction.
func voteLanes16(stack *[16][maxStackClasses]int32, scratch []int32, nc, k int) [16][]int32 {
	var lanes [16][]int32
	if nc <= maxStackClasses {
		for i := 0; i < k; i++ {
			lanes[i] = stack[i][:nc]
		}
		return lanes
	}
	for i := 0; i < k; i++ {
		v := scratch[i*nc : (i+1)*nc]
		for j := range v {
			v[j] = 0
		}
		lanes[i] = v
	}
	return lanes
}

// classify4FLInt walks one tree for four rows with register-resident
// cursors (4-way memory-level parallelism); rows whose chains outlive
// the others finish in the single-cursor loop.
func (e *FlatForestEngine) classify4FLInt(x0, x1, x2, x3 []int32, root int32) (int32, int32, int32, int32) {
	arena := e.arena
	i0, i1, i2, i3 := root, root, root, root
	for i0 >= 0 && i1 >= 0 && i2 >= 0 && i3 >= 0 {
		n0, n1, n2, n3 := &arena[i0], &arena[i1], &arena[i2], &arena[i3]
		v0, v1, v2, v3 := x0[n0.feature], x1[n1.feature], x2[n2.feature], x3[n3.feature]
		var le0, le1, le2, le3 bool
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
		if n2.key >= 0 {
			le2 = v2 <= n2.key
		} else {
			le2 = uint32(v2) >= uint32(n2.key)
		}
		if n3.key >= 0 {
			le3 = v3 <= n3.key
		} else {
			le3 = uint32(v3) >= uint32(n3.key)
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
		if le2 {
			i2 = n2.left
		} else {
			i2 = n2.right
		}
		if le3 {
			i3 = n3.left
		} else {
			i3 = n3.right
		}
	}
	return e.finishFLInt(x0, i0), e.finishFLInt(x1, i1), e.finishFLInt(x2, i2), e.finishFLInt(x3, i3)
}

// classify8FLInt walks one tree for eight rows at once; classes are
// written into out to keep the signature manageable.
func (e *FlatForestEngine) classify8FLInt(x *[8][]int32, root int32, out *[8]int32) {
	arena := e.arena
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	x4, x5, x6, x7 := x[4], x[5], x[6], x[7]
	i0, i1, i2, i3 := root, root, root, root
	i4, i5, i6, i7 := root, root, root, root
	for i0 >= 0 && i1 >= 0 && i2 >= 0 && i3 >= 0 && i4 >= 0 && i5 >= 0 && i6 >= 0 && i7 >= 0 {
		n0, n1, n2, n3 := &arena[i0], &arena[i1], &arena[i2], &arena[i3]
		n4, n5, n6, n7 := &arena[i4], &arena[i5], &arena[i6], &arena[i7]
		v0, v1, v2, v3 := x0[n0.feature], x1[n1.feature], x2[n2.feature], x3[n3.feature]
		v4, v5, v6, v7 := x4[n4.feature], x5[n5.feature], x6[n6.feature], x7[n7.feature]
		var le0, le1, le2, le3, le4, le5, le6, le7 bool
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
		if n2.key >= 0 {
			le2 = v2 <= n2.key
		} else {
			le2 = uint32(v2) >= uint32(n2.key)
		}
		if n3.key >= 0 {
			le3 = v3 <= n3.key
		} else {
			le3 = uint32(v3) >= uint32(n3.key)
		}
		if n4.key >= 0 {
			le4 = v4 <= n4.key
		} else {
			le4 = uint32(v4) >= uint32(n4.key)
		}
		if n5.key >= 0 {
			le5 = v5 <= n5.key
		} else {
			le5 = uint32(v5) >= uint32(n5.key)
		}
		if n6.key >= 0 {
			le6 = v6 <= n6.key
		} else {
			le6 = uint32(v6) >= uint32(n6.key)
		}
		if n7.key >= 0 {
			le7 = v7 <= n7.key
		} else {
			le7 = uint32(v7) >= uint32(n7.key)
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
		if le2 {
			i2 = n2.left
		} else {
			i2 = n2.right
		}
		if le3 {
			i3 = n3.left
		} else {
			i3 = n3.right
		}
		if le4 {
			i4 = n4.left
		} else {
			i4 = n4.right
		}
		if le5 {
			i5 = n5.left
		} else {
			i5 = n5.right
		}
		if le6 {
			i6 = n6.left
		} else {
			i6 = n6.right
		}
		if le7 {
			i7 = n7.left
		} else {
			i7 = n7.right
		}
	}
	out[0] = e.finishFLInt(x0, i0)
	out[1] = e.finishFLInt(x1, i1)
	out[2] = e.finishFLInt(x2, i2)
	out[3] = e.finishFLInt(x3, i3)
	out[4] = e.finishFLInt(x4, i4)
	out[5] = e.finishFLInt(x5, i5)
	out[6] = e.finishFLInt(x6, i6)
	out[7] = e.finishFLInt(x7, i7)
}

// finishFLInt completes one FLInt chain after an interleaved loop exits.
func (e *FlatForestEngine) finishFLInt(xi []int32, i int32) int32 {
	if i < 0 {
		return ^i
	}
	return e.classifyFLInt(xi, i)
}

// predictBlockFLIntWide classifies one block with the interleaved FLInt
// kernel at the given width, cascading 8 -> 4 -> 2 over the remainder so
// every row but at most one runs interleaved.
func (e *FlatForestEngine) predictBlockFLIntWide(rows [][]float32, out []int32, s *flatScratch, width int) {
	nf := e.numFeatures
	nc := e.numClasses
	b := 0
	if width >= 8 {
		var x8 [8][]int32
		var cls [8]int32
		for ; b+8 <= len(rows); b += 8 {
			for i := 0; i < 8; i++ {
				x8[i] = core.EncodeFeatures32(s.enc[i*nf:i*nf:(i+1)*nf], rows[b+i])
			}
			var stack [8][maxStackClasses]int32
			lanes := voteLanes(&stack, s.votes, nc, 8)
			for _, root := range e.roots {
				e.classify8FLInt(&x8, root, &cls)
				lanes[0][cls[0]]++
				lanes[1][cls[1]]++
				lanes[2][cls[2]]++
				lanes[3][cls[3]]++
				lanes[4][cls[4]]++
				lanes[5][cls[5]]++
				lanes[6][cls[6]]++
				lanes[7][cls[7]]++
			}
			for i := 0; i < 8; i++ {
				out[b+i] = rf.Argmax(lanes[i])
			}
		}
	}
	if width >= 4 {
		for ; b+4 <= len(rows); b += 4 {
			e0 := core.EncodeFeatures32(s.enc[0:0:nf], rows[b])
			e1 := core.EncodeFeatures32(s.enc[nf:nf:2*nf], rows[b+1])
			e2 := core.EncodeFeatures32(s.enc[2*nf:2*nf:3*nf], rows[b+2])
			e3 := core.EncodeFeatures32(s.enc[3*nf:3*nf:4*nf], rows[b+3])
			var stack [8][maxStackClasses]int32
			lanes := voteLanes(&stack, s.votes, nc, 4)
			for _, root := range e.roots {
				c0, c1, c2, c3 := e.classify4FLInt(e0, e1, e2, e3, root)
				lanes[0][c0]++
				lanes[1][c1]++
				lanes[2][c2]++
				lanes[3][c3]++
			}
			out[b] = rf.Argmax(lanes[0])
			out[b+1] = rf.Argmax(lanes[1])
			out[b+2] = rf.Argmax(lanes[2])
			out[b+3] = rf.Argmax(lanes[3])
		}
	}
	for ; b+2 <= len(rows); b += 2 {
		e0 := core.EncodeFeatures32(s.enc[0:0:nf], rows[b])
		e1 := core.EncodeFeatures32(s.enc[nf:nf:2*nf], rows[b+1])
		var stack [8][maxStackClasses]int32
		lanes := voteLanes(&stack, s.votes, nc, 2)
		for _, root := range e.roots {
			c0, c1 := e.classify2FLInt(e0, e1, root)
			lanes[0][c0]++
			lanes[1][c1]++
		}
		out[b] = rf.Argmax(lanes[0])
		out[b+1] = rf.Argmax(lanes[1])
	}
	if b < len(rows) {
		out[b] = e.predictOneInto(core.EncodeFeatures32(s.enc[0:0:nf], rows[b]), s)
	}
}
