package treeexec

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"flint/internal/core"
	"flint/internal/ieee754"
	"flint/internal/rf"
)

// The batch kernel walks W independent rows through each tree with W
// register-resident cursors, so the out-of-order core overlaps their
// node fetches (W-way memory-level parallelism). The payoff depends on
// the arena's cache footprint: small arenas are IPC-bound and prefer the
// plain per-row loop, large arenas are fetch-latency-bound and prefer
// wider interleave. The crossover points are host properties (load-queue
// depth, cache sizes) *and* arena-layout properties (the compact SoA
// arena packs twice the nodes per cache line but pays a per-group
// quantization pass, so its crossovers sit elsewhere than the 16-byte
// AoS arena's), so they are gates measured at runtime rather than
// constants — one gate set per interleaving arena layout: see Calibrate
// and CalibrateInterleave.

// interleaveWidths are the supported scalar cursor counts, in ascending
// order. The SIMD kernel additionally supports width 16 on the compact
// arena — two 8-lane vector groups walked software-pipelined (see
// fusedWalk16 and simdWidth16).
var interleaveWidths = [4]int{1, 2, 4, 8}

// simdWidth16 is the dual-group SIMD width: 16 rows per group as two
// 8-lane halves whose independent gather chains the walk interleaves,
// so the out-of-order core overlaps four node gathers per level instead
// of two. Only the SIMD kernel walks it; the branchy kernel treats a
// width of 16 as 8 (its widest row group is the 8-way walk), and the
// fused and SIMD-quant kernels read no width at all.
const simdWidth16 = 16

// Kernel selects how the compact batch kernel resolves each node's
// child: the branchy kernel executes one data-dependent branch per
// cursor per level (three slice loads per node), the fused kernel loads
// the node as a single pre-packed uint64 word and computes the child
// with shifts — a data dependency instead of a control dependency, so a
// deep walk mispredicts once per chain (the loop exit) rather than once
// per level — the SIMD-quant kernel vectorizes only the quantizer (each
// feature's cut segment is shared across the group, so the 8-lane
// binary search needs no gathers on its critical path) and walks
// scalar-fused, and the SIMD kernel executes the full fused step for
// eight lanes per instruction in vector registers (AVX2 gathers; see
// flat_fused_amd64.s and the portable forms in flat_simd.go). All
// kernels produce bit-identical predictions; which one is faster is a
// host property (mispredict penalty vs. dependent-chain latency vs.
// gather throughput) that calibration measures alongside the interleave
// width. The branchy and SIMD kernels walk a block in row groups of the
// installed width. The fused and SIMD-quant kernels read no width: they
// deal a block's (tree, row) pairs to four tree lanes, 16 rows at a
// time, and differ only in the quantizer. A lone row walks the fused
// step four trees at a time under every kernel (flat_fused.go). Only
// the compact SoA arena has fused, SIMD-quant and SIMD forms; other
// variants always run branchy. The constants are ordered by how
// aggressively each kernel converts control flow into data flow —
// kernelGatesFromLadder relies on that order when forcing a measured
// ladder monotone.
type Kernel int32

const (
	// KernelBranchy is the per-level compare-and-branch walk over the
	// parallel keys16/feats16/kids slices.
	KernelBranchy Kernel = iota
	// KernelFused is the branch-free walk over the packed nodes64 words
	// (compact arenas only), with branchless binary-search quantization.
	KernelFused
	// KernelSIMDQuant is the hybrid kernel: 8-lane vector quantization
	// (the one stage of the compact pipeline with no gather on its
	// critical path — the cut segment is shared, so all lanes halve in
	// lockstep) feeding the scalar fused walk. It captures the vector
	// win where the SIMD walk stays gather-latency-bound (compact arenas
	// only).
	KernelSIMDQuant
	// KernelSIMD is the full vector form of the fused walk: one AVX2
	// gather step advances all cursors of an interleaved group at once
	// (compact arenas only), 8 lanes per group — or two pipelined 8-lane
	// groups at width 16, with finished lanes compacted out and refilled
	// from the pending block. Calibration offers it only on hosts whose
	// ISA runs it natively (SIMDAvailable); everywhere else a portable
	// lane-parallel fallback keeps it runnable — and therefore
	// testable — but never competitive.
	KernelSIMD
	// KernelAuto is not a kernel an engine can run: passing it to
	// SetKernel clears a previous pin, so subsequent calibration passes
	// compete every kernel again. The installed kernel is unchanged.
	KernelAuto Kernel = -1
)

// String names the kernel in benchmark and persistence output.
func (k Kernel) String() string {
	switch k {
	case KernelFused:
		return "fused"
	case KernelSIMDQuant:
		return "simd-quant"
	case KernelSIMD:
		return "simd"
	}
	return "branchy"
}

// ParseKernel maps a kernel name from a flag or persisted record back
// to the constant; the empty string is the legacy (pre-kernel) spelling
// of branchy. Kernel values persist and parse by name, never by number,
// so the constants above can be reordered (as the simd-quant insertion
// did) without invalidating saved records.
func ParseKernel(name string) (Kernel, error) {
	switch name {
	case "", "branchy":
		return KernelBranchy, nil
	case "fused":
		return KernelFused, nil
	case "simd-quant":
		return KernelSIMDQuant, nil
	case "simd":
		return KernelSIMD, nil
	}
	return KernelBranchy, fmt.Errorf("treeexec: unknown kernel %q (branchy|fused|simd-quant|simd)", name)
}

// The engine's width, kernel and (for the width-16 SIMD walk) the lane
// compaction threshold travel together in one atomic int32 ("mode") so
// recalibration installs the tuple as a single unit: a Batcher worker
// racing the store sees either the old tuple or the new one, never a
// half-installed mix of a width measured under one kernel with the
// other kernel.

// packMode packs an interleave width (low byte) and a kernel (next
// byte) into one mode word, with the default compaction policy.
func packMode(width int, k Kernel) int32 { return packModeRefill(width, k, 0) }

// packModeRefill additionally encodes the width-16 SIMD walk's lane
// compaction threshold (third byte): the minimum live-lane count below
// which the walk returns to compact finished lanes out and refill them
// from the pending block. Zero selects the kernel default
// (defaultSIMDRefill); 1 disables early compaction (the walk drains to
// its deepest lane, refilling only fully finished groups). Meaningless
// for other kernels and widths, which ignore it.
func packModeRefill(width int, k Kernel, refill int32) int32 {
	return int32(width) | int32(k)<<8 | refill<<16
}

// modeWidth extracts the interleave width from a mode word.
func modeWidth(m int32) int { return int(m & 0xff) }

// modeKernel extracts the kernel from a mode word.
func modeKernel(m int32) Kernel { return Kernel((m >> 8) & 0xff) }

// modeRefill extracts the width-16 lane compaction threshold from a
// mode word (0 = kernel default).
func modeRefill(m int32) int32 { return (m >> 16) & 0xff }

// defaultSIMDRefill is the uncalibrated lane compaction threshold for
// the width-16 SIMD walk: return to refill once fewer than 6 of the 16
// lanes are still walking. High enough that a skewed-depth group stops
// paying full vector steps for a handful of stragglers, low enough that
// well-balanced groups rarely pay the refill round trip; calibration
// times compaction on (this value) against off (threshold 1) and
// installs the measured winner.
const defaultSIMDRefill = 6

// InterleaveGates holds the arena byte-size thresholds from which each
// wider interleaved walk wins on this host, one set per interleaving
// arena layout. A threshold of math.MaxInt disables that width. The zero
// value is not meaningful; use DefaultInterleaveGates or Calibrate.
// The json tags fix the persistence schema (CalibrationRecord, gate
// files, BENCH_batch.json) explicitly, consistent with the lowercase
// field names of the surrounding documents, so a future rename of the
// Go fields cannot silently break previously persisted records.
type InterleaveGates struct {
	// Min2/Min4/Min8 are the smallest arena footprints (bytes) at which
	// the 2-, 4- and 8-way walks outperform the next narrower one on the
	// 16-byte AoS arenas (FlatFLInt).
	Min2 int `json:"min2"`
	Min4 int `json:"min4"`
	Min8 int `json:"min8"`
	// CompactMin2/CompactMin4/CompactMin8 are the same crossovers for
	// the 8-byte compact SoA arena, whose quantization overhead and
	// denser node packing shift them relative to the AoS set. When all
	// three are zero (a gate table from before the compact set existed),
	// widthFor falls back to the AoS thresholds.
	CompactMin2 int `json:"compact_min2"`
	CompactMin4 int `json:"compact_min4"`
	CompactMin8 int `json:"compact_min8"`
	// CompactFusedMin is the smallest compact arena footprint (bytes) at
	// which the fused branch-free kernel outperforms the branchy one on
	// this host. Zero — the value in every gate table from before the
	// fused kernel existed — selects the branchy kernel everywhere;
	// math.MaxInt records a measurement where fused never won. The
	// uncalibrated default is 1: fused on every compact arena. Like the
	// width gates it only seeds engines at construction: per-engine
	// calibration times every kernel on the actual arena.
	CompactFusedMin int `json:"compact_fused_min,omitempty"`
	// CompactSIMDMin is the same crossover for the 8-lane SIMD kernel:
	// the smallest compact arena footprint from which it beats both
	// scalar kernels on this host. Zero (every pre-SIMD table) and
	// math.MaxInt (measured, never won) both keep the scalar choice. The
	// threshold only applies on hosts whose ISA runs the kernel natively
	// (SIMDAvailable) — a gate table measured on an AVX2 box and carried
	// to a host without it must not install the emulated fallback.
	CompactSIMDMin int `json:"compact_simd_min,omitempty"`
	// CompactSIMDQuantMin is the crossover for the hybrid SIMD-quant
	// kernel (vector quantization, scalar fused walk): the smallest
	// compact arena footprint from which it beats both scalar kernels.
	// Same zero/MaxInt and ISA-gating semantics as CompactSIMDMin; when
	// both SIMD thresholds pass, the full SIMD kernel wins (it is the
	// more aggressive conversion and the ladder forces the order).
	CompactSIMDQuantMin int `json:"compact_simdquant_min,omitempty"`
	// CompactSIMD16Min is the footprint from which the SIMD kernel's
	// dual-group width-16 walk beats its single-group width-8 form —
	// meaningful only where CompactSIMDMin already selected the SIMD
	// kernel. Same zero/MaxInt semantics.
	CompactSIMD16Min int `json:"compact_simd16_min,omitempty"`
}

// DefaultInterleaveGates are the static thresholds used until Calibrate
// measures the host: 2-way past the ~1MB L2 comfort zone (the PR 1
// pairMinArenaNodes point), 4-way past ~4MB, 8-way past ~16MB. They are
// conservative transcriptions of one x86 VM's measurements; the compact
// set reuses them until a measurement says otherwise (on the dev host
// the compact arena's crossovers sat near the same byte footprints —
// half the nodes per byte, but each fetch serves two 8-byte nodes per
// line). Compact arenas default to the fused kernel, which an engine
// keeps whenever its calibration pass times nothing (flintperf large's
// 128 unpruned trees under the 40ms budget): in a one-thread probe of
// 256-row batches on a 2-vCPU Xeon guest, fused ran flintperf small's
// forest 1.5-1.7x faster than branchy at widths 2, 4 and 8, and large's
// within noise of it.
func DefaultInterleaveGates() InterleaveGates {
	return InterleaveGates{
		Min2: pairMinArenaNodes * 16, // the old node gate, in bytes
		Min4: 4 << 20,
		Min8: 16 << 20,

		CompactMin2:     pairMinArenaNodes * 16,
		CompactMin4:     4 << 20,
		CompactMin8:     16 << 20,
		CompactFusedMin: 1,
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

// widthFor selects the interleave width for an arena footprint,
// dispatching on the arena layout: the compact SoA arena reads its own
// gate set (unless that set is entirely zero — a legacy table — in
// which case the AoS thresholds apply), every other variant reads the
// AoS set.
func (g InterleaveGates) widthFor(v FlatVariant, arenaBytes int) int {
	m2, m4, m8 := g.Min2, g.Min4, g.Min8
	if v == FlatCompact && (g.CompactMin2 != 0 || g.CompactMin4 != 0 || g.CompactMin8 != 0) {
		m2, m4, m8 = g.CompactMin2, g.CompactMin4, g.CompactMin8
	}
	switch {
	case m8 > 0 && arenaBytes >= m8:
		return 8
	case m4 > 0 && arenaBytes >= m4:
		return 4
	case m2 > 0 && arenaBytes >= m2:
		return 2
	}
	return 1
}

// kernelFor selects the construction-time kernel for an arena
// footprint: SIMD once a compact arena crosses the measured
// CompactSIMDMin threshold on a host whose ISA runs it, the hybrid
// SIMD-quant kernel past CompactSIMDQuantMin (same ISA gate), fused
// past CompactFusedMin, branchy everywhere else (including every
// non-compact variant, which has none of the other forms, and every
// legacy gate table, whose zero thresholds disable them all).
func (g InterleaveGates) kernelFor(v FlatVariant, arenaBytes int) Kernel {
	if v != FlatCompact {
		return KernelBranchy
	}
	if simdKernelAvailable() {
		if g.CompactSIMDMin > 0 && arenaBytes >= g.CompactSIMDMin {
			return KernelSIMD
		}
		if g.CompactSIMDQuantMin > 0 && arenaBytes >= g.CompactSIMDQuantMin {
			return KernelSIMDQuant
		}
	}
	if g.CompactFusedMin > 0 && arenaBytes >= g.CompactFusedMin {
		return KernelFused
	}
	return KernelBranchy
}

// modeFor resolves the full construction-time (width, kernel) pair:
// widthFor's scalar ladder, widened to the dual-group 16 when the SIMD
// kernel is selected and the footprint crosses CompactSIMD16Min, and
// width 1 under the fused and SIMD-quant kernels, whose tree lanes read
// no width. The compaction threshold is left at the kernel default — it
// is installed explicitly only by a per-engine calibration pass that
// measured it.
func (g InterleaveGates) modeFor(v FlatVariant, arenaBytes int) (int, Kernel) {
	w := g.widthFor(v, arenaBytes)
	k := g.kernelFor(v, arenaBytes)
	switch {
	case k == KernelFused || k == KernelSIMDQuant:
		w = 1
	case k == KernelSIMD && g.CompactSIMD16Min > 0 && arenaBytes >= g.CompactSIMD16Min:
		w = simdWidth16
	}
	return w, k
}

// ArenaBytes returns the engine's walked node footprint: 16 bytes per
// node for the AoS arenas, 8 bytes per node plus the pruned per-feature
// cut tables for the compact SoA arena. This is the quantity the
// interleave gates are measured against — the bytes one walk touches —
// not the engine's resident size: a compact engine also holds the fused
// mirror (nodes64, the same 8 bytes per node re-packed into one word; a
// walk reads one encoding or the other), so it keeps ~16 bytes per node
// resident. flintperf's large model reports 7.0 MB here and holds
// ~11.7 MB.
func (e *FlatForestEngine) ArenaBytes() int {
	if e.variant == FlatCompact {
		return 2*len(e.keys16) + 2*len(e.feats16) + 4*len(e.kids) +
			4*len(e.cuts) + 4*len(e.cutLo) + 4*len(e.prunedOrig)
	}
	return 16 * len(e.arena)
}

// ArenaNodes returns the number of inner nodes stored in the arena.
func (e *FlatForestEngine) ArenaNodes() int {
	if e.variant == FlatCompact {
		return len(e.kids)
	}
	return len(e.arena)
}

// Interleave returns the batch kernel's current row-group width (1, 2,
// 4, 8, or 16 under the SIMD kernel). Calibration and construction
// install 1 under the fused and SIMD-quant kernels, which read no
// width.
func (e *FlatForestEngine) Interleave() int { return modeWidth(e.mode.Load()) }

// Kernel returns the compact batch kernel's current child-select
// strategy (always KernelBranchy for non-compact variants).
func (e *FlatForestEngine) Kernel() Kernel { return modeKernel(e.mode.Load()) }

// SetInterleave forces the batch kernel's cursor count, bypassing the
// calibrated gates; the requested width is rounded down to the nearest
// supported one (1, 2, 4, 8 — and 16 on the compact arena, where the
// SIMD kernel walks two pipelined 8-lane groups; the branchy kernel runs
// a forced 16 as its 8-way walk) and returned. Only the FLInt arena and
// the compact branchy and SIMD kernels interleave rows; the fused and
// SIMD-quant kernels and other variants ignore the setting. The
// width is installed atomically and the current kernel and compaction
// threshold are preserved, so calling while Batcher workers are in
// flight is safe (in-flight blocks finish at the old width).
func (e *FlatForestEngine) SetInterleave(width int) int {
	w := 1
	for _, c := range interleaveWidths {
		if width >= c {
			w = c
		}
	}
	if e.variant == FlatCompact && width >= simdWidth16 {
		w = simdWidth16
	}
	for {
		old := e.mode.Load()
		if e.mode.CompareAndSwap(old, packModeRefill(w, modeKernel(old), modeRefill(old))) {
			break
		}
	}
	// A forced width is an operator decision, not measurement; without
	// this the engine would keep reporting whatever evidence backed the
	// previous width.
	e.calibSource.Store(calibSourceManual)
	return w
}

// SetKernel forces the compact walk kernel and pins it: subsequent
// calibration passes (CalibrateInterleave and friends) time interleave
// widths under the pinned kernel only, instead of competing all — the
// contract an A/B measurement needs. The current width is preserved and
// the pair is installed atomically. KernelAuto clears the pin without
// touching the installed kernel, handing the choice back to the next
// calibration pass. Non-compact variants have only the branchy kernel;
// for them the call is a no-op returning KernelBranchy. Pinning
// KernelSIMD works on every host — on ISAs without the native kernel it
// runs the portable lane-parallel fallback (the A/B and differential-
// test contract) — but calibration never volunteers it there.
func (e *FlatForestEngine) SetKernel(k Kernel) Kernel {
	if e.variant != FlatCompact {
		return KernelBranchy
	}
	if k == KernelAuto {
		e.kernelPin.Store(0)
		return e.Kernel()
	}
	if k != KernelFused && k != KernelSIMDQuant && k != KernelSIMD {
		k = KernelBranchy
	}
	e.kernelPin.Store(int32(k) + 1)
	for {
		old := e.mode.Load()
		// The compaction threshold is a SIMD-walk property; a forced
		// kernel change resets it to the kernel default rather than
		// carrying a value measured under another kernel.
		if e.mode.CompareAndSwap(old, packMode(modeWidth(old), k)) {
			break
		}
	}
	e.calibSource.Store(calibSourceManual)
	return k
}

// candidateKernels returns the kernels calibration competes for this
// engine: the pinned one after SetKernel, every runnable kernel for an
// unpinned compact arena (the two SIMD kernels join the slate only
// where the ISA runs them natively — timing the emulated fallback would
// just burn budget), branchy alone for everything else.
func (e *FlatForestEngine) candidateKernels() []Kernel {
	if pin := e.kernelPin.Load(); pin != 0 {
		return []Kernel{Kernel(pin - 1)}
	}
	if e.variant == FlatCompact {
		if simdKernelAvailable() {
			return []Kernel{KernelBranchy, KernelFused, KernelSIMDQuant, KernelSIMD}
		}
		return []Kernel{KernelBranchy, KernelFused}
	}
	return []Kernel{KernelBranchy}
}

// modeCandidates expands candidateKernels into the full candidate list
// one calibration pass times: every scalar width for the branchy and
// SIMD kernels, the fused and SIMD-quant kernels once each at width 1
// (they walk tree lanes and never read the width, so timing them at
// other widths would time the same code again), and — for the SIMD
// kernel — the dual-group width 16 twice, with lane compaction off
// (threshold 1: a group drains to its deepest lane before refilling)
// and on (the default threshold: finished lanes are compacted out and
// refilled mid-walk). The compaction threshold is a measured dimension
// like any other, so hosts where the refill round trip costs more than
// the straggler steps it saves never install it.
func (e *FlatForestEngine) modeCandidates() []int32 {
	var cands []int32
	for _, k := range e.candidateKernels() {
		if k == KernelFused || k == KernelSIMDQuant {
			cands = append(cands, packMode(1, k))
			continue
		}
		for _, w := range interleaveWidths {
			cands = append(cands, packMode(w, k))
		}
		if k == KernelSIMD && e.variant == FlatCompact {
			cands = append(cands,
				packModeRefill(simdWidth16, KernelSIMD, 1),
				packModeRefill(simdWidth16, KernelSIMD, defaultSIMDRefill))
		}
	}
	return cands
}

// Calibration sources for CalibrationSource: where the engine's current
// interleave width came from.
const (
	calibSourceDefault   int32 = iota // construction-time gate table
	calibSourceSynthetic              // rows synthesized from the split tables
	calibSourceRows                   // caller-supplied sampled rows
	calibSourcePersisted              // LoadCalibration record
	calibSourceManual                 // SetInterleave override
	calibSourceDegraded               // LoadCalibration record whose kernel this host cannot run
)

// CalibrationSource names where the engine's current interleave width
// came from: "default" (the construction-time gate table), "synthetic"
// (rows synthesized from the engine's own split tables), "rows"
// (caller-supplied sampled traffic, e.g. a Batcher reservoir),
// "persisted" (a LoadCalibration record), "persisted-degraded" (a
// record whose kernel this host's ISA cannot run natively — the width
// was installed but the kernel was downgraded, so the mode has lost its
// measurement evidence and deserves a recalibration pass) or "manual"
// (a SetInterleave override). Benchmark reports record it so a recorded
// width can be traced to its evidence — or to the lack of it.
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
// stays within budget regardless of sample size. Only the FLInt and
// compact kernels interleave; other variants return the current width
// unchanged.
func (e *FlatForestEngine) CalibrateInterleaveRows(rows [][]float32, budget time.Duration) int {
	w, _ := e.CalibrateInterleaveRowsLadder(rows, budget)
	return w
}

// ModeTiming is one calibration-ladder candidate's measured throughput:
// the (width, kernel) pair — plus, for the width-16 SIMD walk, the lane
// compaction threshold — and the rows/s it sustained on the timing
// block. Benchmark reports record the full ladder so losing kernels'
// trajectories stay visible across hosts and PRs instead of
// disappearing behind the winner's gate.
type ModeTiming struct {
	Width      int     `json:"width"`
	Kernel     string  `json:"kernel"`
	Refill     int     `json:"refill,omitempty"`
	RowsPerSec float64 `json:"rows_per_sec"`
	Winner     bool    `json:"winner,omitempty"`
}

// CalibrateInterleaveRowsLadder is CalibrateInterleaveRows returning,
// alongside the installed width, the per-candidate timing ladder the
// decision was made from — every (width, kernel) pair that completed a
// measured run, not just the winner. An empty ladder means the budget
// was too small to measure anything and the incumbent mode was kept.
func (e *FlatForestEngine) CalibrateInterleaveRowsLadder(rows [][]float32, budget time.Duration) (int, []ModeTiming) {
	if e.variant != FlatFLInt && e.variant != FlatCompact {
		return modeWidth(e.mode.Load()), nil
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
	mode, measured, ladder := e.timeModes(sample, budget)
	// One store installs the (width, kernel, compaction) tuple as a
	// unit: an in-flight Batcher worker never observes a width measured
	// under one kernel paired with the other.
	e.mode.Store(mode)
	if measured {
		// A budget too small to time even one width returns the
		// incumbent; recording a source for it would claim evidence
		// that was never gathered.
		e.calibSource.Store(source)
	}
	return modeWidth(mode), ladder
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

// timeModes times the block kernel over rows at every candidate mode of
// modeCandidates — each row-group width of the branchy and SIMD
// kernels, fused and SIMD-quant once each, plus the width-16 SIMD
// walk's compaction-on/off pair — spending roughly budget
// wall time in total, and returns the fastest mode word (on an exact
// tie the first-measured candidate wins; the incumbent mode is returned
// only when nothing was measured), whether any candidate actually
// completed a measured run (false means the result is just the
// incumbent and no timing evidence exists), and the full per-candidate
// ladder. It never touches the engine's live mode field — every
// candidate runs through predictBlockMode — so timing is safe while
// Batcher workers serve concurrently. The warm-up run of each candidate
// is counted against that candidate's budget slice (it used to be
// untimed, so the real cost of a calibration pass could far exceed the
// caller's budget on arenas where a single block walk is expensive),
// and once the whole budget is spent no further candidate even warms
// up, so the total wall time is bounded by budget plus at most one
// block pass. A candidate whose slice the warm-up alone exhausts does
// not compete: its only sample is cache-cold, and candidates time in
// ascending width order, so cold samples systematically favor the later
// (wider) walks — an undersized budget keeps the incumbent instead of
// installing a mode chosen by cache state.
func (e *FlatForestEngine) timeModes(rows [][]float32, budget time.Duration) (mode int32, measured bool, ladder []ModeTiming) {
	out := make([]int32, len(rows))
	s := e.newScratch()
	cands := e.modeCandidates()
	per := budget / time.Duration(len(cands))
	best, bestNs := e.mode.Load(), math.MaxFloat64
	bestLadder := -1
	tstart := time.Now()
	for _, c := range cands {
		if time.Since(tstart) >= budget {
			break
		}
		w, k, refill := modeWidth(c), modeKernel(c), modeRefill(c)
		start := time.Now()
		e.predictBlockMode(rows, out, s, w, k, refill) // warm up, counted
		warm := time.Since(start)
		var runs int
		mstart := time.Now()
		for time.Since(mstart) < per-warm {
			e.predictBlockMode(rows, out, s, w, k, refill)
			runs++
		}
		if runs == 0 {
			continue
		}
		measured = true
		ns := float64(time.Since(mstart).Nanoseconds()) / float64(runs)
		ladder = append(ladder, ModeTiming{
			Width:      w,
			Kernel:     k.String(),
			Refill:     int(refill),
			RowsPerSec: float64(len(rows)) / (ns / 1e9),
		})
		if ns < bestNs {
			best, bestNs = c, ns
			bestLadder = len(ladder) - 1
		}
	}
	if bestLadder >= 0 {
		ladder[bestLadder].Winner = true
	}
	return best, measured, ladder
}

// Calibrate measures the interleave crossover points on this host, one
// gate set per interleaving arena layout: for a ladder of synthetic
// arena sizes it times each arena's calibration slate (modeCandidates:
// the FLInt kernel at widths 1/2/4/8, every compact kernel) on rows
// spanning the arena's own split range, picks the fastest (width,
// kernel) per (layout, size), derives monotone byte thresholds,
// installs them for subsequently constructed engines
// (SetInterleaveGates) and returns them. The whole pass costs roughly
// budget wall time (budget <= 0 selects 200ms); call it once at process
// start, or whenever the deployment moves to different hardware.
func Calibrate(budget time.Duration) InterleaveGates {
	if budget <= 0 {
		budget = 200 * time.Millisecond
	}
	// Depth-9 synthetic trees stacked to the ladder's target footprints,
	// bracketing the L2/L3/DRAM regimes where the crossovers live.
	sizes := []int{256 << 10, 1 << 20, 4 << 20, 16 << 20}
	// Each ladder times its arena's modeCandidates: one candidate per
	// width for FLInt; for compact, the branchy and SIMD widths, fused
	// and SIMD-quant once each, and the width-16 walk's
	// compaction-on/off pair. Split the budget so every candidate gets
	// an equal slice — an even per-engine split would shrink each
	// compact candidate's slice and raise the odds that budget
	// starvation skips fused or SIMD at exactly the sizes where they win
	// (a skipped candidate never competes, and the MaxInt gate that
	// falls out would persist as "never won").
	flintCands := len((&FlatForestEngine{variant: FlatFLInt}).modeCandidates())
	compactCands := len((&FlatForestEngine{variant: FlatCompact}).modeCandidates())
	perCand := budget / time.Duration(len(sizes)*(flintCands+compactCands))
	flintBest := make([]int, len(sizes))
	compactBest := make([]int, len(sizes))
	compactKernel := make([]Kernel, len(sizes))
	compact16 := make([]bool, len(sizes))
	for si, bytes := range sizes {
		fe := syntheticFLIntEngine(bytes)
		fm, _, _ := fe.timeModes(fe.representativeRows(64, uint32(0xB5297A4D+si)), perCand*time.Duration(flintCands))
		flintBest[si] = modeWidth(fm)
		ce := syntheticCompactEngine(bytes)
		cm, _, _ := ce.timeModes(ce.representativeRows(64, uint32(0x68E31DA4+si)), perCand*time.Duration(compactCands))
		compactKernel[si] = modeKernel(cm)
		w := modeWidth(cm)
		compact16[si] = compactKernel[si] == KernelSIMD && w == simdWidth16
		if w > 8 {
			// The width gate ladder is the scalar 1/2/4/8 set; a width-16
			// SIMD win implies the 8-way crossover and carries its own
			// gate (CompactSIMD16Min).
			w = 8
		}
		compactBest[si] = w
	}
	g := InterleaveGates{}
	g.Min2, g.Min4, g.Min8 = gatesFromLadder(sizes, flintBest)
	g.CompactMin2, g.CompactMin4, g.CompactMin8 = gatesFromLadder(sizes, compactBest)
	g.CompactFusedMin, g.CompactSIMDQuantMin, g.CompactSIMDMin = kernelGatesFromLadder(sizes, compactKernel)
	g.CompactSIMD16Min = simd16GateFromLadder(sizes, compact16)
	SetInterleaveGates(g)
	return g
}

// kernelGatesFromLadder turns per-size winning kernels into the byte
// thresholds from which the fused, SIMD-quant and SIMD kernels win:
// kernels are first forced monotone over the size ladder in branchy <
// fused < simd-quant < simd order (a less aggressive kernel winning
// above a more aggressive one is measurement noise — each step up the
// order hides more stall time behind data flow, an advantage that only
// grows with walk depth and fetch latency), then each threshold is the
// smallest size preferring at least that kernel, or math.MaxInt when no
// size did. The SIMD thresholds are derived even on hosts where only
// two kernels competed: with no size ever won by a vector kernel they
// land on MaxInt, the recorded form of "never won".
func kernelGatesFromLadder(sizes []int, bestAt []Kernel) (fusedMin, quantMin, simdMin int) {
	for i := 1; i < len(bestAt); i++ {
		if bestAt[i] < bestAt[i-1] {
			bestAt[i] = bestAt[i-1]
		}
	}
	fusedMin, quantMin, simdMin = math.MaxInt, math.MaxInt, math.MaxInt
	for i := len(sizes) - 1; i >= 0; i-- {
		if bestAt[i] >= KernelFused {
			fusedMin = sizes[i]
		}
		if bestAt[i] >= KernelSIMDQuant {
			quantMin = sizes[i]
		}
		if bestAt[i] >= KernelSIMD {
			simdMin = sizes[i]
		}
	}
	return fusedMin, quantMin, simdMin
}

// simd16GateFromLadder turns per-size "the width-16 SIMD walk won"
// flags into the CompactSIMD16Min byte threshold, monotone-forced the
// same way as the other gates: once the dual-group walk wins at some
// footprint it is assumed to keep winning above it (the gather-latency
// exposure it hides only grows), so the threshold is the smallest
// winning size, or math.MaxInt when none was.
func simd16GateFromLadder(sizes []int, was16 []bool) int {
	for i := 1; i < len(was16); i++ {
		if was16[i-1] {
			was16[i] = true
		}
	}
	for i, b := range was16 {
		if b {
			return sizes[i]
		}
	}
	return math.MaxInt
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
	e.mode.Store(packMode(1, KernelBranchy))
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

// syntheticCompactEngine is syntheticFLIntEngine for the 8-byte compact
// SoA arena: perfect trees over random ranks into per-feature cut
// tables drawn from the same bounded split range.
func syntheticCompactEngine(arenaBytes int) *FlatForestEngine {
	const depth = 9
	const perTree = 1<<depth - 1
	const numFeatures = 16
	const cutsPerFeature = 256
	trees := arenaBytes / (8 * perTree)
	if trees < 1 {
		trees = 1
	}
	e := &FlatForestEngine{
		roots:       make([]int32, trees),
		variant:     FlatCompact,
		numClasses:  4,
		numFeatures: numFeatures,
		numPruned:   numFeatures,
	}
	e.mode.Store(packMode(1, KernelBranchy))
	next := xorshift32(0x9E3779B1)
	e.prunedOrig = make([]int32, numFeatures)
	e.cutLo = make([]int32, numFeatures+1)
	e.cuts = make([]uint32, 0, numFeatures*cutsPerFeature)
	for f := 0; f < numFeatures; f++ {
		e.prunedOrig[f] = int32(f)
		e.cutLo[f] = int32(len(e.cuts))
		fc := make([]uint32, 0, cutsPerFeature)
		for len(fc) < cutsPerFeature {
			fc = append(fc, core.PrecodeSplit32(syntheticSplit(next())))
		}
		sort.Slice(fc, func(i, j int) bool { return fc[i] < fc[j] })
		w := 0
		for i, v := range fc {
			if i == 0 || v != fc[w-1] {
				fc[w] = v
				w++
			}
		}
		e.cuts = append(e.cuts, fc[:w]...)
	}
	e.cutLo[numFeatures] = int32(len(e.cuts))

	e.keys16 = make([]uint16, 0, trees*perTree)
	e.feats16 = make([]uint16, 0, trees*perTree)
	e.kids = make([]int32, 0, trees*perTree)
	e.nodes64 = make([]uint64, 0, trees*perTree)
	for t := 0; t < trees; t++ {
		e.roots[t] = int32(len(e.kids))
		for i := 0; i < perTree; i++ {
			var left, right int32
			if 2*i+1 < perTree {
				left, right = int32(2*i+1), int32(2*i+2) // tree-relative
			} else {
				left, right = ^int32(next()%4), ^int32(next()%4)
			}
			f := next() % numFeatures
			nc := e.cutLo[f+1] - e.cutLo[f]
			kids := packKids(left, right)
			rank := uint16(next() % uint32(nc))
			e.feats16 = append(e.feats16, uint16(f))
			e.keys16 = append(e.keys16, rank)
			e.kids = append(e.kids, kids)
			e.nodes64 = append(e.nodes64, packNode64(rank, uint16(f), kids))
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

// voteLanes16 is voteLanes for the dual-group SIMD walk's 16 lanes
// (k <= 16), with the same stack-or-scratch split; the scratch vote
// buffer is sized for 16 lanes at construction.
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
