package treeexec

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"flint/internal/core"
	"flint/internal/ieee754"
)

// Drift-triggered recalibration closes the loop the adaptive serving
// runtime left manual: the (width, kernel) mode a Batcher serves with
// was timed on one traffic distribution, and when traffic moves the
// winner can move with it. The detector compares the distribution the
// engine was last calibrated on against the live reservoir — both
// reduced to per-feature histograms over the engine's own quantized
// rank space, the resolution at which a distribution shift can change
// walk shape at all — and when the population-stability distance
// crosses a threshold it re-times the mode on the drifted sample and
// installs the winner through the existing atomic (width, kernel)
// store.
//
// The serving path stays at zero allocations per op: Predict only
// compares the reservoir's row counter against the next check cadence
// (one atomic load) and, at most once per cadence window, posts a
// non-blocking wake to a dedicated watcher goroutine. Snapshots,
// histograms and the recalibration itself all run on the watcher.

// DriftConfig parameterizes a Batcher's drift detector. The zero value
// of each field selects its default, so DriftConfig{} is a sensible
// starting configuration. It is JSON-encodable and rides
// CalibrationRecord (SaveCalibration on a Batcher), so a redeployment
// restores the same detection policy alongside gates, mode and sample.
type DriftConfig struct {
	// CheckEvery is the served-row cadence: a distance check becomes due
	// each time this many further rows have been observed. Default 4096.
	CheckEvery uint64 `json:"check_every,omitempty"`
	// Threshold is the population-stability-index value above which a
	// check triggers recalibration. PSI folklore reads < 0.1 as stable
	// and > 0.25 as a significant shift; default 0.25.
	Threshold float64 `json:"threshold,omitempty"`
	// Cooldown is the minimum wall-clock gap between automatic
	// recalibrations; over-threshold checks inside the window are
	// suppressed (and counted — see DriftStats.Suppressed), so noisy
	// traffic cannot thrash calibration. Default 1 minute.
	Cooldown time.Duration `json:"cooldown_ns,omitempty"`
	// MinRows is the evidence floor: checks with fewer reservoir rows
	// than this never trigger (a near-empty reservoir is all variance).
	// Default 64, the stable timing-block size (minTimingRows).
	MinRows int `json:"min_rows,omitempty"`
	// Bins caps the per-feature histogram resolution; features with
	// fewer distinct splits use splits+1 bins. Default 16.
	Bins int `json:"bins,omitempty"`
	// Budget is the wall-clock budget handed to the triggered
	// recalibration (CalibrateInterleaveRowsLadder); <= 0 selects its
	// default.
	Budget time.Duration `json:"budget_ns,omitempty"`
}

// DefaultDriftCheckEvery is the default served-row cadence between
// drift checks.
const DefaultDriftCheckEvery = 4096

// DefaultDriftThreshold is the default PSI trigger threshold — the
// conventional "significant population shift" reading of the index.
const DefaultDriftThreshold = 0.25

// DefaultDriftCooldown is the default minimum gap between automatic
// recalibrations.
const DefaultDriftCooldown = time.Minute

// DefaultDriftBins is the default per-feature histogram resolution.
const DefaultDriftBins = 16

// withDefaults resolves zero-value fields to their documented defaults.
func (c DriftConfig) withDefaults() DriftConfig {
	if c.CheckEvery == 0 {
		c.CheckEvery = DefaultDriftCheckEvery
	}
	if c.Threshold == 0 {
		c.Threshold = DefaultDriftThreshold
	}
	if c.Cooldown == 0 {
		c.Cooldown = DefaultDriftCooldown
	}
	if c.MinRows == 0 {
		c.MinRows = minTimingRows
	}
	if c.Bins == 0 {
		c.Bins = DefaultDriftBins
	}
	return c
}

// validate rejects configurations no deployment can mean: negative
// knobs and non-finite thresholds (a NaN threshold would disable
// triggering silently — every comparison is false).
func (c DriftConfig) validate() error {
	if c.Threshold < 0 || math.IsNaN(c.Threshold) || math.IsInf(c.Threshold, 0) {
		return fmt.Errorf("treeexec: drift threshold %v is not a finite non-negative value", c.Threshold)
	}
	if c.Cooldown < 0 {
		return fmt.Errorf("treeexec: negative drift cooldown %v", c.Cooldown)
	}
	if c.MinRows < 0 {
		return fmt.Errorf("treeexec: negative drift evidence floor %d", c.MinRows)
	}
	if c.Bins < 0 || c.Bins == 1 {
		return fmt.Errorf("treeexec: drift histogram needs >= 2 bins, got %d", c.Bins)
	}
	if c.Budget < 0 {
		return fmt.Errorf("treeexec: negative drift recalibration budget %v", c.Budget)
	}
	return nil
}

// DriftStats is a snapshot of a Batcher's drift detector, read with
// Batcher.DriftStats. Distance is the PSI measured by the most recent
// completed comparison (0 until a baseline and a live sample have both
// existed).
type DriftStats struct {
	Enabled      bool      // a detector is armed on this Batcher
	Threshold    float64   // resolved trigger threshold
	Distance     float64   // PSI at the last completed comparison
	Checks       uint64    // comparisons completed (including baseline adoption)
	Triggers     uint64    // triggered recalibration passes finished (their mode installed)
	Starved      uint64    // of Triggers, passes that timed no candidate and kept the incumbent mode
	Suppressed   uint64    // over-threshold checks swallowed by the cooldown
	BaselineRows int       // rows behind the current baseline histogram (0: none yet)
	LastCheck    time.Time // wall time of the last check (zero: none yet)
	LastTrigger  time.Time // wall time the last triggered pass started (zero: none yet)
	// TriggerDistance is the PSI measured by the check behind the last
	// finished pass (zero: none yet). Distance keeps moving after a
	// trigger — the baseline rebases, so the next check scores near 0 —
	// while this field preserves the excursion that fired.
	TriggerDistance float64
	Cooldown        time.Duration // resolved cooldown window
}

// driftQuantizer bins feature values over the engine's own split
// structure: per split-on feature, up to Bins-1 edges drawn evenly from
// the feature's sorted distinct split keys, so two samples land in the
// same bin exactly when no retained decision boundary separates them.
// Features the forest never reads carry no signal for walk shape and
// are not tracked.
type driftQuantizer struct {
	features []int32    // original input columns tracked
	edges    [][]uint32 // per tracked feature: sorted total-order bin edges
	cells    int        // total histogram cells: sum over features of len(edges)+1
}

func newDriftQuantizer(e *FlatForestEngine, bins int) *driftQuantizer {
	q := &driftQuantizer{}
	for f, fv := range e.splitValues() {
		if len(fv) == 0 {
			continue
		}
		n := len(fv)
		if n > bins-1 {
			n = bins - 1
		}
		edges := make([]uint32, n)
		for i := range edges {
			// Evenly spaced order statistics of the split table; the
			// stride keeps them distinct because fv is sorted distinct.
			edges[i] = core.PrecodeSplit32(fv[i*len(fv)/n])
		}
		q.features = append(q.features, int32(f))
		q.edges = append(q.edges, edges)
		q.cells += n + 1
	}
	return q
}

// histogram counts rows into a flattened per-feature bin vector
// (feature blocks concatenated in q.features order). A value's bin is
// the number of edges at or below its total-order key — the same
// "rank against a sorted cut segment" the compact kernels quantize by.
func (q *driftQuantizer) histogram(rows [][]float32) []float64 {
	h := make([]float64, q.cells)
	off := 0
	for fi, f := range q.features {
		edges := q.edges[fi]
		for _, row := range rows {
			key := ieee754.TotalOrderKey32(math.Float32bits(row[f]))
			lo, hi := 0, len(edges)
			for lo < hi {
				mid := lo + (hi-lo)/2
				if edges[mid] >= key {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			h[off+lo]++
		}
		off += len(edges) + 1
	}
	return h
}

// psi computes the population stability index between a baseline and a
// live histogram, feature block by feature block, and returns the mean
// over blocks. Empty cells are Laplace-smoothed (the conventional PSI
// guard: the index is infinite on any cell one side never populates).
// Identical distributions score exactly 0.
func (q *driftQuantizer) psi(base, live []float64) float64 {
	if q.cells == 0 || len(q.features) == 0 {
		return 0
	}
	total := 0.0
	off := 0
	for _, edges := range q.edges {
		k := len(edges) + 1
		var nb, nl float64
		for i := 0; i < k; i++ {
			nb += base[off+i]
			nl += live[off+i]
		}
		if nb > 0 && nl > 0 {
			for i := 0; i < k; i++ {
				p := (base[off+i] + 0.5) / (nb + 0.5*float64(k))
				l := (live[off+i] + 0.5) / (nl + 0.5*float64(k))
				total += (p - l) * math.Log(p/l)
			}
		}
		off += k
	}
	return total / float64(len(q.features))
}

// driftDetector is the armed state attached to a Batcher: the
// quantizer, the baseline histogram, the cadence counter the Predict
// path polls, and the watcher goroutine's channels.
type driftDetector struct {
	cfg   DriftConfig
	quant *driftQuantizer

	// next holds the reservoir seen-count at which the next check is
	// due. Predict compares one atomic load against it; the crossing
	// caller CASes it forward and wakes the watcher, so each cadence
	// window posts at most one check regardless of concurrency.
	next atomic.Uint64

	kick chan struct{} // capacity 1; non-blocking wake from Predict
	stop chan struct{} // closed by Batcher.Close
	done chan struct{} // closed when the watcher exits

	mu           sync.Mutex
	baseline     []float64 // histogram of the calibration-time sample
	baselineRows int
	distance     float64
	triggerDist  float64
	checks       uint64
	triggers     uint64
	starved      uint64
	suppressed   uint64
	lastCheck    time.Time
	lastTrigger  time.Time
}

// offer is the Predict-path hook: seen is the reservoir's cumulative
// row count. Allocation-free; at most one watcher wake per cadence
// window.
func (d *driftDetector) offer(seen uint64) {
	due := d.next.Load()
	if seen < due || !d.next.CompareAndSwap(due, seen+d.cfg.CheckEvery) {
		return
	}
	select {
	case d.kick <- struct{}{}:
	default: // a wake is already pending; the watcher will get to it
	}
}

// watch services check wakes until the Batcher closes. Close blocks on
// d.done, so this goroutine can never outlive its Batcher — a ServedModel
// drain (registry Swap, Close) inherits watcher termination by routing
// through Batcher.Close.
func (d *driftDetector) watch(b *Batcher) {
	defer close(d.done)
	for {
		select {
		case <-d.stop:
			return
		case <-d.kick:
			// select chooses randomly among ready cases: when a stop
			// races a pending wake, prefer exiting over burning a
			// recalibration pass on a pool that is shutting down.
			select {
			case <-d.stop:
				return
			default:
			}
			d.check(b)
		}
	}
}

// rebase installs rows as the calibration-time baseline. Called with
// the sample each (manual or automatic) recalibration timed, so the
// detector always measures drift against the distribution the current
// mode was chosen on.
func (d *driftDetector) rebase(rows [][]float32) {
	if len(rows) == 0 {
		return
	}
	h := d.quant.histogram(rows)
	d.mu.Lock()
	d.baseline = h
	d.baselineRows = len(rows)
	d.mu.Unlock()
}

// check runs one drift comparison against the current reservoir and
// triggers recalibration when warranted. It runs on the watcher
// goroutine (or synchronously via Batcher.CheckDrift), never on the
// serving path.
func (d *driftDetector) check(b *Batcher) {
	rows := b.sample.snapshot()
	now := time.Now()

	d.mu.Lock()
	d.checks++
	d.lastCheck = now
	if len(rows) < d.cfg.MinRows {
		d.mu.Unlock()
		return
	}
	if d.baseline == nil {
		// No calibration-time sample yet (armed before any traffic or
		// recalibration): adopt this first sufficient sample as the
		// baseline rather than comparing against nothing.
		d.mu.Unlock()
		d.rebase(rows)
		return
	}
	base := d.baseline
	d.mu.Unlock()

	dist := d.quant.psi(base, d.quant.histogram(rows))

	d.mu.Lock()
	d.distance = dist
	if dist <= d.cfg.Threshold {
		d.mu.Unlock()
		return
	}
	if !d.lastTrigger.IsZero() && now.Sub(d.lastTrigger) < d.cfg.Cooldown {
		d.suppressed++
		d.mu.Unlock()
		return
	}
	d.lastTrigger = now // starts the cooldown, so a concurrent check cannot fire too
	d.mu.Unlock()

	// The install is the existing atomic (width, kernel) mode store, so
	// Batcher workers racing it finish their block at the old mode. The
	// pass is counted only once it has installed its mode, and an empty
	// ladder — a budget that ran out before any candidate was timed —
	// is counted as starved rather than as a recalibration with evidence.
	_, ladder := b.e.CalibrateInterleaveRowsLadder(rows, d.cfg.Budget)
	d.rebase(rows)
	d.mu.Lock()
	d.triggerDist = dist
	d.triggers++
	if len(ladder) == 0 {
		d.starved++
	}
	d.mu.Unlock()
}

// snapshot reads the detector's counters consistently.
func (d *driftDetector) snapshot() DriftStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DriftStats{
		Enabled:         true,
		Threshold:       d.cfg.Threshold,
		Distance:        d.distance,
		Checks:          d.checks,
		Triggers:        d.triggers,
		Starved:         d.starved,
		Suppressed:      d.suppressed,
		BaselineRows:    d.baselineRows,
		LastCheck:       d.lastCheck,
		LastTrigger:     d.lastTrigger,
		TriggerDistance: d.triggerDist,
		Cooldown:        d.cfg.Cooldown,
	}
}

// EnableDriftDetection arms automatic drift-triggered recalibration on
// this Batcher. baseline supplies the calibration-time sample the live
// reservoir is compared against — pass the rows the engine's current
// mode was calibrated on (e.g. a persisted CalibrationRecord's Rows),
// or nil to adopt the current reservoir contents; when neither holds
// MinRows rows yet, the first sufficiently full check adopts its
// reservoir sample as the baseline instead of triggering.
//
// It requires reservoir sampling (a Batcher built with a non-negative
// capacity): the reservoir is the live distribution the detector
// measures. Arming an already-armed or closed Batcher is an error.
// Arm before or during serving; the serving path's only new cost is
// one atomic cadence compare per Predict call, preserving the
// zero-allocation steady state.
func (b *Batcher) EnableDriftDetection(cfg DriftConfig, baseline [][]float32) error {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return err
	}
	b.closeMu.Lock()
	defer b.closeMu.Unlock()
	if b.closed {
		return fmt.Errorf("treeexec: EnableDriftDetection on closed Batcher")
	}
	if b.sample == nil {
		return fmt.Errorf("treeexec: drift detection needs reservoir sampling, which this Batcher disabled at construction")
	}
	if b.drift.Load() != nil {
		return fmt.Errorf("treeexec: drift detection already enabled on this Batcher")
	}
	d := &driftDetector{
		cfg:   cfg,
		quant: newDriftQuantizer(b.e, cfg.Bins),
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	d.next.Store(b.sample.seen.Load() + cfg.CheckEvery)
	if baseline == nil {
		baseline = b.sample.snapshot()
	}
	good := baseline[:0:0]
	for _, row := range baseline {
		if len(row) == b.e.numFeatures {
			good = append(good, row)
		}
	}
	if len(good) >= cfg.MinRows {
		d.rebase(good)
	}
	b.drift.Store(d)
	go d.watch(b)
	return nil
}

// DriftStats reports the drift detector's current state; the zero
// DriftStats (Enabled false) when detection is not armed.
func (b *Batcher) DriftStats() DriftStats {
	d := b.drift.Load()
	if d == nil {
		return DriftStats{}
	}
	return d.snapshot()
}

// CheckDrift runs one drift comparison synchronously — the same check
// the served-row cadence schedules — and returns the resulting stats.
// Useful at natural control points (end of a traffic epoch, an admin
// endpoint) and in tests; a no-op returning zero stats when detection
// is not armed.
func (b *Batcher) CheckDrift() DriftStats {
	d := b.drift.Load()
	if d == nil {
		return DriftStats{}
	}
	d.check(b)
	return d.snapshot()
}
