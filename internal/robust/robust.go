// Package robust audits a compiled forest's decision-boundary
// robustness by attacking it: walk a row's decision path (the
// treeexec.DecisionPath trace), find the thresholds the walk brushed
// closest against, and nudge features just past them until the
// forest's majority vote flips. The perturbations are minimal in the
// strongest sense the engine admits — a leftward crossing moves a
// value onto the threshold itself, a rightward crossing moves it to
// the threshold's immediate float successor in FLInt total order
// (ieee754.FromTotalOrderKey32 of key+1), the smallest representable
// value on the other side of the comparison.
//
// Two products come out: per-workload RobustnessReports (flip rate as
// a function of perturbation budget — how much of the served
// distribution sits within epsilon of a decision boundary), and
// adversarial row sets that serve as principled worst-case benchmark
// workloads: every row walks to the far side of some threshold it was
// nearest to, the traffic shape branch predictors and calibrated
// interleave widths handle worst.
//
// The greedy path-guided search follows the random-forest-attack
// construction: repeatedly flip the cheapest unvisited decision on the
// current path, re-trace, and stop at a prediction flip or when the
// budget or iteration cap is exhausted.
package robust

import (
	"math"
	"sort"

	"flint/internal/core"
	"flint/internal/ieee754"
	"flint/internal/treeexec"
)

// Config parameterizes the attack. The zero value selects the
// defaults.
type Config struct {
	// MaxIter caps the flip-retrace iterations per row (each iteration
	// perturbs one path node). Default 100.
	MaxIter int
	// Budget caps the total perturbation: the sum over features of
	// |adv - orig| / scale may not exceed it (candidate crossings that
	// would are skipped). <= 0 means unbounded — the attack reports the
	// cost it needed, and Report buckets rows by it afterwards.
	Budget float64
	// Scale normalizes per-feature perturbation cost (cost of moving
	// feature f by delta is |delta| / Scale[f]). Nil scales every
	// feature by 1; Audit fills it with the observed per-feature value
	// range of the audited rows, making budgets read as fractions of
	// the data's spread.
	Scale []float32
}

// DefaultMaxIter caps attack iterations per row.
const DefaultMaxIter = 100

// Result is the attack outcome for one row.
type Result struct {
	Row     []float32 // the perturbed row (a copy; equals the input when no step applied)
	Flipped bool      // the forest's prediction changed
	Cost    float64   // normalized L1 distance from the original row
	Steps   int       // path decisions perturbed
}

// Perturb attacks one row: it returns a minimally perturbed copy whose
// prediction differs from the original's when the search succeeds
// within the iteration and budget caps. The input row is not modified.
func Perturb(e *treeexec.FlatForestEngine, x []float32, cfg Config) Result {
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = DefaultMaxIter
	}
	scale := func(f int32) float64 {
		if cfg.Scale == nil || cfg.Scale[f] == 0 {
			return 1
		}
		return float64(cfg.Scale[f])
	}
	orig := x
	cur := append([]float32(nil), x...)
	y0 := e.Predict(cur)
	res := Result{Row: cur}
	visited := make(map[[2]int32]bool)
	var buf []treeexec.PathStep
	for iter := 0; iter < cfg.MaxIter; iter++ {
		var y int32
		buf, y = e.DecisionPath(cur, buf)
		if y != y0 {
			res.Flipped = true
			return res
		}
		// Pick the cheapest unvisited crossing on the current path.
		bestMove := math.Inf(1)
		bestCost := 0.0
		var bestFeat int32
		var bestVal float32
		var bestKey [2]int32
		found := false
		for _, s := range buf {
			k := [2]int32{int32(s.Tree), s.Node}
			if visited[k] {
				continue
			}
			target, ok := crossing(s)
			if !ok {
				continue
			}
			f := s.Feature
			move := math.Abs(float64(target)-float64(cur[f])) / scale(f)
			cost := res.Cost -
				math.Abs(float64(cur[f])-float64(orig[f]))/scale(f) +
				math.Abs(float64(target)-float64(orig[f]))/scale(f)
			if cfg.Budget > 0 && cost > cfg.Budget {
				continue
			}
			if move < bestMove {
				bestMove, bestCost, bestFeat, bestVal, bestKey, found = move, cost, f, target, k, true
			}
		}
		if !found {
			return res
		}
		visited[bestKey] = true
		cur[bestFeat] = bestVal
		res.Cost = bestCost
		res.Steps++
	}
	if y := e.Predict(cur); y != y0 {
		res.Flipped = true
	}
	return res
}

// crossing returns the nearest value on the other side of a path
// step's comparison: the threshold itself for a rightward walk (x <= t
// then holds, with equality), or the threshold's immediate total-order
// successor for a leftward walk (the smallest float with key(v) >
// key(t)). Thresholds whose successor is not finite (a split at
// +MaxFloat32) admit no finite crossing.
func crossing(s treeexec.PathStep) (float32, bool) {
	if s.Right {
		return s.Threshold, true
	}
	v := math.Float32frombits(ieee754.FromTotalOrderKey32(core.PrecodeSplit32(s.Threshold) + 1))
	if f64 := float64(v); math.IsInf(f64, 0) || math.IsNaN(f64) {
		return 0, false
	}
	return v, true
}

// Report is a robustness audit over a row set: how the attack's flip
// rate grows with the allowed perturbation budget. FlipRate[i] is the
// fraction of rows whose prediction the attack flipped at normalized
// cost <= Budgets[i]; Flipped counts flips at any cost.
type Report struct {
	Rows      int       `json:"rows"`
	Flipped   int       `json:"flipped"`
	Budgets   []float64 `json:"budgets"`
	FlipRate  []float64 `json:"flip_rate"`
	MeanCost  float64   `json:"mean_cost,omitempty"`  // mean cost over flipped rows
	MeanSteps float64   `json:"mean_steps,omitempty"` // mean perturbed decisions over flipped rows
}

// DefaultBudgets is the budget ladder Audit reports against when the
// caller supplies none: fractions of the per-feature data spread.
var DefaultBudgets = []float64{0.001, 0.01, 0.05, 0.1, 0.25, 0.5}

// Audit attacks every row and reports the flip-rate curve over the
// budget ladder. When cfg.Scale is nil, costs are normalized by the
// observed per-feature value range of rows, so a budget of 0.1 reads
// as "perturbations totalling a tenth of the data's spread". The audit
// is embarrassingly parallel over rows but runs sequentially: it is an
// offline reporting pass, not a serving path.
func Audit(e *treeexec.FlatForestEngine, rows [][]float32, budgets []float64, cfg Config) Report {
	if budgets == nil {
		budgets = DefaultBudgets
	}
	if cfg.Scale == nil {
		cfg.Scale = featureSpread(e.NumFeatures(), rows)
	}
	r := Report{
		Rows:     len(rows),
		Budgets:  append([]float64(nil), budgets...),
		FlipRate: make([]float64, len(budgets)),
	}
	sort.Float64s(r.Budgets)
	var costs []float64
	for _, x := range rows {
		res := Perturb(e, x, cfg)
		if !res.Flipped {
			continue
		}
		r.Flipped++
		r.MeanCost += res.Cost
		r.MeanSteps += float64(res.Steps)
		costs = append(costs, res.Cost)
	}
	if r.Flipped > 0 {
		r.MeanCost /= float64(r.Flipped)
		r.MeanSteps /= float64(r.Flipped)
	}
	if r.Rows > 0 {
		sort.Float64s(costs)
		for i, b := range r.Budgets {
			r.FlipRate[i] = float64(sort.SearchFloat64s(costs, math.Nextafter(b, math.Inf(1)))) / float64(r.Rows)
		}
	}
	return r
}

// AdversarialRows attacks every row and returns the perturbed copies —
// flipped rows where the attack succeeded, best-effort boundary-hugging
// perturbations where it ran out of iterations. The result is a
// worst-case serving workload: each row sits exactly on (or one float
// past) thresholds its original walked nearest, the inputs on which
// tie-handling must be exact and branch history is least predictable.
func AdversarialRows(e *treeexec.FlatForestEngine, rows [][]float32, cfg Config) [][]float32 {
	if cfg.Scale == nil {
		cfg.Scale = featureSpread(e.NumFeatures(), rows)
	}
	out := make([][]float32, len(rows))
	for i, x := range rows {
		out[i] = Perturb(e, x, cfg).Row
	}
	return out
}

// featureSpread returns each feature's observed value range over rows
// (1 where a feature is constant, so normalization never divides by
// zero).
func featureSpread(features int, rows [][]float32) []float32 {
	spread := make([]float32, features)
	if len(rows) == 0 {
		for f := range spread {
			spread[f] = 1
		}
		return spread
	}
	lo := append([]float32(nil), rows[0]...)
	hi := append([]float32(nil), rows[0]...)
	for _, r := range rows[1:] {
		for f, v := range r {
			if v < lo[f] {
				lo[f] = v
			}
			if v > hi[f] {
				hi[f] = v
			}
		}
	}
	for f := range spread {
		spread[f] = hi[f] - lo[f]
		if spread[f] <= 0 || math.IsNaN(float64(spread[f])) || math.IsInf(float64(spread[f]), 0) {
			spread[f] = 1
		}
	}
	return spread
}
