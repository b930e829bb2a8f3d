package robust

import (
	"math"
	"testing"

	"flint/internal/cart"
	"flint/internal/core"
	"flint/internal/dataset"
	"flint/internal/ieee754"
	"flint/internal/rf"
	"flint/internal/treeexec"
)

func trainedEngine(t *testing.T, name string, depth, trees int, v treeexec.FlatVariant) (*treeexec.FlatForestEngine, *rf.Forest, *dataset.Dataset) {
	t.Helper()
	d, err := dataset.Generate(name, 400, 21)
	if err != nil {
		t.Fatal(err)
	}
	f, err := cart.TrainForest(d, cart.Config{NumTrees: trees, MaxDepth: depth, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	e, err := treeexec.NewFlat(f, v)
	if err != nil {
		t.Fatal(err)
	}
	return e, f, d
}

// splitSet collects every trained split value (post -0.0 rewrite) and
// its immediate total-order successor, keyed by feature — the only
// values a minimal attack is allowed to move a feature to.
func splitSet(f *rf.Forest) map[int32]map[uint32]bool {
	set := make(map[int32]map[uint32]bool)
	for _, tr := range f.Trees {
		for _, n := range tr.Nodes {
			if n.IsLeaf() {
				continue
			}
			if set[n.Feature] == nil {
				set[n.Feature] = make(map[uint32]bool)
			}
			k := core.PrecodeSplit32(n.Split)
			set[n.Feature][ieee754.FromTotalOrderKey32(k)] = true
			set[n.Feature][ieee754.FromTotalOrderKey32(k+1)] = true
		}
	}
	return set
}

// TestPerturbFlipsWithMinimalCrossings attacks trained forests on both
// arena layouts and pins the attack's two invariants: a success really
// flips the engine's prediction, and every feature it touched landed
// exactly on a trained threshold or that threshold's immediate float
// successor — nothing coarser counts as a minimal crossing.
func TestPerturbFlipsWithMinimalCrossings(t *testing.T) {
	for _, v := range []treeexec.FlatVariant{treeexec.FlatCompact, treeexec.FlatFLInt} {
		e, f, d := trainedEngine(t, "magic", 8, 9, v)
		rows := d.Features[:120]
		cfg := Config{Scale: featureSpread(e.NumFeatures(), rows)}
		allowed := splitSet(f)
		flips := 0
		for i, x := range rows {
			res := Perturb(e, x, cfg)
			if len(res.Row) != len(x) {
				t.Fatalf("row %d: perturbed width %d, want %d", i, len(res.Row), len(x))
			}
			y0, y := e.Predict(x), e.Predict(res.Row)
			if res.Flipped != (y != y0) {
				t.Fatalf("row %d: Flipped=%v but predictions %d vs %d", i, res.Flipped, y0, y)
			}
			changed := 0
			for j := range x {
				if res.Row[j] == x[j] {
					continue
				}
				changed++
				bits := math.Float32bits(res.Row[j])
				if !allowed[int32(j)][bits] {
					t.Fatalf("row %d feature %d: perturbed to %v (bits %#x), not a threshold or its successor",
						i, j, res.Row[j], bits)
				}
			}
			if res.Flipped {
				flips++
				if changed == 0 || res.Steps == 0 || res.Cost <= 0 {
					t.Fatalf("row %d: flip with no recorded perturbation: %+v", i, res)
				}
			}
			if changed > res.Steps {
				t.Fatalf("row %d: %d features changed by %d steps", i, changed, res.Steps)
			}
		}
		// CART splits sit inside the data distribution; a path-guided
		// attack should flip most rows of a 9-tree forest.
		if flips < len(rows)/4 {
			t.Errorf("%v: attack flipped only %d/%d rows", v, flips, len(rows))
		}
	}
}

// TestPerturbRespectsBudget pins the budget cap: every reported cost
// stays within it, and a zero-ish budget flips almost nothing that a
// generous one flips.
func TestPerturbRespectsBudget(t *testing.T) {
	e, _, d := trainedEngine(t, "sensorless", 8, 9, treeexec.FlatCompact)
	rows := d.Features[:100]
	scale := featureSpread(e.NumFeatures(), rows)
	const budget = 0.05
	tight, loose := 0, 0
	for _, x := range rows {
		res := Perturb(e, x, Config{Budget: budget, Scale: scale})
		if res.Cost > budget+1e-9 {
			t.Fatalf("cost %v exceeds budget %v", res.Cost, budget)
		}
		if res.Flipped {
			tight++
		}
		if Perturb(e, x, Config{Scale: scale}).Flipped {
			loose++
		}
	}
	if tight > loose {
		t.Fatalf("tight budget flipped %d rows, unbounded only %d", tight, loose)
	}
}

// TestAuditCurve pins the report shape: flip rate is monotone
// non-decreasing in budget, bounded by the any-cost flip fraction, and
// the unbounded tail of the ladder matches Flipped.
func TestAuditCurve(t *testing.T) {
	e, _, d := trainedEngine(t, "magic", 8, 9, treeexec.FlatCompact)
	rows := d.Features[:120]
	rep := Audit(e, rows, []float64{0.001, 0.05, 0.5, 1000}, Config{})
	if rep.Rows != len(rows) {
		t.Fatalf("report rows %d, want %d", rep.Rows, len(rows))
	}
	prev := -1.0
	for i, fr := range rep.FlipRate {
		if fr < prev {
			t.Fatalf("flip rate not monotone at budget %v: %v after %v", rep.Budgets[i], fr, prev)
		}
		if fr > float64(rep.Flipped)/float64(rep.Rows) {
			t.Fatalf("flip rate %v at budget %v exceeds total flip fraction", fr, rep.Budgets[i])
		}
		prev = fr
	}
	if got := rep.FlipRate[len(rep.FlipRate)-1]; got != float64(rep.Flipped)/float64(rep.Rows) {
		t.Fatalf("unbounded-budget flip rate %v does not match Flipped %d/%d", got, rep.Flipped, rep.Rows)
	}
	if rep.Flipped == 0 {
		t.Fatal("audit flipped nothing; the curve is vacuous")
	}
	if rep.MeanCost <= 0 || rep.MeanSteps <= 0 {
		t.Fatalf("degenerate means: %+v", rep)
	}
}

// TestAdversarialRowsServeBitConsistently generates the worst-case
// workload and pins the property the bench family depends on: rows
// sitting exactly on (or one float past) thresholds are classified
// identically by the compact arena's batch walk and the FLInt arena —
// tie handling under attack is where a quantization or comparison bug
// would surface first.
func TestAdversarialRowsServeBitConsistently(t *testing.T) {
	e, f, d := trainedEngine(t, "magic", 8, 9, treeexec.FlatCompact)
	if e.Variant() != treeexec.FlatCompact {
		t.Fatalf("fell back to %v", e.Variant())
	}
	adv := AdversarialRows(e, d.Features[:96], Config{})
	if len(adv) != 96 {
		t.Fatalf("got %d adversarial rows, want 96", len(adv))
	}
	ref, err := treeexec.NewFlat(f, treeexec.FlatFLInt)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int32, len(adv))
	for i, x := range adv {
		want[i] = ref.Predict(x)
	}
	out := e.PredictBatch(adv, nil, 2, 16)
	for i := range adv {
		if out[i] != want[i] {
			t.Fatalf("adversarial row %d: batch got %d want %d", i, out[i], want[i])
		}
	}
}
