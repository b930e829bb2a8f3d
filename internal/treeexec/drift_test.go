package treeexec

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flint/internal/rf"
)

// TestReservoirSnapshotIsDeepCopy pins the snapshot contract the drift
// detector depends on: a snapshot shares no storage with the reservoir
// in either direction, even across later fill cycles.
func TestReservoirSnapshotIsDeepCopy(t *testing.T) {
	const capacity, features = 8, 3
	r := newRowReservoir(capacity, features, 1)
	row := func(v float32) []float32 { return []float32{v, v + 1, v + 2} }
	for i := 0; i < capacity; i++ {
		r.observe([][]float32{row(float32(i))})
	}
	snap := r.snapshot()
	if len(snap) != capacity {
		t.Fatalf("snapshot holds %d rows, want %d", len(snap), capacity)
	}
	// Mutating the snapshot must not reach the reservoir...
	for _, s := range snap {
		for j := range s {
			s[j] = -1000
		}
	}
	for i, s := range r.snapshot() {
		if s[0] == -1000 {
			t.Fatalf("slot %d aliases the earlier snapshot's storage", i)
		}
	}
	// ...and later admissions (many full replacement cycles) must not
	// reach a snapshot the caller is still holding.
	held := r.snapshot()
	want := make([][]float32, len(held))
	for i, s := range held {
		want[i] = append([]float32(nil), s...)
	}
	for i := 0; i < 100*capacity; i++ {
		r.observe([][]float32{row(float32(9000 + i))})
	}
	for i, s := range held {
		for j := range s {
			if s[j] != want[i][j] {
				t.Fatalf("held snapshot row %d mutated by later fill cycle: %v want %v", i, s, want[i])
			}
		}
	}
}

// driftedRows returns rows pushed far outside the per-feature split
// range the engine was trained on — every value lands in the top rank
// bin, the cheapest detectable distribution shift.
func driftedRows(rows [][]float32) [][]float32 {
	out := make([][]float32, len(rows))
	for i, r := range rows {
		s := make([]float32, len(r))
		for j, v := range r {
			s[j] = v*4 + 1e6
		}
		out[i] = s
	}
	return out
}

// TestDriftTriggerUnderConcurrentTraffic is the tentpole acceptance
// test for the detector (run under -race to pin its other half): with a
// baseline from the training distribution and live traffic shifted far
// off it, the cadence-scheduled check must fire Recalibrate
// automatically while concurrent Predict callers hammer the pool. A
// trigger is counted only once its pass has installed a mode, and that
// mode is sourced from the sampled rows unless the 5 ms budget starved
// the pass (likely under -race or a loaded host), which must then say
// so and leave the source untouched.
func TestDriftTriggerUnderConcurrentTraffic(t *testing.T) {
	f, d := trainedForest(t, "magic", 7, 6)
	e, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcherSampled(e, 3, 16, 128, 1)
	defer b.Close()
	err = b.EnableDriftDetection(DriftConfig{
		CheckEvery: 256,
		Threshold:  0.2,
		Cooldown:   time.Millisecond,
		MinRows:    32,
		Budget:     5 * time.Millisecond,
	}, d.Features)
	if err != nil {
		t.Fatal(err)
	}
	drifted := driftedRows(d.Features)

	var stopFlag atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]int32, len(drifted))
			for !stopFlag.Load() {
				b.Predict(drifted, out)
			}
		}()
	}
	deadline := time.Now().Add(20 * time.Second)
	var st DriftStats
	for time.Now().Before(deadline) {
		st = b.DriftStats()
		if st.Triggers >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopFlag.Store(true)
	wg.Wait()
	if st.Triggers < 1 {
		t.Fatalf("drift never triggered recalibration: %+v", st)
	}
	st = b.DriftStats() // the rebased baseline keeps later checks from firing again
	// Distance keeps moving after the trigger (the rebased baseline
	// scores near 0 against continued drifted traffic); TriggerDistance
	// preserves the excursion that fired.
	if st.TriggerDistance <= 0.2 {
		t.Errorf("trigger recorded but trigger distance %v is not over the threshold", st.TriggerDistance)
	}
	if st.LastTrigger.IsZero() || st.LastCheck.IsZero() {
		t.Errorf("trigger metadata missing: %+v", st)
	}
	want := "rows"
	if st.Starved == st.Triggers {
		want = "default" // no pass timed a candidate: the construction-time mode stays
	}
	if src := e.CalibrationSource(); src != want {
		t.Errorf("triggered recalibration (%d passes, %d starved) left calibration source %q, want %q",
			st.Triggers, st.Starved, src, want)
	}
	if e.Interleave() != 1 {
		t.Errorf("compact engine installed width %d, want 1", e.Interleave())
	}
	// The triggering sample became the new baseline, so the measured
	// drift against continued drifted traffic collapses.
	if st2 := b.CheckDrift(); st2.Distance > 0.2 {
		t.Errorf("baseline did not rebase after trigger: distance still %v", st2.Distance)
	}
}

// TestDriftStationaryTrafficNoTrigger pins the false-positive side: a
// baseline adopted from the live reservoir itself measures distance
// exactly 0, and stationary traffic never fires the trigger.
func TestDriftStationaryTrafficNoTrigger(t *testing.T) {
	f, d := trainedForest(t, "magic", 6, 5)
	e, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcherSampled(e, 2, 16, 128, 1)
	defer b.Close()
	out := make([]int32, len(d.Features))
	b.Predict(d.Features, out)
	// nil baseline: adopt the current reservoir snapshot. The first
	// check then compares the reservoir against itself — identical
	// distributions must score exactly 0.
	if err := b.EnableDriftDetection(DriftConfig{CheckEvery: 256, MinRows: 16}, nil); err != nil {
		t.Fatal(err)
	}
	st := b.CheckDrift()
	if st.Distance != 0 {
		t.Fatalf("identical distributions scored PSI %v, want exactly 0", st.Distance)
	}
	// Keep serving the same distribution: samples vary, the trigger
	// must not fire.
	for i := 0; i < 30; i++ {
		b.Predict(d.Features, out)
		b.CheckDrift()
	}
	st = b.DriftStats()
	if st.Triggers != 0 {
		t.Fatalf("stationary traffic fired %d triggers (distance %v)", st.Triggers, st.Distance)
	}
	if st.Distance > st.Threshold/2 {
		t.Errorf("stationary distance %v is uncomfortably close to the threshold %v", st.Distance, st.Threshold)
	}
	if st.Checks == 0 || st.LastCheck.IsZero() {
		t.Errorf("checks did not run: %+v", st)
	}
}

// TestDriftEvidenceFloor pins the tiny-reservoir edge: checks below the
// MinRows floor neither adopt a baseline nor trigger, and the first
// sufficient check adopts its sample as baseline instead of firing.
func TestDriftEvidenceFloor(t *testing.T) {
	f, d := trainedForest(t, "wine", 5, 4)
	e, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcherSampled(e, 1, 8, 64, 1)
	defer b.Close()
	if err := b.EnableDriftDetection(DriftConfig{MinRows: 32}, nil); err != nil {
		t.Fatal(err)
	}
	// Empty reservoir: a check runs but has no evidence.
	st := b.CheckDrift()
	if st.Checks != 1 || st.Triggers != 0 || st.BaselineRows != 0 {
		t.Fatalf("empty-reservoir check misbehaved: %+v", st)
	}
	// Below the floor: still nothing.
	out := make([]int32, 8)
	b.Predict(d.Features[:8], out)
	if st = b.CheckDrift(); st.Triggers != 0 || st.BaselineRows != 0 {
		t.Fatalf("below-floor check misbehaved: %+v", st)
	}
	// Over the floor: adopt, don't trigger — even though these rows
	// look nothing like the (nonexistent) baseline.
	b.Predict(driftedRows(d.Features[:64]), make([]int32, 64))
	if st = b.CheckDrift(); st.Triggers != 0 || st.BaselineRows < 32 {
		t.Fatalf("first sufficient check should adopt a baseline without triggering: %+v", st)
	}
}

// TestDriftSingleFeatureForest runs the whole detect -> recalibrate
// loop on a one-feature forest (one histogram block, two bins).
func TestDriftSingleFeatureForest(t *testing.T) {
	f := &rf.Forest{NumFeatures: 1, NumClasses: 2, Trees: []rf.Tree{{Nodes: []rf.Node{
		{Feature: 0, Split: 0.5, Left: 1, Right: 2, LeftFraction: 0.5},
		{Feature: rf.LeafFeature, Class: 0},
		{Feature: rf.LeafFeature, Class: 1},
	}}}}
	e, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcherSampled(e, 1, 8, 64, 1)
	defer b.Close()
	low := make([][]float32, 64)
	high := make([][]float32, 64)
	for i := range low {
		low[i] = []float32{float32(i) / 200}    // all below the 0.5 split
		high[i] = []float32{2 + float32(i)/200} // all above it
	}
	err = b.EnableDriftDetection(DriftConfig{
		Threshold: 0.2, MinRows: 16, Cooldown: time.Nanosecond, Budget: time.Millisecond,
	}, low)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int32, 64)
	b.Predict(high, out)
	st := b.CheckDrift()
	if st.Triggers != 1 {
		t.Fatalf("single-feature drift did not trigger: %+v", st)
	}
	if st.Distance <= 0.2 {
		t.Errorf("distance %v not over threshold", st.Distance)
	}
}

// TestDriftCooldownSuppression pins the hysteresis: a second
// over-threshold excursion inside the cooldown window is counted as
// suppressed, not fired.
func TestDriftCooldownSuppression(t *testing.T) {
	f, d := trainedForest(t, "magic", 6, 5)
	e, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcherSampled(e, 1, 16, 128, 1)
	defer b.Close()
	err = b.EnableDriftDetection(DriftConfig{
		Threshold: 0.2, MinRows: 16, Cooldown: time.Hour, Budget: time.Millisecond,
	}, d.Features)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int32, len(d.Features))
	// First excursion: trigger fires, baseline rebases to the shifted
	// sample.
	b.Predict(driftedRows(d.Features), out)
	st := b.CheckDrift()
	if st.Triggers != 1 || st.Suppressed != 0 {
		t.Fatalf("first excursion: %+v, want exactly one trigger", st)
	}
	// Second excursion (back to the original distribution — drifted
	// again relative to the new baseline) lands inside the hour-long
	// cooldown: suppressed.
	for i := 0; i < 6; i++ {
		b.Predict(d.Features, out)
	}
	st = b.CheckDrift()
	if st.Triggers != 1 {
		t.Fatalf("cooldown did not hold: %d triggers", st.Triggers)
	}
	if st.Suppressed == 0 {
		t.Fatalf("over-threshold check inside cooldown was not counted as suppressed: %+v", st)
	}
	if st.Distance <= 0.2 {
		t.Errorf("second excursion distance %v should be over threshold for this test to mean anything", st.Distance)
	}
}

// TestDriftStarvedPassIsCounted pins the honest-trigger contract: a
// triggered pass whose budget runs out before any candidate is timed
// still counts as a finished trigger, is counted as starved, and leaves
// the calibration source alone instead of claiming evidence.
func TestDriftStarvedPassIsCounted(t *testing.T) {
	f, d := trainedForest(t, "magic", 6, 5)
	e, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcherSampled(e, 1, 16, 128, 1)
	defer b.Close()
	err = b.EnableDriftDetection(DriftConfig{
		Threshold: 0.2, MinRows: 16, Cooldown: time.Nanosecond, Budget: time.Nanosecond,
	}, d.Features)
	if err != nil {
		t.Fatal(err)
	}
	b.Predict(driftedRows(d.Features), make([]int32, len(d.Features)))
	if st := b.CheckDrift(); st.Triggers != 1 || st.Starved != 1 {
		t.Fatalf("a 1ns recalibration budget: %d triggers, %d starved; want 1 and 1", st.Triggers, st.Starved)
	}
	if src := e.CalibrationSource(); src != "default" {
		t.Fatalf("starved pass set calibration source %q, want \"default\"", src)
	}
}

// TestDriftTriggerDefaultBudgetGathersEvidence pins that a triggered
// pass on a compact engine, at the default DriftConfig budget, times
// the calibration slate and installs its result: the trigger counts,
// nothing starves, and the source becomes the drifted rows.
func TestDriftTriggerDefaultBudgetGathersEvidence(t *testing.T) {
	f, d := trainedForest(t, "magic", 7, 6)
	e, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcherSampled(e, 1, 16, 128, 1)
	defer b.Close()
	if err := b.EnableDriftDetection(DriftConfig{Threshold: 0.2, MinRows: 16}, d.Features); err != nil {
		t.Fatal(err)
	}
	b.Predict(driftedRows(d.Features), make([]int32, len(d.Features)))
	if st := b.CheckDrift(); st.Triggers != 1 || st.Starved != 0 {
		t.Fatalf("default-budget pass: %d triggers, %d starved; want 1 and 0", st.Triggers, st.Starved)
	}
	if src := e.CalibrationSource(); src != "rows" {
		t.Errorf("triggered pass left calibration source %q, want \"rows\"", src)
	}
}

// TestDriftRequiresSampling pins the disabled-sampling edge: a Batcher
// built with a negative reservoir capacity has no live distribution to
// compare, so arming is an error (and Predict still works).
func TestDriftRequiresSampling(t *testing.T) {
	f, d := trainedForest(t, "wine", 4, 3)
	e, err := NewFlat(f, FlatFLInt)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcherSampled(e, 1, 8, -1, 0)
	defer b.Close()
	if err := b.EnableDriftDetection(DriftConfig{}, nil); err == nil {
		t.Fatal("EnableDriftDetection succeeded on a sampling-disabled Batcher")
	} else if !strings.Contains(err.Error(), "sampling") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if st := b.DriftStats(); st.Enabled {
		t.Fatal("DriftStats claims an armed detector after a failed enable")
	}
	if st := b.CheckDrift(); st.Enabled || st.Checks != 0 {
		t.Fatal("CheckDrift did something on an unarmed Batcher")
	}
	b.Predict(d.Features[:4], make([]int32, 4))
}

// TestDriftConfigValidation rejects configurations that would disable
// detection silently, and double-arming.
func TestDriftConfigValidation(t *testing.T) {
	f, _ := trainedForest(t, "wine", 4, 3)
	e, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(e, 1, 8)
	defer b.Close()
	for _, cfg := range []DriftConfig{
		{Threshold: -1},
		{Cooldown: -time.Second},
		{MinRows: -5},
		{Bins: 1},
		{Bins: -2},
		{Budget: -time.Second},
	} {
		if err := b.EnableDriftDetection(cfg, nil); err == nil {
			t.Errorf("config %+v accepted, want error", cfg)
		}
	}
	if err := b.EnableDriftDetection(DriftConfig{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.EnableDriftDetection(DriftConfig{}, nil); err == nil {
		t.Fatal("second EnableDriftDetection succeeded")
	}
}

// TestDriftPredictZeroAlloc asserts the acceptance criterion that the
// steady-state Predict path stays at 0 allocs/op with drift checking
// armed: the cadence compare is one atomic load, and the check itself
// runs on the watcher goroutine only when due (pushed out of this
// measurement window by a large cadence).
func TestDriftPredictZeroAlloc(t *testing.T) {
	f, d := trainedForest(t, "magic", 6, 5)
	e, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcherSampled(e, 2, 8, 32, 1)
	defer b.Close()
	if err := b.EnableDriftDetection(DriftConfig{CheckEvery: 1 << 40}, d.Features); err != nil {
		t.Fatal(err)
	}
	out := make([]int32, d.Len())
	b.Predict(d.Features, out) // warm the token pool
	if avg := testing.AllocsPerRun(20, func() {
		out = b.Predict(d.Features, out[:0])
	}); avg != 0 {
		t.Errorf("drift-armed Predict steady state allocates %.1f objects per call, want 0", avg)
	}
}

// TestDriftConfigPersistRoundTrip pins the persistence ride-along: a
// Batcher save carries the resolved drift policy, a fresh engine loads
// it back validated, and a corrupted policy is rejected.
func TestDriftConfigPersistRoundTrip(t *testing.T) {
	f, d := trainedForest(t, "magic", 6, 5)
	e, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcherSampled(e, 1, 8, 64, 1)
	defer b.Close()
	b.Predict(d.Features, make([]int32, len(d.Features)))
	cfg := DriftConfig{CheckEvery: 512, Threshold: 0.3, Cooldown: 2 * time.Minute, MinRows: 48, Bins: 8}
	if err := b.EnableDriftDetection(cfg, nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.SaveCalibration(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := e2.LoadCalibration(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Drift == nil {
		t.Fatal("record carries no drift config")
	}
	want := cfg.withDefaults()
	if *rec.Drift != want {
		t.Fatalf("drift config round trip: got %+v want %+v", *rec.Drift, want)
	}
	if len(rec.Rows) == 0 {
		t.Fatal("Batcher.SaveCalibration persisted no sample rows")
	}
	// A redeployment re-arms straight from the record.
	b2 := NewBatcherSampled(e2, 1, 8, 64, 1)
	defer b2.Close()
	b2.SeedSample(rec.Rows)
	if err := b2.EnableDriftDetection(*rec.Drift, rec.Rows); err != nil {
		t.Fatal(err)
	}
	if st := b2.DriftStats(); !st.Enabled || st.BaselineRows == 0 {
		t.Fatalf("re-armed detector has no baseline: %+v", st)
	}
	// Corrupted policy: a negative cooldown must fail the load.
	bad := bytes.Replace(buf.Bytes(), []byte(`"cooldown_ns": 120000000000`), []byte(`"cooldown_ns": -1`), 1)
	if !bytes.Contains(buf.Bytes(), []byte(`"cooldown_ns": 120000000000`)) {
		t.Fatal("fixture drifted: cooldown field not found in persisted JSON")
	}
	if _, err := e2.LoadCalibration(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupted drift config loaded without error")
	}
	// An engine-level save (no Batcher) still carries no drift field and
	// loads with Drift nil.
	buf.Reset()
	if err := e.SaveCalibration(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if rec, err := e2.LoadCalibration(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	} else if rec.Drift != nil {
		t.Fatal("engine-level record unexpectedly carries a drift config")
	}
}
