package treeexec

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ServedModel owns the complete per-model serving state that PRs 1–7
// grew as loose parts wired together at call sites: the compiled arena
// engine, the Batcher worker pool that drives it, the traffic reservoir
// and drift detector living inside that Batcher, and the calibration
// record that persists them. Its lifecycle is
//
//	build       — compile the forest into an engine, construct the
//	              model (NewServedModel / NewServedModelSampled)
//	calibrate   — CalibrateInterleaveRows on training/expected traffic,
//	  or load    — or WarmStart from a persisted CalibrationRecord
//	serve       — Predict from any number of goroutines
//	recalibrate — Recalibrate on sampled traffic, by hand or via an
//	              armed drift detector (EnableDriftDetection)
//	save        — SaveCalibration so the next deployment warm-starts
//	drain/close — Close retires the model, waits out in-flight
//	              predictions, and stops the worker pool and the drift
//	              watcher goroutine
//
// A ServedModel is what a ModelRegistry swaps atomically: Predict
// publishes itself through an inflight counter before checking the
// retired flag, and Close raises the flag before draining the counter —
// the same two-sided protocol (one atomic publication against one
// atomic retirement, both sequentially consistent) that the engine's
// single-atomic width install uses one level down, so a
// swap can flip the registry pointer and know that every caller either
// completed against the old model or observed ErrModelRetired and
// retried against the new one. Nothing is ever dropped mid-flight.
type ServedModel struct {
	name string
	e    *FlatForestEngine
	b    *Batcher

	// inflight counts Predict calls between publication and completion;
	// retired, once set, turns every new publication away. Predict
	// increments inflight before loading retired; Close stores retired
	// before polling inflight. Both are seq-cst, so the pair can never
	// agree to proceed: at least one side sees the other.
	inflight atomic.Int64
	retired  atomic.Bool

	rows    atomic.Uint64 // total rows served through Predict
	batches atomic.Uint64 // total Predict calls served
}

// ErrModelRetired is returned by ServedModel.Predict once Close (or a
// registry Swap, which closes the old model) has retired the model. A
// caller holding a *ServedModel directly should re-fetch from the
// registry and retry; ModelRegistry.Predict does exactly that.
var ErrModelRetired = errors.New("treeexec: model retired")

// UnknownModelError is returned by registry operations naming a model
// that is not (or no longer) registered.
type UnknownModelError struct{ Name string }

func (e *UnknownModelError) Error() string {
	return fmt.Sprintf("treeexec: no model %q registered", e.Name)
}

// NewServedModel builds a ServedModel around an engine with a
// default-sampled Batcher (NewBatcher semantics: reservoir sampling on
// at DefaultReservoirRows/DefaultSampleStride). A nil engine panics, as
// NewBatcher does.
func NewServedModel(name string, e *FlatForestEngine, workers, block int) *ServedModel {
	return NewServedModelSampled(name, e, workers, block, 0, 0)
}

// NewServedModelSampled is NewServedModel with explicit reservoir
// parameters (NewBatcherSampled semantics: negative capacity disables
// sampling, zero selects the defaults).
func NewServedModelSampled(name string, e *FlatForestEngine, workers, block, capacity, stride int) *ServedModel {
	return &ServedModel{
		name: name,
		e:    e,
		b:    NewBatcherSampled(e, workers, block, capacity, stride),
	}
}

// Name returns the model's serving name — the registry key and the
// {model} path element of the HTTP front-end.
func (m *ServedModel) Name() string { return m.name }

// Engine returns the model's arena engine.
func (m *ServedModel) Engine() *FlatForestEngine { return m.e }

// Batcher returns the model's worker pool, for callers that need the
// sampling/drift surface directly. Closing it out from under the model
// is a misuse; use Close.
func (m *ServedModel) Batcher() *Batcher { return m.b }

// Retired reports whether the model has been closed (or swapped out).
func (m *ServedModel) Retired() bool { return m.retired.Load() }

// Predict classifies rows through the model's Batcher, writing into out
// when it has capacity. Unlike Batcher.Predict it reports misuse as
// errors rather than panics — a network front-end turns these into
// status codes, not process deaths: ErrModelRetired once the model has
// been closed or swapped out, or a row-width error for malformed input.
// Concurrent calls are safe; a call that published itself before
// retirement always completes.
func (m *ServedModel) Predict(rows [][]float32, out []int32) ([]int32, error) {
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	if m.retired.Load() {
		return nil, ErrModelRetired
	}
	if err := rowWidthError(m.e.numFeatures, rows); err != nil {
		return nil, err
	}
	res := m.b.Predict(rows, out)
	m.rows.Add(uint64(len(rows)))
	m.batches.Add(1)
	return res, nil
}

// Recalibrate re-times the engine's interleave width on the
// reservoir's sampled traffic; see Batcher.Recalibrate.
func (m *ServedModel) Recalibrate(budget time.Duration) int { return m.b.Recalibrate(budget) }

// EnableDriftDetection arms the model's drift detector; see
// Batcher.EnableDriftDetection. The watcher goroutine it starts is
// owned by the model: Close (and therefore a registry Swap draining
// this model) terminates it.
func (m *ServedModel) EnableDriftDetection(cfg DriftConfig, baseline [][]float32) error {
	return m.b.EnableDriftDetection(cfg, baseline)
}

// DriftStats reports the drift detector's state; see Batcher.DriftStats.
func (m *ServedModel) DriftStats() DriftStats { return m.b.DriftStats() }

// SeedSample pre-populates the traffic reservoir; see Batcher.SeedSample.
func (m *ServedModel) SeedSample(rows [][]float32) int { return m.b.SeedSample(rows) }

// SaveCalibration persists the model's serving state as a
// CalibrationRecord stamped with the model's name, so a registry load
// can later reject the record against any other model even when arenas
// coincide. The record otherwise matches Batcher.SaveCalibration.
func (m *ServedModel) SaveCalibration(w io.Writer) error {
	rec := m.b.servingRecord()
	rec.Model = m.name
	return encodeCalibrationRecord(w, &rec)
}

// WarmStart resumes a previous deployment's serving state from a
// decoded CalibrationRecord: the record's width is
// validated against the engine and installed, the reservoir is seeded
// with the record's sampled rows, and — when the record carries a drift
// policy and no detector is armed yet — the detector is re-armed with
// the record's rows as its baseline. This is the "calibrate-or-load"
// lifecycle step in one call.
func (m *ServedModel) WarmStart(rec *CalibrationRecord) error {
	if rec == nil {
		return errors.New("treeexec: WarmStart on nil calibration record")
	}
	if rec.Model != "" && rec.Model != m.name {
		return fmt.Errorf("treeexec: calibration record was saved for model %q, not %q", rec.Model, m.name)
	}
	if err := m.e.installCalibration(rec); err != nil {
		return err
	}
	m.b.SeedSample(rec.Rows)
	if rec.Drift != nil && !m.b.DriftStats().Enabled {
		if err := m.b.EnableDriftDetection(*rec.Drift, rec.Rows); err != nil {
			return err
		}
	}
	return nil
}

// Close retires the model and drains it: new Predict calls fail with
// ErrModelRetired, in-flight ones complete, then the Batcher's worker
// pool — and with it the drift-watcher goroutine, if one is armed —
// shuts down. Safe to call more than once; every call returns only
// after the drain is complete.
func (m *ServedModel) Close() {
	m.retired.Store(true)
	for m.inflight.Load() != 0 {
		time.Sleep(50 * time.Microsecond)
	}
	m.b.Close()
}

// ModelStats is a point-in-time snapshot of one served model, shaped
// for the serving front-end's status endpoints.
type ModelStats struct {
	Name        string  `json:"name"`
	Variant     string  `json:"variant"`
	ArenaNodes  int     `json:"arena_nodes"`
	ArenaBytes  int     `json:"arena_bytes"`
	NumFeatures int     `json:"num_features"`
	NumClasses  int     `json:"num_classes"`
	Width       int     `json:"width"`
	Kernel      string  `json:"kernel"`
	CalibSource string  `json:"calibration_source"`
	Rows        uint64  `json:"rows"`
	Batches     uint64  `json:"batches"`
	SampleRows  int     `json:"sample_rows"`
	SampleSeen  uint64  `json:"sample_seen"`
	Drift       bool    `json:"drift"`
	DriftDist   float64 `json:"drift_distance"`
	DriftTrigs  uint64  `json:"drift_triggers"`
	Retired     bool    `json:"retired"`
}

// Stats snapshots the model's serving counters and engine mode.
func (m *ServedModel) Stats() ModelStats {
	sampled, seen := m.b.SampleStats()
	d := m.b.DriftStats()
	return ModelStats{
		Name:        m.name,
		Variant:     m.e.variant.String(),
		ArenaNodes:  m.e.ArenaNodes(),
		ArenaBytes:  m.e.ArenaBytes(),
		NumFeatures: m.e.numFeatures,
		NumClasses:  m.e.numClasses,
		Width:       m.e.Interleave(),
		Kernel:      m.e.Kernel(),
		CalibSource: m.e.CalibrationSource(),
		Rows:        m.rows.Load(),
		Batches:     m.batches.Load(),
		SampleRows:  sampled,
		SampleSeen:  seen,
		Drift:       d.Enabled,
		DriftDist:   d.Distance,
		DriftTrigs:  d.Triggers,
		Retired:     m.retired.Load(),
	}
}

// ModelRegistry serves a set of ServedModels by name and hot-swaps them
// without dropping traffic. Each name maps to an atomic pointer slot;
// Swap builds nothing itself — the caller constructs the replacement
// off-line (train, compile, calibrate or WarmStart) — and then flips
// the slot's pointer and drains the old model, reusing the engine's
// single-atomic-mode-install pattern one level up: readers that raced
// the flip either complete against the old model (its drain waits for
// them) or see ErrModelRetired and retry against the new pointer.
type ModelRegistry struct {
	mu    sync.RWMutex
	slots map[string]*atomic.Pointer[ServedModel]
}

// NewModelRegistry returns an empty registry.
func NewModelRegistry() *ModelRegistry {
	return &ModelRegistry{slots: make(map[string]*atomic.Pointer[ServedModel])}
}

// validModelName rejects names that cannot round-trip through the HTTP
// front-end's /v1/models/{name} path element.
func validModelName(name string) error {
	if name == "" {
		return errors.New("treeexec: empty model name")
	}
	for _, r := range name {
		switch r {
		case '/', ':', ' ', '\t', '\n', '\r':
			return fmt.Errorf("treeexec: model name %q contains %q; names must be path-safe", name, r)
		}
	}
	return nil
}

// Register adds a model under its own name. It fails on an invalid
// name, a name already registered, or a model already retired.
func (r *ModelRegistry) Register(m *ServedModel) error {
	if m == nil {
		return errors.New("treeexec: Register on nil model")
	}
	if err := validModelName(m.name); err != nil {
		return err
	}
	if m.retired.Load() {
		return fmt.Errorf("treeexec: model %q is already retired", m.name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.slots[m.name]; ok {
		return fmt.Errorf("treeexec: model %q already registered (use Swap to replace it)", m.name)
	}
	slot := new(atomic.Pointer[ServedModel])
	slot.Store(m)
	r.slots[m.name] = slot
	return nil
}

// Get returns the current model for name, or false when none is
// registered.
func (r *ModelRegistry) Get(name string) (*ServedModel, bool) {
	r.mu.RLock()
	slot, ok := r.slots[name]
	r.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return slot.Load(), true
}

// Names returns the registered model names, sorted.
func (r *ModelRegistry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.slots))
	for n := range r.slots {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Stats snapshots every registered model, sorted by name.
func (r *ModelRegistry) Stats() []ModelStats {
	names := r.Names()
	stats := make([]ModelStats, 0, len(names))
	for _, n := range names {
		if m, ok := r.Get(n); ok {
			stats = append(stats, m.Stats())
		}
	}
	return stats
}

// Swap replaces the model registered under name with nm: the slot's
// pointer flips first (new traffic lands on nm immediately), then the
// old model drains — its in-flight Predict calls complete, its worker
// pool and drift watcher stop — before Swap returns. nm must carry the
// same name and must not be retired; the replacement is expected to
// have been built and calibrated off-line before the call.
func (r *ModelRegistry) Swap(name string, nm *ServedModel) error {
	if nm == nil {
		return errors.New("treeexec: Swap to nil model (use Remove to unregister)")
	}
	if nm.name != name {
		return fmt.Errorf("treeexec: Swap(%q) with a model named %q", name, nm.name)
	}
	if nm.retired.Load() {
		return fmt.Errorf("treeexec: Swap(%q) with an already-retired model", name)
	}
	r.mu.RLock()
	slot, ok := r.slots[name]
	r.mu.RUnlock()
	if !ok {
		return &UnknownModelError{Name: name}
	}
	old := slot.Swap(nm)
	if old != nil && old != nm {
		old.Close()
	}
	return nil
}

// Remove unregisters name and drains its model.
func (r *ModelRegistry) Remove(name string) error {
	r.mu.Lock()
	slot, ok := r.slots[name]
	if ok {
		delete(r.slots, name)
	}
	r.mu.Unlock()
	if !ok {
		return &UnknownModelError{Name: name}
	}
	if m := slot.Load(); m != nil {
		m.Close()
	}
	return nil
}

// Close unregisters and drains every model.
func (r *ModelRegistry) Close() {
	r.mu.Lock()
	slots := r.slots
	r.slots = make(map[string]*atomic.Pointer[ServedModel])
	r.mu.Unlock()
	for _, slot := range slots {
		if m := slot.Load(); m != nil {
			m.Close()
		}
	}
}

// Predict classifies rows through the model currently registered under
// name. A concurrent Swap can retire the fetched model between the
// lookup and the call; Predict absorbs that race by re-fetching and
// retrying on ErrModelRetired, so callers see zero dropped requests
// across a hot swap — only answers from either the old or the new
// model.
func (r *ModelRegistry) Predict(name string, rows [][]float32, out []int32) ([]int32, error) {
	for {
		m, ok := r.Get(name)
		if !ok {
			return nil, &UnknownModelError{Name: name}
		}
		res, err := m.Predict(rows, out)
		if err == ErrModelRetired {
			continue // the slot already points at the replacement
		}
		return res, err
	}
}

// SaveCalibration persists the named model's serving state, stamped
// with the model name (see ServedModel.SaveCalibration).
func (r *ModelRegistry) SaveCalibration(name string, w io.Writer) error {
	m, ok := r.Get(name)
	if !ok {
		return &UnknownModelError{Name: name}
	}
	return m.SaveCalibration(w)
}

// LoadCalibration warm-starts the named model from a persisted record:
// decode, route the record to the model, validate, install, seed, and
// (when the record carries a drift policy) re-arm detection — see
// ServedModel.WarmStart. Beyond the engine-level fingerprint check it
// rejects records that demonstrably belong to a *different* registered
// model: a record stamped with another model's name, or an unstamped
// record whose arena fingerprint matches another registered model but
// not this one — the cross-model mix-up a fleet of similar forests
// makes easy.
func (r *ModelRegistry) LoadCalibration(name string, rd io.Reader) (*CalibrationRecord, error) {
	m, ok := r.Get(name)
	if !ok {
		return nil, &UnknownModelError{Name: name}
	}
	rec, err := decodeCalibrationRecord(rd)
	if err != nil {
		return nil, err
	}
	if rec.Model != "" && rec.Model != name {
		return nil, fmt.Errorf("treeexec: calibration record was saved for model %q, not %q", rec.Model, name)
	}
	if rec.Fingerprint != m.e.Fingerprint() {
		if other := r.fingerprintOwner(rec.Fingerprint, name); other != "" {
			return nil, fmt.Errorf("treeexec: calibration record's arena fingerprint matches registered model %q, not %q", other, name)
		}
	}
	if err := m.WarmStart(rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// fingerprintOwner returns the name of a registered model other than
// skip whose engine matches fp, or "".
func (r *ModelRegistry) fingerprintOwner(fp ArenaFingerprint, skip string) string {
	for _, n := range r.Names() {
		if n == skip {
			continue
		}
		if m, ok := r.Get(n); ok && m.e.Fingerprint() == fp {
			return n
		}
	}
	return ""
}
