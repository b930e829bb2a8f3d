package treeexec

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Calibration persistence closes the serving lifecycle: a deployment
// samples its traffic (Batcher reservoir), recalibrates on it
// (Batcher.Recalibrate), and persists the result (SaveCalibration) so
// the next process — or the same one after a restart — warm-starts from
// measured gates, width and traffic (LoadCalibration + SeedSample)
// instead of re-paying the synthetic calibration ladder on rows that
// only approximate the served distribution.

// ArenaFingerprint identifies the compiled arena a calibration record
// was measured on: the comparison variant, the inner-node count and the
// input dimensionality (plus the class count, which pins the vote
// shape). LoadCalibration rejects a record whose fingerprint does not
// match the loading engine — a width measured on one arena is
// meaningless on another.
type ArenaFingerprint struct {
	Variant  string `json:"variant"`
	Nodes    int    `json:"nodes"`
	Features int    `json:"features"`
	Classes  int    `json:"classes"`
}

// Fingerprint returns this engine's arena fingerprint.
func (e *FlatForestEngine) Fingerprint() ArenaFingerprint {
	return ArenaFingerprint{
		Variant:  e.variant.String(),
		Nodes:    e.ArenaNodes(),
		Features: e.numFeatures,
		Classes:  e.numClasses,
	}
}

// CalibrationRecord is the persisted calibration state of one engine:
// the arena fingerprint it was measured on, the host-wide interleave
// gate table, the engine's chosen width and the walk it names (Kernel:
// "fused" on the compact arena, "branchy" on the AoS arenas), and
// optionally a sample of the traffic that width was measured against
// (a Batcher.SampleSnapshot), so the next deployment can seed its
// reservoir with real rows. Records from before the compact arena had
// one walk may name a retired compact mode — kernel "" (before the
// kernel field existed), "branchy", "simd-quant" or "simd", a width of
// 2, 4, 8 or 16, or a simd_refill — and still load (see
// LoadCalibration); fields the record type no longer has, such as
// simd_refill and the compact_* gate keys, are ignored on decode.
// Records written by a Batcher with drift detection armed additionally
// carry the detection policy (Drift), so the redeployment that seeds
// its reservoir from Rows can re-arm the same detector with
// EnableDriftDetection(*rec.Drift, rec.Rows); records from before the
// drift axis existed (or from engines persisted without a Batcher)
// carry no field and load with Drift nil.
// Records saved through a ModelRegistry additionally carry the model
// name they belong to (Model), so a registry load can reject a record
// that was saved for a different registered model even when the two
// arenas happen to share a fingerprint; engine- and Batcher-level saves
// leave the field empty and load anywhere the fingerprint matches.
type CalibrationRecord struct {
	Model       string           `json:"model,omitempty"`
	Fingerprint ArenaFingerprint `json:"fingerprint"`
	Gates       InterleaveGates  `json:"gates"`
	Width       int              `json:"width"`
	Kernel      string           `json:"kernel,omitempty"`
	Rows        [][]float32      `json:"rows,omitempty"`
	Drift       *DriftConfig     `json:"drift,omitempty"`
}

// finiteRow reports whether every value in the row is representable in
// JSON (no NaN or infinity).
func finiteRow(row []float32) bool {
	for _, v := range row {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// SaveCalibration writes the engine's calibration state as an indented
// JSON CalibrationRecord: fingerprint, the current host-wide gate table
// (CurrentInterleaveGates), the engine's current interleave width and
// walk, and the given sample rows — pass a Batcher.SampleSnapshot to persist
// measured traffic, or nil to persist gates and width alone. Rows whose
// length is not the engine's feature width, or that contain non-finite
// values (JSON cannot carry NaN or infinities), are skipped.
func (e *FlatForestEngine) SaveCalibration(w io.Writer, rows [][]float32) error {
	rec := e.calibrationRecord(rows)
	return encodeCalibrationRecord(w, &rec)
}

// encodeCalibrationRecord writes a record in the indented-JSON form all
// three save paths (engine, Batcher, ServedModel) share.
func encodeCalibrationRecord(w io.Writer, rec *CalibrationRecord) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rec)
}

// calibrationRecord builds the engine's persistable state; the filtered
// row handling is shared between engine- and Batcher-level saves.
func (e *FlatForestEngine) calibrationRecord(rows [][]float32) CalibrationRecord {
	rec := CalibrationRecord{
		Fingerprint: e.Fingerprint(),
		Gates:       CurrentInterleaveGates(),
		Width:       e.Interleave(),
		Kernel:      e.Kernel(),
	}
	for _, r := range rows {
		if len(r) == e.numFeatures && finiteRow(r) {
			rec.Rows = append(rec.Rows, r)
		}
	}
	return rec
}

// SaveCalibration persists the Batcher's full serving state: the
// engine's calibration record, the reservoir's current traffic sample,
// and — when drift detection is armed — the detection policy, so the
// next deployment can LoadCalibration, SeedSample(rec.Rows) and
// EnableDriftDetection(*rec.Drift, rec.Rows) to resume the whole
// adaptive loop where this one left off.
func (b *Batcher) SaveCalibration(w io.Writer) error {
	rec := b.servingRecord()
	return encodeCalibrationRecord(w, &rec)
}

// servingRecord assembles the Batcher's full persistable serving state
// (engine calibration + traffic sample + drift policy); shared between
// the Batcher-level save and the registry-level save, which stamps the
// owning model's name on top.
func (b *Batcher) servingRecord() CalibrationRecord {
	rec := b.e.calibrationRecord(b.SampleSnapshot())
	if d := b.drift.Load(); d != nil {
		cfg := d.cfg // the resolved configuration, defaults applied
		rec.Drift = &cfg
	}
	return rec
}

// validGates reports whether a persisted gate table is structurally
// sane: no negative thresholds (math.MaxInt — "width disabled" — is
// valid).
func validGates(g InterleaveGates) bool {
	for _, v := range []int{g.Min2, g.Min4, g.Min8} {
		if v < 0 {
			return false
		}
	}
	return true
}

// LoadCalibration reads a CalibrationRecord written by SaveCalibration,
// validates it against this engine's arena fingerprint, and installs
// the persisted width on the engine (one atomic store, so loading while
// a Batcher serves is safe). The record is returned so the caller can
// seed a Batcher's reservoir with its Rows (Batcher.SeedSample) and —
// when the record was measured on this same hardware — install its
// gate table host-wide with SetInterleaveGates(rec.Gates). That last
// step is deliberately left to the caller: installing automatically
// would let a record carrying another host's (or the never-calibrated
// default) table silently clobber gates this process already measured.
//
// A record measured on a different arena (mismatched fingerprint), an
// unsupported width, an unknown kernel name, a kernel other than
// branchy (or width 16) on an AoS arena, or a malformed gate table is
// rejected without installing anything. A compact record naming a
// retired mode — any kernel but "fused", or any width but 1 — loads as
// the compact arena's one walk at width 1, and CalibrationSource
// reports "persisted-degraded": the record's evidence was about a walk
// the engine no longer has.
func (e *FlatForestEngine) LoadCalibration(r io.Reader) (*CalibrationRecord, error) {
	rec, err := decodeCalibrationRecord(r)
	if err != nil {
		return nil, err
	}
	if err := e.installCalibration(rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// decodeCalibrationRecord reads a CalibrationRecord without validating
// it against any engine — the registry load path decodes first so it
// can route the record's fingerprint check across every registered
// model before installing anything.
func decodeCalibrationRecord(r io.Reader) (*CalibrationRecord, error) {
	var rec CalibrationRecord
	if err := json.NewDecoder(r).Decode(&rec); err != nil {
		return nil, fmt.Errorf("treeexec: malformed calibration record: %w", err)
	}
	return &rec, nil
}

// installCalibration validates a decoded record against this engine's
// arena and installs its width — the second half of LoadCalibration.
func (e *FlatForestEngine) installCalibration(rec *CalibrationRecord) error {
	if got, want := rec.Fingerprint, e.Fingerprint(); got != want {
		return fmt.Errorf("treeexec: calibration fingerprint %+v does not match engine arena %+v", got, want)
	}
	switch rec.Width {
	case 1, 2, 4, 8, 16:
	default:
		return fmt.Errorf("treeexec: persisted interleave width %d is not a supported width (1, 2, 4, 8, 16)", rec.Width)
	}
	switch rec.Kernel {
	case "", "branchy", "fused", "simd-quant", "simd":
	default:
		return fmt.Errorf("treeexec: persisted record: unknown kernel %q (branchy|fused|simd-quant|simd)", rec.Kernel)
	}
	if e.variant != FlatCompact {
		// Only the compact arena ever ran a kernel other than branchy,
		// and only its retired SIMD walk ran width 16.
		if rec.Kernel != "" && rec.Kernel != "branchy" {
			return fmt.Errorf("treeexec: persisted %q kernel is only valid for the compact arena, engine is %v", rec.Kernel, e.variant)
		}
		if rec.Width == 16 {
			return fmt.Errorf("treeexec: persisted width 16 is only valid for the compact arena, engine is %v", e.variant)
		}
	}
	if !validGates(rec.Gates) {
		return fmt.Errorf("treeexec: persisted gate table has negative thresholds: %+v", rec.Gates)
	}
	if (rec.Gates == InterleaveGates{}) {
		// A missing or zeroed gates field would, if ever installed,
		// disable interleaving for every engine built afterwards; no
		// SaveCalibration output ever carries one (disabled widths
		// persist as math.MaxInt, not 0).
		return fmt.Errorf("treeexec: persisted record carries no gate table")
	}
	if rec.Drift != nil {
		if err := rec.Drift.validate(); err != nil {
			return fmt.Errorf("treeexec: persisted drift config: %w", err)
		}
	}
	source, width := int32(calibSourcePersisted), rec.Width
	if e.variant == FlatCompact {
		if rec.Kernel != "fused" || width != 1 {
			source = calibSourceDegraded
		}
		width = 1
	}
	e.width.Store(int32(width))
	e.calibSource.Store(source)
	return nil
}

// WriteGatesJSON persists a host-wide gate table alone (no engine
// fingerprint) — the form command-line tools use to carry Calibrate
// results across process runs on the same machine.
func WriteGatesJSON(w io.Writer, g InterleaveGates) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&g)
}

// ReadGatesJSON reads a gate table written by WriteGatesJSON, rejecting
// structurally invalid tables. The caller decides whether to install it
// (SetInterleaveGates). Decoding is strict — unknown fields and the
// all-zero table are rejected — so pointing a tool's gates flag at some
// other JSON document errors out instead of silently installing a
// zero-value table that disables interleaving process-wide (Calibrate
// never emits zeros: a disabled width is math.MaxInt, not 0). A gate
// file from before the compact arena had one walk carries compact_*
// keys and is rejected the same way, with an error naming the key;
// Calibrate writes a new one.
func ReadGatesJSON(r io.Reader) (InterleaveGates, error) {
	var g InterleaveGates
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return InterleaveGates{}, fmt.Errorf("treeexec: malformed gate table: %w", err)
	}
	if !validGates(g) {
		return InterleaveGates{}, fmt.Errorf("treeexec: gate table has negative thresholds: %+v", g)
	}
	if (g == InterleaveGates{}) {
		return InterleaveGates{}, fmt.Errorf("treeexec: gate table is all zeros — not a WriteGatesJSON document")
	}
	return g, nil
}
