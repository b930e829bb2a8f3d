package treeexec

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestSaveLoadCalibrationRoundTrip persists an engine's calibration —
// a gate table with both measured and disabled (MaxInt) thresholds, a
// forced width, and sampled rows — and loads it into a second engine
// compiled from the same forest: gates and width must round-trip
// bit-identically, the rows must survive exactly (float32 JSON encoding
// is shortest-round-trip), and the loaded engine must report the
// persisted source.
func TestSaveLoadCalibrationRoundTrip(t *testing.T) {
	defer SetInterleaveGates(DefaultInterleaveGates())
	f, d := trainedForest(t, "magic", 6, 5)
	e, err := NewFlat(f, FlatFLInt)
	if err != nil {
		t.Fatal(err)
	}
	gates := InterleaveGates{Min2: 123456, Min4: 4 << 20, Min8: math.MaxInt}
	SetInterleaveGates(gates)
	e.SetInterleave(4)

	rows := d.Features[:7]
	var buf bytes.Buffer
	if err := e.SaveCalibration(&buf, rows); err != nil {
		t.Fatal(err)
	}

	// A different process: defaults installed, fresh engine, same arena.
	SetInterleaveGates(DefaultInterleaveGates())
	e2, err := NewFlat(f, FlatFLInt)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := e2.LoadCalibration(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Gates != gates {
		t.Errorf("gates did not round-trip: %+v != %+v", rec.Gates, gates)
	}
	// Installing the table host-wide is the caller's explicit decision —
	// LoadCalibration must not clobber this process's gates on its own
	// (the record could carry another host's, or never-calibrated
	// default, thresholds).
	if CurrentInterleaveGates() == gates {
		t.Errorf("LoadCalibration installed the gate table implicitly")
	}
	SetInterleaveGates(rec.Gates)
	if CurrentInterleaveGates() != gates {
		t.Errorf("explicit install of the loaded gates failed")
	}
	if rec.Width != 4 || e2.Interleave() != 4 {
		t.Errorf("width = %d (engine %d), want 4", rec.Width, e2.Interleave())
	}
	if e2.CalibrationSource() != "persisted" {
		t.Errorf("calibration source = %q, want \"persisted\"", e2.CalibrationSource())
	}
	if len(rec.Rows) != len(rows) {
		t.Fatalf("%d rows round-tripped, want %d", len(rec.Rows), len(rows))
	}
	for i, r := range rec.Rows {
		for j, v := range r {
			if math.Float32bits(v) != math.Float32bits(rows[i][j]) {
				t.Fatalf("row %d[%d] = %x, want bit-identical %x",
					i, j, math.Float32bits(v), math.Float32bits(rows[i][j]))
			}
		}
	}
}

// TestLoadCalibrationRejects exercises every rejection path: arena
// fingerprint mismatches (different forest, different variant of the
// same forest), unsupported widths, negative gates and malformed JSON —
// none of which may install anything.
func TestLoadCalibrationRejects(t *testing.T) {
	defer SetInterleaveGates(DefaultInterleaveGates())
	f, _ := trainedForest(t, "magic", 6, 5)
	other, _ := trainedForest(t, "wine", 5, 4)

	e, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	var rec bytes.Buffer
	if err := e.SaveCalibration(&rec, nil); err != nil {
		t.Fatal(err)
	}

	load := func(t *testing.T, target *FlatForestEngine, doc string) error {
		t.Helper()
		before := CurrentInterleaveGates()
		width := target.Interleave()
		_, err := target.LoadCalibration(strings.NewReader(doc))
		if err != nil {
			if CurrentInterleaveGates() != before {
				t.Errorf("rejected load still installed gates")
			}
			if target.Interleave() != width {
				t.Errorf("rejected load still changed the width")
			}
		}
		return err
	}

	oe, err := NewFlat(other, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	if err := load(t, oe, rec.String()); err == nil {
		t.Error("record for another forest's arena accepted")
	}
	fe, err := NewFlat(f, FlatFLInt)
	if err != nil {
		t.Fatal(err)
	}
	if err := load(t, fe, rec.String()); err == nil {
		t.Error("record for another variant of the same forest accepted")
	}

	badWidth := strings.Replace(rec.String(), `"width": `+itoa(e.Interleave()), `"width": 3`, 1)
	if err := load(t, e, badWidth); err == nil {
		t.Error("unsupported width 3 accepted")
	}
	badGates := strings.Replace(rec.String(), `"min2": `, `"min2": -`, 1)
	if err := load(t, e, badGates); err == nil {
		t.Error("negative gate threshold accepted")
	}
	// A record with a missing gates field decodes as the all-zero table,
	// which would silently disable interleaving for every engine built
	// afterwards; it must be rejected like ReadGatesJSON rejects it.
	var dropped struct {
		Fingerprint ArenaFingerprint `json:"fingerprint"`
		Width       int              `json:"width"`
	}
	if err := json.Unmarshal([]byte(rec.String()), &dropped); err != nil {
		t.Fatal(err)
	}
	noGates, err := json.Marshal(dropped)
	if err != nil {
		t.Fatal(err)
	}
	if err := load(t, e, string(noGates)); err == nil {
		t.Error("record without a gate table accepted")
	}
	if err := load(t, e, "{broken"); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func itoa(v int) string {
	switch v {
	case 1:
		return "1"
	case 2:
		return "2"
	case 4:
		return "4"
	}
	return "8"
}

// legacyRecord renders a calibration record for fp in the shape older
// code wrote: the gate table with its compact_* keys, then the mode
// fields.
func legacyRecord(t *testing.T, fp ArenaFingerprint, mode string) string {
	t.Helper()
	fpj, err := json.Marshal(fp)
	if err != nil {
		t.Fatal(err)
	}
	return `{"fingerprint": ` + string(fpj) + `, "gates": {"min2": 1048576, "min4": 4194304, "min8": 16777216,
		"compact_min2": 1048576, "compact_min4": 4194304, "compact_min8": 16777216,
		"compact_fused_min": 1, "compact_simd_min": 9223372036854775807,
		"compact_simdquant_min": 9223372036854775807, "compact_simd16_min": 9223372036854775807}` + mode + `}`
}

// loadRecord loads a calibration record document into e.
func loadRecord(t *testing.T, e *FlatForestEngine, doc string) error {
	t.Helper()
	_, err := e.LoadCalibration(strings.NewReader(doc))
	return err
}

// TestCalibrationKernelRoundTrip covers the walk named by a persisted
// record. A compact engine saves and reloads "fused" at width 1 as
// "persisted". Records from before the compact arena had one walk load
// as fused x1 with source "persisted-degraded": every fixture below
// carries the retired compact_* gate keys, and each names a retired
// kernel ("" — the field absent — "branchy", "simd-quant" or "simd")
// or a retired width (2, 4 or 8); width 16 has its own test
// (TestCalibrationSIMD16RoundTrip). An unknown kernel is rejected; so
// is a non-branchy kernel on an AoS engine, whose legacy branchy
// records still load at their width.
func TestCalibrationKernelRoundTrip(t *testing.T) {
	f, _ := trainedForest(t, "magic", 6, 5)
	e, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.SaveCalibration(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"kernel": "fused"`) || !strings.Contains(buf.String(), `"width": 1`) {
		t.Fatalf("compact record does not name fused x1: %s", buf.String())
	}
	e2, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := e2.LoadCalibration(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kernel != "fused" || e2.Interleave() != 1 || e2.CalibrationSource() != "persisted" {
		t.Errorf("fused record loaded (x%d, %q), want (x1, persisted)", e2.Interleave(), e2.CalibrationSource())
	}

	for _, tc := range []struct{ mode, source string }{
		{`, "width": 1, "kernel": "fused"`, "persisted"},
		{`, "width": 1`, "persisted-degraded"},
		{`, "width": 1, "kernel": ""`, "persisted-degraded"},
		{`, "width": 1, "kernel": "branchy"`, "persisted-degraded"},
		{`, "width": 8, "kernel": "branchy"`, "persisted-degraded"},
		{`, "width": 1, "kernel": "simd-quant"`, "persisted-degraded"},
		{`, "width": 4, "kernel": "simd"`, "persisted-degraded"},
		{`, "width": 2, "kernel": "fused"`, "persisted-degraded"},
		{`, "width": 4, "kernel": "fused"`, "persisted-degraded"},
		{`, "width": 8, "kernel": "fused"`, "persisted-degraded"},
	} {
		fresh, err := NewFlat(f, FlatCompact)
		if err != nil {
			t.Fatal(err)
		}
		if err := loadRecord(t, fresh, legacyRecord(t, fresh.Fingerprint(), tc.mode)); err != nil {
			t.Errorf("record%s rejected: %v", tc.mode, err)
			continue
		}
		if fresh.Interleave() != 1 || fresh.CalibrationSource() != tc.source {
			t.Errorf("record%s loaded (x%d, %q), want (x1, %q)", tc.mode, fresh.Interleave(), fresh.CalibrationSource(), tc.source)
		}
		if got := fresh.PredictBatch([][]float32{make([]float32, f.NumFeatures)}, nil, 1, 0); got[0] != f.Predict(make([]float32, f.NumFeatures)) {
			t.Errorf("record%s: engine mispredicts after the load", tc.mode)
		}
	}

	before := e2.CalibrationSource()
	if err := loadRecord(t, e2, legacyRecord(t, e2.Fingerprint(), `, "width": 1, "kernel": "turbo"`)); err == nil {
		t.Error("unknown kernel name accepted")
	}
	if e2.CalibrationSource() != before {
		t.Error("rejected load still changed the calibration source")
	}

	// AoS engines: a legacy branchy record loads at its width; a
	// compact-only kernel is rejected without installing.
	fe, err := NewFlat(f, FlatFLInt)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{`, "width": 4`, `, "width": 4, "kernel": "branchy"`} {
		if err := loadRecord(t, fe, legacyRecord(t, fe.Fingerprint(), mode)); err != nil {
			t.Fatalf("AoS record%s rejected: %v", mode, err)
		}
		if fe.Interleave() != 4 || fe.CalibrationSource() != "persisted" || fe.Kernel() != "branchy" {
			t.Errorf("AoS record%s loaded (x%d, %q, %s), want (x4, persisted, branchy)",
				mode, fe.Interleave(), fe.CalibrationSource(), fe.Kernel())
		}
	}
	fe.SetInterleave(2)
	for _, mode := range []string{
		`, "width": 1, "kernel": "fused"`,
		`, "width": 8, "kernel": "simd-quant"`,
		`, "width": 8, "kernel": "simd"`,
	} {
		if err := loadRecord(t, fe, legacyRecord(t, fe.Fingerprint(), mode)); err == nil {
			t.Errorf("AoS record%s accepted", mode)
		}
		if fe.Interleave() != 2 || fe.CalibrationSource() != "manual" {
			t.Errorf("rejected AoS record%s still changed the engine to (x%d, %q)", mode, fe.Interleave(), fe.CalibrationSource())
		}
	}
}

// TestCalibrationSIMD16RoundTrip covers the width-16/refill axes of
// records written by the retired dual-group SIMD walk. On the compact
// arena a width-16 record loads as fused x1 with source
// "persisted-degraded" whatever kernel it names, its simd_refill —
// valid or not — is ignored, and the engine's next save writes fused x1
// without the retired field. On an AoS arena, which never ran width 16,
// every width-16 record is rejected without installing anything.
func TestCalibrationSIMD16RoundTrip(t *testing.T) {
	f, _ := trainedForest(t, "magic", 6, 5)
	for _, mode := range []string{
		`, "width": 16, "kernel": "simd", "simd_refill": 6`,
		`, "width": 16, "kernel": "simd", "simd_refill": 0`,
		`, "width": 16, "kernel": "simd", "simd_refill": 17`,
		`, "width": 16, "kernel": "simd-quant"`,
		`, "width": 16, "kernel": "branchy", "simd_refill": 3`,
		`, "width": 16`,
	} {
		e, err := NewFlat(f, FlatCompact)
		if err != nil {
			t.Fatal(err)
		}
		if err := loadRecord(t, e, legacyRecord(t, e.Fingerprint(), mode)); err != nil {
			t.Errorf("compact record%s rejected: %v", mode, err)
			continue
		}
		if e.Interleave() != 1 || e.Kernel() != "fused" || e.CalibrationSource() != "persisted-degraded" {
			t.Errorf("compact record%s loaded (x%d, %s, %q), want (x1, fused, persisted-degraded)",
				mode, e.Interleave(), e.Kernel(), e.CalibrationSource())
		}
		var buf bytes.Buffer
		if err := e.SaveCalibration(&buf, nil); err != nil {
			t.Fatal(err)
		}
		if s := buf.String(); strings.Contains(s, "simd_refill") || !strings.Contains(s, `"width": 1`) ||
			!strings.Contains(s, `"kernel": "fused"`) {
			t.Errorf("compact record%s re-saved as %s, want fused x1 without simd_refill", mode, s)
		}
	}

	fe, err := NewFlat(f, FlatFLInt)
	if err != nil {
		t.Fatal(err)
	}
	fe.SetInterleave(2)
	for _, mode := range []string{
		`, "width": 16, "kernel": "simd", "simd_refill": 6`,
		`, "width": 16, "kernel": "branchy"`,
		`, "width": 16`,
	} {
		if err := loadRecord(t, fe, legacyRecord(t, fe.Fingerprint(), mode)); err == nil {
			t.Errorf("AoS record%s accepted", mode)
		}
		if fe.Interleave() != 2 || fe.CalibrationSource() != "manual" {
			t.Errorf("rejected AoS record%s still changed the engine to (x%d, %q)", mode, fe.Interleave(), fe.CalibrationSource())
		}
	}
}

// TestSaveCalibrationFiltersRows pins the save-side row filter: rows of
// the wrong width and rows carrying NaN/Inf (unrepresentable in JSON)
// are dropped instead of failing the whole save.
func TestSaveCalibrationFiltersRows(t *testing.T) {
	f, d := trainedForest(t, "wine", 4, 3)
	e, err := NewFlat(f, FlatFLInt)
	if err != nil {
		t.Fatal(err)
	}
	nan := append([]float32(nil), d.Features[0]...)
	nan[0] = float32(math.NaN())
	inf := append([]float32(nil), d.Features[1]...)
	inf[1] = float32(math.Inf(1))
	rows := [][]float32{d.Features[2], {1, 2}, nan, inf, d.Features[3]}

	var buf bytes.Buffer
	if err := e.SaveCalibration(&buf, rows); err != nil {
		t.Fatal(err)
	}
	rec, err := e.LoadCalibration(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Rows) != 2 {
		t.Fatalf("%d rows persisted, want 2 (malformed and non-finite dropped)", len(rec.Rows))
	}
}

// TestGatesJSONRoundTrip covers the host-wide gates-only persistence
// the CLI uses, including MaxInt (disabled-width) thresholds and the
// rejection of negative, foreign and legacy tables.
func TestGatesJSONRoundTrip(t *testing.T) {
	g := InterleaveGates{Min2: 1 << 20, Min4: math.MaxInt, Min8: math.MaxInt}
	var buf bytes.Buffer
	if err := WriteGatesJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGatesJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back != g {
		t.Errorf("gates round trip = %+v, want %+v", back, g)
	}
	if _, err := ReadGatesJSON(strings.NewReader(`{"min2": -5}`)); err == nil {
		t.Error("negative gate table accepted")
	}
	if _, err := ReadGatesJSON(strings.NewReader("nope")); err == nil {
		t.Error("malformed gate table accepted")
	}
	// Wrong-file safety: another tool's JSON (unknown fields) or an
	// empty object (all-zero table, which would silently disable
	// interleaving everywhere) must be rejected, not installed.
	if _, err := ReadGatesJSON(strings.NewReader(`{"config": {"rows": 600}}`)); err == nil {
		t.Error("foreign JSON document accepted as a gate table")
	}
	if _, err := ReadGatesJSON(strings.NewReader(`{}`)); err == nil {
		t.Error("all-zero gate table accepted")
	}
	// A gate file from before the compact arena had one walk carries
	// compact_* keys; decoding stays strict and names the retired key.
	legacy := `{"min2": 1048576, "min4": 4194304, "min8": 16777216, "compact_min2": 1048576}`
	if _, err := ReadGatesJSON(strings.NewReader(legacy)); err == nil || !strings.Contains(err.Error(), "compact_min2") {
		t.Errorf("legacy gate file: err = %v, want a rejection naming compact_min2", err)
	}
}
