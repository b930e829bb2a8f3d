package bench

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"flint/internal/treeexec"
)

func trendReport(rows ...BatchBenchRow) *BatchBenchReport {
	return &BatchBenchReport{Results: rows}
}

func TestTrendDiffAlignment(t *testing.T) {
	oldRep := trendReport(
		BatchBenchRow{Dataset: "magic", Variant: "flat-flint", RowsPerSec: 50000},
		BatchBenchRow{Dataset: "magic", Variant: "flat-compact", RowsPerSec: 60000},
		BatchBenchRow{Dataset: "wine", Variant: "flint", RowsPerSec: 1000},
	)
	newRep := trendReport(
		BatchBenchRow{Dataset: "magic", Variant: "flat-flint", RowsPerSec: 55000},
		BatchBenchRow{Dataset: "magic", Variant: "flat-compact", RowsPerSec: 54000},
		BatchBenchRow{Dataset: "eye", Variant: "flat-compact", RowsPerSec: 42000},
	)
	deltas := TrendDiff(oldRep, newRep)
	if len(deltas) != 4 {
		t.Fatalf("%d deltas, want 4: %+v", len(deltas), deltas)
	}
	// New-report order first, then old-only cells.
	if deltas[0].Dataset != "magic" || deltas[0].Variant != "flat-flint" ||
		deltas[0].Old != 50000 || deltas[0].New != 55000 {
		t.Errorf("delta[0] = %+v", deltas[0])
	}
	if got := deltas[0].Pct(); got < 9.9 || got > 10.1 {
		t.Errorf("delta[0].Pct() = %v, want ~10", got)
	}
	if got := deltas[1].Pct(); got > -9.9 || got < -10.1 {
		t.Errorf("delta[1].Pct() = %v, want ~-10", got)
	}
	if deltas[2].Dataset != "eye" || deltas[2].HasOld || !deltas[2].HasNew || deltas[2].New != 42000 {
		t.Errorf("new-only cell = %+v", deltas[2])
	}
	if deltas[3].Dataset != "wine" || !deltas[3].HasOld || deltas[3].HasNew || deltas[3].Old != 1000 {
		t.Errorf("dropped cell = %+v", deltas[3])
	}
	if !deltas[0].HasOld || !deltas[0].HasNew {
		t.Errorf("both-sides cell lost presence: %+v", deltas[0])
	}

	var buf bytes.Buffer
	if err := WriteTrendDiff(&buf, deltas); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"+10.0%", "-10.0%", "(new)", "(dropped)", "dataset"} {
		if !strings.Contains(out, want) {
			t.Errorf("trend table missing %q:\n%s", want, out)
		}
	}
}

// TestTrendDiffZeroMeasurements pins the presence fix: a cell that
// measured 0 rows/s exists in its report and must render as the number
// 0 — not be conflated with an absent cell and mislabeled "(new)" or
// "(dropped)".
func TestTrendDiffZeroMeasurements(t *testing.T) {
	for _, tc := range []struct {
		name     string
		oldRows  []BatchBenchRow
		newRows  []BatchBenchRow
		want     TrendDelta
		wantMark string // substring expected in the rendered row
		banMarks []string
	}{
		{
			name:     "zero in new report is not (dropped)",
			oldRows:  []BatchBenchRow{{Dataset: "magic", Variant: "flint", RowsPerSec: 5000}},
			newRows:  []BatchBenchRow{{Dataset: "magic", Variant: "flint", RowsPerSec: 0}},
			want:     TrendDelta{Dataset: "magic", Variant: "flint", Old: 5000, New: 0, HasOld: true, HasNew: true},
			wantMark: "-100.0%",
			banMarks: []string{"(dropped)", "(new)"},
		},
		{
			name:     "zero in old report is not (new)",
			oldRows:  []BatchBenchRow{{Dataset: "magic", Variant: "flint", RowsPerSec: 0}},
			newRows:  []BatchBenchRow{{Dataset: "magic", Variant: "flint", RowsPerSec: 5000}},
			want:     TrendDelta{Dataset: "magic", Variant: "flint", Old: 0, New: 5000, HasOld: true, HasNew: true},
			wantMark: "5000",
			banMarks: []string{"(new)", "(dropped)", "%"},
		},
		{
			name:     "zero on both sides renders both zeros",
			oldRows:  []BatchBenchRow{{Dataset: "magic", Variant: "flint", RowsPerSec: 0}},
			newRows:  []BatchBenchRow{{Dataset: "magic", Variant: "flint", RowsPerSec: 0}},
			want:     TrendDelta{Dataset: "magic", Variant: "flint", HasOld: true, HasNew: true},
			wantMark: "0",
			banMarks: []string{"(new)", "(dropped)", "%"},
		},
		{
			name:     "absent cell still marked (new)",
			oldRows:  nil,
			newRows:  []BatchBenchRow{{Dataset: "magic", Variant: "flint", RowsPerSec: 0}},
			want:     TrendDelta{Dataset: "magic", Variant: "flint", HasNew: true},
			wantMark: "(new)",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			deltas := TrendDiff(trendReport(tc.oldRows...), trendReport(tc.newRows...))
			if len(deltas) != 1 {
				t.Fatalf("%d deltas, want 1", len(deltas))
			}
			if deltas[0] != tc.want {
				t.Errorf("delta = %+v, want %+v", deltas[0], tc.want)
			}
			var buf bytes.Buffer
			if err := WriteTrendDiff(&buf, deltas); err != nil {
				t.Fatal(err)
			}
			body := strings.SplitN(buf.String(), "\n", 2)[1] // skip the header
			if !strings.Contains(body, tc.wantMark) {
				t.Errorf("rendered row missing %q:\n%s", tc.wantMark, body)
			}
			for _, ban := range tc.banMarks {
				if strings.Contains(body, ban) {
					t.Errorf("rendered row wrongly contains %q:\n%s", ban, body)
				}
			}
		})
	}
}

func TestReadBatchBenchJSONRoundTrip(t *testing.T) {
	rep := trendReport(BatchBenchRow{
		Dataset: "gas", Variant: "flat-compact", RowsPerSec: 12345,
		ArenaNodes: 10, ArenaBytes: 160, PrunedFeatures: 37, NumFeatures: 128,
		Ladder: []treeexec.ModeTiming{
			{Width: 1, Kernel: "fused", RowsPerSec: 12345, Winner: true},
		},
	})
	rep.Config.Rows = 600
	var buf bytes.Buffer
	if err := WriteBatchBenchJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBatchBenchJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 1 || !reflect.DeepEqual(back.Results[0], rep.Results[0]) || back.Config.Rows != 600 {
		t.Errorf("round trip = %+v", back)
	}
	if _, err := ReadBatchBenchJSON(strings.NewReader("{not json")); err == nil {
		t.Error("malformed report accepted")
	}
}
