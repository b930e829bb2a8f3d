package bench

import (
	"bytes"
	"strings"
	"testing"

	"flint/internal/treeexec"
)

// TestWriteLadderMarkdown pins the job-summary table's shape: one row
// per ladder candidate with the winner starred, ladder-less rows
// contributing nothing,
// and a ladder-less report degrading to a note rather than a header
// with no body.
func TestWriteLadderMarkdown(t *testing.T) {
	rep := trendReport(
		BatchBenchRow{Dataset: "magic", Variant: "flint", RowsPerSec: 100},
		BatchBenchRow{
			Dataset: "magic", Variant: "flat-flint", RowsPerSec: 900,
			Ladder: []treeexec.ModeTiming{
				{Width: 1, Kernel: "branchy", RowsPerSec: 450},
				{Width: 8, Kernel: "branchy", RowsPerSec: 900, Winner: true},
			},
		},
		BatchBenchRow{
			Dataset: "magic", Variant: "flat-compact", RowsPerSec: 1200,
			Ladder: []treeexec.ModeTiming{
				{Width: 1, Kernel: "fused", RowsPerSec: 1200, Winner: true},
			},
		},
	)
	var buf bytes.Buffer
	if err := WriteLadderMarkdown(&buf, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"| workload | variant | mode | rows/s | winner |",
		"| magic | flat-flint | x1 branchy | 450 |  |",
		"| magic | flat-flint | x8 branchy | 900 | ★ |",
		"| magic | flat-compact | x1 fused | 1200 | ★ |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "★"); got != 2 {
		t.Errorf("%d winners starred, want 2:\n%s", got, out)
	}
	if strings.Contains(out, "| magic | flint |") {
		t.Errorf("ladder-less baseline row rendered:\n%s", out)
	}

	buf.Reset()
	if err := WriteLadderMarkdown(&buf, trendReport(
		BatchBenchRow{Dataset: "wine", Variant: "flat-compact", RowsPerSec: 1},
	)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no calibration ladders") {
		t.Errorf("ladder-less report did not degrade to the note:\n%s", buf.String())
	}
}
