package bench

import (
	"fmt"
	"io"
)

// WriteLadderMarkdown renders every calibration ladder in a
// BENCH_batch.json report as one GitHub-flavored markdown table — the
// per-candidate (width, walk) timings next to the winner each engine
// installed — for the CI job summary, where losing widths' rows/s stay
// visible beside the sparkline trends instead of vanishing behind the
// winner's gate. Reports whose rows carry no ladders (older
// artifacts, per-tree baseline rows) produce a one-line note instead of
// an empty table.
func WriteLadderMarkdown(w io.Writer, rep *BatchBenchReport) error {
	any := false
	for _, r := range rep.Results {
		if len(r.Ladder) > 0 {
			any = true
			break
		}
	}
	if !any {
		_, err := fmt.Fprintln(w, "_no calibration ladders recorded in this report_")
		return err
	}
	if _, err := fmt.Fprintln(w, "| workload | variant | mode | rows/s | winner |"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "|---|---|---|---:|:---:|"); err != nil {
		return err
	}
	for _, r := range rep.Results {
		for _, mt := range r.Ladder {
			mode := fmt.Sprintf("x%d %s", mt.Width, mt.Kernel)
			mark := ""
			if mt.Winner {
				mark = "★"
			}
			if _, err := fmt.Fprintf(w, "| %s | %s | %s | %.0f | %s |\n",
				r.Dataset, r.Variant, mode, mt.RowsPerSec, mark); err != nil {
				return err
			}
		}
	}
	return nil
}
