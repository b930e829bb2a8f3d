// Command flintbench regenerates the FLInt paper's evaluation: the
// normalized execution time sweep of Figure 3, the geometric mean
// summaries of Tables II and III, the C-vs-assembly comparison of
// Figure 4 and the Table I machine inventory.
//
// Backends:
//
//	interp — interpreted engines timed on this host
//	cc     — generated C compiled with the system compiler and timed on
//	         this host (the paper's actual toolchain)
//	sim    — generated ARMv8 assembly on the four simulated Table I
//	         machine profiles
//
// Examples:
//
//	flintbench -machines
//	flintbench -grid quick -backends interp,cc
//	flintbench -grid quick -backends sim -csv out/
//	flintbench -batchjson BENCH_batch.json
//	flintbench -laddermd BENCH_batch.json
//	flintbench -trenddiff old/BENCH_batch.json BENCH_batch.json
//	flintbench -trendhistory run4.json run3.json run2.json run1.json BENCH_batch.json
//	flintbench -emit out/ -emitdataset magic
//
// -emit trains a forest on one workload and dumps every C and Go
// realization codegen can produce for it — the branchy if-else FLInt
// form and the integer-only table-driven form (ModeTable: static cut
// tables + fused node words + the branch-free walk) — into the given
// directory, printing a code-size versus table-size comparison.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"flint/internal/asmsim"
	"flint/internal/bench"
	"flint/internal/cart"
	"flint/internal/codegen"
	"flint/internal/dataset"
	"flint/internal/treeexec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("flintbench: ")

	var (
		grid      = flag.String("grid", "quick", "sweep grid: tiny|quick|paper")
		backends  = flag.String("backends", "interp", "comma-separated: interp|cc|sim|sim:<machine>")
		rows      = flag.Int("rows", 0, "override dataset rows (0 = grid default)")
		csvDir    = flag.String("csv", "", "write raw and series CSVs into this directory")
		machines  = flag.Bool("machines", false, "print the Table I machine profiles and exit")
		verbose   = flag.Bool("v", false, "log every measured grid point")
		batchJSON = flag.String("batchjson", "", "run the short batch-throughput bench (rows/s per arena variant per workload), write JSON to this path and exit")
		batchRows = flag.Int("batchrows", 0, "dataset rows for -batchjson, -audit and -servebench (0 = 1200)")
		auditJSON = flag.String("audit", "", "run the adversarial robustness audit (decision-path attack flip rate vs perturbation budget per workload), write JSON to this path and exit")
		serveJSON = flag.String("servebench", "", "run the HTTP serving bench (coalesced rows/s + p50/p99 latency per workload through internal/serve, every response verified against in-process Predict), write JSON to this path and exit")
		auditRows = flag.Int("auditrows", 0, "test rows attacked per workload for -audit (0 = 150)")
		laddermd  = flag.Bool("laddermd", false, "render a BENCH_batch.json report's per-candidate calibration ladders as a GitHub-markdown table (usage: flintbench -laddermd BENCH_batch.json) for the CI job summary and exit")
		trenddiff = flag.Bool("trenddiff", false, "diff two BENCH_batch.json reports (usage: flintbench -trenddiff old.json new.json), print per-(workload, variant) rows/s deltas and exit")
		trendhist = flag.Bool("trendhistory", false, "walk a chronological sequence of BENCH_batch.json reports (usage: flintbench -trendhistory oldest.json ... newest.json), print each (workload, variant) cell's rows/s trajectory and exit")
		gatesFile = flag.String("gates", "", "persist host-wide interleave gates: load and install the gate table from this JSON file when it exists, otherwise calibrate this host and write it")
		emitDir   = flag.String("emit", "", "dump generated C/Go sources (if-else and integer-only table realizations) for a trained workload into this directory and exit")
		emitDS    = flag.String("emitdataset", "magic", "workload to train for -emit (eye|gas|magic|sensorless|wine)")
	)
	flag.Parse()

	if *gatesFile != "" {
		if err := loadOrCalibrateGates(*gatesFile); err != nil {
			log.Fatal(err)
		}
	}

	if *machines {
		printMachines()
		return
	}

	if *emitDir != "" {
		if err := runEmit(*emitDir, *emitDS); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *laddermd {
		if flag.NArg() != 1 {
			log.Fatal("usage: flintbench -laddermd BENCH_batch.json")
		}
		if err := runLadderMarkdown(flag.Arg(0)); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *trenddiff {
		if flag.NArg() != 2 {
			log.Fatal("usage: flintbench -trenddiff old.json new.json")
		}
		if err := runTrendDiff(flag.Arg(0), flag.Arg(1)); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *trendhist {
		if flag.NArg() < 2 {
			log.Fatal("usage: flintbench -trendhistory oldest.json [...] newest.json (at least two reports)")
		}
		if err := runTrendHistory(flag.Args()); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *batchJSON != "" {
		if err := runBatchBench(*batchJSON, *batchRows); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *auditJSON != "" {
		if err := runRobustAudit(*auditJSON, *batchRows, *auditRows); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *serveJSON != "" {
		if err := runServeBench(*serveJSON, *batchRows); err != nil {
			log.Fatal(err)
		}
		return
	}

	cfg, err := gridConfig(*grid)
	if err != nil {
		log.Fatal(err)
	}
	if *rows > 0 {
		cfg.Rows = *rows
	}
	bks, withASM, err := buildBackends(*backends)
	if err != nil {
		log.Fatal(err)
	}

	progress := os.Stderr
	if !*verbose {
		progress = nil
	}
	res, err := bench.RunSweep(cfg, bks, progress)
	if err != nil {
		log.Fatal(err)
	}

	series := bench.Figure3(res, bench.ImplNaive)
	fmt.Println("=== Figure 3: normalized execution time vs maximal tree depth ===")
	mainSeries := filterSeries(series, bench.ImplNaive, bench.ImplCAGS, bench.ImplFLInt, bench.ImplCAGSFLInt)
	if err := bench.WriteFigure3(os.Stdout, mainSeries); err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== Table II: average (geometric mean) normalized execution time ===")
	rowsII := bench.Table(res, bench.ImplNaive,
		[]bench.Impl{bench.ImplCAGS, bench.ImplFLInt, bench.ImplCAGSFLInt})
	if err := bench.WriteTable(os.Stdout, "Table II", rowsII); err != nil {
		log.Fatal(err)
	}

	// Extension row (cc backend only): the table-driven integer-only
	// realization (codegen ModeTable — the compact fused arena as static
	// tables plus a fixed walk loop), timed next to the if-else forms.
	if rowsTable := bench.Table(res, bench.ImplNaive,
		[]bench.Impl{bench.ImplTableC}); len(rowsTable) > 0 {
		fmt.Println("=== Extension: table-driven integer-only C (compact fused arena) ===")
		if err := bench.WriteTable(os.Stdout, "Table codegen", rowsTable); err != nil {
			log.Fatal(err)
		}
	}

	// Extension rows (interp backend only): the forest-arena engine,
	// single-row, through the row-blocked batch kernel, and over the
	// quantized 8-byte compact arena, normalized against the same naive
	// baseline.
	if rowsArena := bench.Table(res, bench.ImplNaive,
		[]bench.Impl{bench.ImplFlat, bench.ImplFlatBatch, bench.ImplFlatCompact}); len(rowsArena) > 0 {
		fmt.Println("=== Extension: forest-arena engine ===")
		if err := bench.WriteTable(os.Stdout, "Arena", rowsArena); err != nil {
			log.Fatal(err)
		}
		printArenaFootprint(cfg)
	}

	if withASM {
		fmt.Println("=== Figure 4: FLInt C vs FLInt ASM (simulated machines) ===")
		fig4 := filterSeries(series, bench.ImplNaive, bench.ImplFLInt, bench.ImplFLIntASM)
		if err := bench.WriteFigure3(os.Stdout, fig4); err != nil {
			log.Fatal(err)
		}
		fmt.Println("=== Table III: average normalized time, assembly implementation ===")
		rowsIII := bench.Table(res, bench.ImplNaive, []bench.Impl{bench.ImplFLIntASM})
		if err := bench.WriteTable(os.Stdout, "Table III", rowsIII); err != nil {
			log.Fatal(err)
		}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
		if err := writeFile(filepath.Join(*csvDir, "cells.csv"), func(w io.Writer) error {
			return bench.WriteCSV(w, res)
		}); err != nil {
			log.Fatal(err)
		}
		if err := writeFile(filepath.Join(*csvDir, "figure3.csv"), func(w io.Writer) error {
			return bench.WriteSeriesCSV(w, series)
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s and %s\n",
			filepath.Join(*csvDir, "cells.csv"), filepath.Join(*csvDir, "figure3.csv"))
	}
}

// writeFile creates path, streams write into it and propagates the
// Close error: on a full disk the final flush is where truncated output
// surfaces, and the previous deferred Close silently swallowed it —
// leaving CI artifacts (cells.csv, BENCH_batch.json) cut short with a
// success exit code.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("writing %s: %w", path, werr)
	}
	if cerr != nil {
		return fmt.Errorf("closing %s: %w", path, cerr)
	}
	return nil
}

// runEmit implements -emit: train a forest on the named workload and
// dump the generated sources for both realization shapes — if-else
// FLInt (code grows with the forest) and the integer-only table form
// (fixed walk loop, model as static data) — in C and Go. The closing
// line compares the two budgets: emitted if-else source versus the
// table form's data footprint. Forests past the compact encoding skip
// the table files with the reason instead of failing the dump.
func runEmit(dir, dsName string) error {
	full, err := dataset.Generate(dsName, 1200, 1)
	if err != nil {
		return err
	}
	train, _ := full.Split(0.75, 1)
	forest, err := cart.TrainForest(train, cart.Config{NumTrees: 10, MaxDepth: 10, Seed: 1})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	specs := []struct {
		file string
		opts codegen.Options
	}{
		{dsName + "_ifelse.c", codegen.Options{Language: codegen.LangC, Variant: codegen.VariantFLInt}},
		{dsName + "_table.c", codegen.Options{Language: codegen.LangC, Mode: codegen.ModeTable}},
		{dsName + "_ifelse.go", codegen.Options{Language: codegen.LangGo, Variant: codegen.VariantFLInt}},
		{dsName + "_table.go", codegen.Options{Language: codegen.LangGo, Mode: codegen.ModeTable}},
	}
	sizes := make(map[string]int, len(specs))
	for _, s := range specs {
		var buf bytes.Buffer
		if err := codegen.Forest(&buf, forest, s.opts); err != nil {
			var nce *codegen.NotCompactableError
			if errors.As(err, &nce) {
				fmt.Fprintf(os.Stderr, "skipping %s: %v\n", s.file, err)
				continue
			}
			return err
		}
		path := filepath.Join(dir, s.file)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
		sizes[s.file] = buf.Len()
		fmt.Printf("wrote %s (%d bytes)\n", path, buf.Len())
	}
	if e, err := treeexec.NewFlat(forest, treeexec.FlatCompact); err == nil && e.Variant() == treeexec.FlatCompact {
		if m, err := e.ExportCompact(); err == nil {
			fmt.Printf("table data footprint: %d bytes (if-else C source: %d bytes)\n",
				m.TableBytes(), sizes[dsName+"_ifelse.c"])
		}
	}
	return nil
}

// loadOrCalibrateGates implements -gates: a deployment's warm-start
// path for the host-wide interleave gate table. An existing file is
// loaded and installed (no calibration cost); a missing one triggers
// one Calibrate pass whose result is persisted for the next run.
func loadOrCalibrateGates(path string) error {
	f, err := os.Open(path)
	switch {
	case err == nil:
		g, rerr := treeexec.ReadGatesJSON(f)
		f.Close()
		if rerr != nil {
			return fmt.Errorf("reading %s: %w", path, rerr)
		}
		treeexec.SetInterleaveGates(g)
		fmt.Fprintf(os.Stderr, "installed interleave gates from %s\n", path)
		return nil
	case os.IsNotExist(err):
		g := treeexec.Calibrate(0)
		if werr := writeFile(path, func(w io.Writer) error {
			return treeexec.WriteGatesJSON(w, g)
		}); werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "calibrated this host and wrote gates to %s\n", path)
		return nil
	default:
		return err
	}
}

func gridConfig(name string) (bench.SweepConfig, error) {
	switch name {
	case "paper":
		return bench.PaperGrid(), nil
	case "quick":
		return bench.QuickGrid(), nil
	case "tiny":
		return bench.SweepConfig{
			Datasets:   []string{"magic", "wine"},
			TreeCounts: []int{1, 5},
			Depths:     []int{1, 5, 10, 20},
			Rows:       600,
			Seed:       1,
		}, nil
	}
	return bench.SweepConfig{}, fmt.Errorf("unknown grid %q (tiny|quick|paper)", name)
}

func buildBackends(spec string) ([]bench.Backend, bool, error) {
	var out []bench.Backend
	withASM := false
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		switch {
		case name == "interp":
			out = append(out, &bench.InterpBackend{WithExtensions: true})
		case name == "cc":
			cc := &bench.CCBackend{}
			if !cc.Available() {
				return nil, false, fmt.Errorf("cc backend requested but no C compiler found")
			}
			out = append(out, cc)
		case name == "sim":
			for _, m := range asmsim.TableI() {
				out = append(out, &bench.SimBackend{Machine: m, WithASM: true})
			}
			withASM = true
		case strings.HasPrefix(name, "sim:"):
			m, ok := asmsim.MachineByName(strings.TrimPrefix(name, "sim:"))
			if !ok {
				return nil, false, fmt.Errorf("unknown machine %q", strings.TrimPrefix(name, "sim:"))
			}
			out = append(out, &bench.SimBackend{Machine: m, WithASM: true})
			withASM = true
		case name == "":
		default:
			return nil, false, fmt.Errorf("unknown backend %q", name)
		}
	}
	if len(out) == 0 {
		return nil, false, fmt.Errorf("no backends selected")
	}
	return out, withASM, nil
}

func filterSeries(series []bench.Series, impls ...bench.Impl) []bench.Series {
	keep := map[bench.Impl]bool{}
	for _, im := range impls {
		keep[im] = true
	}
	var out []bench.Series
	for _, s := range series {
		if keep[s.Impl] {
			out = append(out, s)
		}
	}
	return out
}

// runBatchBench runs the short batch-throughput measurement and writes
// the BENCH_batch.json document: rows/s per arena variant per workload,
// with the arena footprints (bytes/node) that motivate the compact
// layout. Intended for CI trend tracking; numbers are wall-clock and
// noisy, so nothing here fails on a slow run.
func runBatchBench(path string, rows int) error {
	rep, err := bench.BatchBench{Rows: rows}.Run()
	if err != nil {
		return err
	}
	if isa := treeexec.DetectedISA(); isa != "" {
		fmt.Printf("vector ISA: %s\n", isa)
	} else {
		fmt.Printf("vector ISA: none\n")
	}
	// The Close error matters here: BENCH_batch.json is the CI trend
	// artifact, and a full disk surfacing only at the final flush used
	// to truncate it silently.
	if err := writeFile(path, func(w io.Writer) error {
		return bench.WriteBatchBenchJSON(w, rep)
	}); err != nil {
		return err
	}
	for _, r := range rep.Results {
		switch {
		case r.PrunedFeatures > 0:
			fmt.Printf("%-12s %-13s %12.0f rows/s  %8d nodes  %4.1f B/node  x%d %s (%s)  %d/%d split-on features\n",
				r.Dataset, r.Variant, r.RowsPerSec, r.ArenaNodes, r.BytesPerNode, r.Interleave, r.Kernel, r.CalibSource,
				r.PrunedFeatures, r.NumFeatures)
		case r.ArenaNodes > 0:
			fmt.Printf("%-12s %-13s %12.0f rows/s  %8d nodes  %4.1f B/node  x%d %s (%s)\n",
				r.Dataset, r.Variant, r.RowsPerSec, r.ArenaNodes, r.BytesPerNode, r.Interleave, r.Kernel, r.CalibSource)
		default:
			fmt.Printf("%-12s %-13s %12.0f rows/s\n", r.Dataset, r.Variant, r.RowsPerSec)
		}
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// runServeBench measures the HTTP front-end — cross-request coalescing
// through internal/serve over a registry-backed model per workload —
// and writes BENCH_serve.json. Every response is verified against the
// in-process engine before any number is reported, so this doubles as
// the wire-correctness smoke the CI serve job runs.
func runServeBench(path string, rows int) error {
	rep, err := bench.ServeBench{Rows: rows}.Run()
	if err != nil {
		return err
	}
	if err := writeFile(path, func(w io.Writer) error {
		return bench.WriteServeBenchJSON(w, rep)
	}); err != nil {
		return err
	}
	for _, r := range rep.Results {
		fmt.Printf("%-12s %-13s %12.0f rows/s %9.0f req/s  p50 %6.2fms  p99 %6.2fms  %5.1f rows/batch  %d verified\n",
			r.Dataset, r.Variant, r.RowsPerSec, r.RequestsPerSec, r.P50Ms, r.P99Ms, r.CoalesceFill, r.Verified)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// runRobustAudit runs the per-workload adversarial robustness audit
// (decision-path attack, internal/robust) and writes BENCH_robust.json.
// Report-only: the flip-rate curve characterizes the trained models'
// boundary geometry, not the engine's performance, so nothing here
// gates.
func runRobustAudit(path string, rows, auditRows int) error {
	rep, err := bench.RobustBench{Rows: rows, AuditRows: auditRows}.Run()
	if err != nil {
		return err
	}
	if err := writeFile(path, func(w io.Writer) error {
		return bench.WriteRobustBenchJSON(w, rep)
	}); err != nil {
		return err
	}
	for _, r := range rep.Results {
		fmt.Printf("%-12s %8d nodes  %3d rows audited  %3d flipped  mean cost %.4f\n",
			r.Dataset, r.ArenaNodes, r.Report.Rows, r.Report.Flipped, r.Report.MeanCost)
		for i, b := range r.Report.Budgets {
			fmt.Printf("               budget %6.3f: flip rate %.3f\n", b, r.Report.FlipRate[i])
		}
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// runLadderMarkdown reads a BENCH_batch.json report and prints its
// per-candidate calibration ladders as one markdown table — the CI job
// summary's view of every candidate width's measured rows/s, winners
// starred, so losing widths' trajectories stay visible across PRs.
func runLadderMarkdown(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rep, err := bench.ReadBatchBenchJSON(f)
	if err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	return bench.WriteLadderMarkdown(os.Stdout, rep)
}

// runTrendDiff aligns two BENCH_batch.json reports (typically the
// previous CI run's artifact against this run's) and prints the
// per-(workload, variant) rows/s deltas. Report-only: throughput on
// shared runners is noisy, so nothing here exits non-zero on a
// regression — the table exists to make trends visible, not to gate.
func runTrendDiff(oldPath, newPath string) error {
	read := func(path string) (*bench.BatchBenchReport, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return bench.ReadBatchBenchJSON(f)
	}
	oldRep, err := read(oldPath)
	if err != nil {
		return fmt.Errorf("reading %s: %w", oldPath, err)
	}
	newRep, err := read(newPath)
	if err != nil {
		return fmt.Errorf("reading %s: %w", newPath, err)
	}
	fmt.Printf("batch throughput trend: %s -> %s\n", oldPath, newPath)
	return bench.WriteTrendDiff(os.Stdout, bench.TrendDiff(oldRep, newRep))
}

// runTrendHistory aligns a chronological sequence of BENCH_batch.json
// reports (oldest first; typically the last few CI artifacts plus this
// run's) and prints each (workload, variant) cell's rows/s trajectory,
// so drift too slow for any single run-over-run diff is visible.
// Report-only, like the diff: nothing exits non-zero on a regression.
func runTrendHistory(paths []string) error {
	reps := make([]*bench.BatchBenchReport, len(paths))
	labels := make([]string, len(paths))
	for i, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		rep, err := bench.ReadBatchBenchJSON(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
		reps[i] = rep
		// Short column headers: run-1 is the newest preceding run,
		// run-N the oldest; the final report is this run's.
		labels[i] = fmt.Sprintf("run-%d", len(paths)-1-i)
		if i == len(paths)-1 {
			labels[i] = "current"
		}
	}
	fmt.Printf("batch throughput trajectory over %d runs (oldest first):\n", len(paths))
	for i, path := range paths {
		fmt.Printf("  %s = %s\n", labels[i], path)
	}
	return bench.WriteTrendHistory(os.Stdout, labels, bench.TrendHistory(reps))
}

// printArenaFootprint trains one representative ensemble and prints the
// per-node storage cost of each arena layout, making the footprint
// claim behind the compact variant's timings visible next to them.
func printArenaFootprint(cfg bench.SweepConfig) {
	rows, trees, depth := cfg.Rows, 0, 0
	if rows <= 0 {
		rows = 1200
	}
	for _, t := range cfg.TreeCounts {
		if t > trees && t <= 20 {
			trees = t
		}
	}
	if trees == 0 {
		trees = 10
	}
	for _, d := range cfg.Depths {
		if d > depth && d <= 15 {
			depth = d
		}
	}
	if depth == 0 {
		depth = 10
	}
	ds := cfg.Datasets[0]
	full, err := dataset.Generate(ds, rows, 1)
	if err != nil {
		log.Fatal(err)
	}
	train, _ := full.Split(0.75, 1)
	forest, err := cart.TrainForest(train, cart.Config{NumTrees: trees, MaxDepth: depth, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("--- Arena footprint (%s, %d trees, depth %d) ---\n", ds, trees, depth)
	for _, v := range []treeexec.FlatVariant{treeexec.FlatFLInt, treeexec.FlatCompact} {
		e, err := treeexec.NewFlat(forest, v)
		if err != nil {
			log.Fatal(err)
		}
		nodes, bytes := e.ArenaNodes(), e.ArenaBytes()
		fmt.Printf("%-13s %8d nodes %10d bytes  %4.1f B/node\n",
			e.Name(), nodes, bytes, float64(bytes)/float64(nodes))
	}
	if ok, reason := treeexec.Compactable(forest); !ok {
		fmt.Printf("(compact fallback: %s)\n", reason)
	}
}

// printMachines renders the Table I stand-ins.
func printMachines() {
	fmt.Println("Machine profiles standing in for the paper's Table I:")
	fmt.Printf("%-16s %-52s %6s %6s %6s %6s\n", "name", "stands in for", "fcmp", "mispr", "L1I", "L1D")
	for _, m := range asmsim.Machines() {
		fmt.Printf("%-16s %-52s %6d %6d %5dK %5dK\n",
			m.Name, m.Description, m.FPCompareCycles, m.MispredictPenalty,
			m.ICache.SizeBytes>>10, m.DCache.SizeBytes>>10)
	}
}
