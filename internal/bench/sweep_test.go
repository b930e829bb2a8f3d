package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"flint/internal/asmsim"
)

func tinyConfig() SweepConfig {
	return SweepConfig{
		Datasets:   []string{"magic", "wine"},
		TreeCounts: []int{1, 3},
		Depths:     []int{2, 5},
		Rows:       240,
		Seed:       3,
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("GeoMean(2,8) = %v, want 4", g)
	}
	if g := GeoMean([]float64{1, 1, 1}); g != 1 {
		t.Errorf("GeoMean(1,1,1) = %v", g)
	}
	if g := GeoMean([]float64{0.5}); g != 0.5 {
		t.Errorf("GeoMean(0.5) = %v", g)
	}
	defer func() {
		if recover() == nil {
			t.Error("GeoMean(empty) must panic")
		}
	}()
	GeoMean(nil)
}

func TestVariance(t *testing.T) {
	if v := Variance([]float64{1, 1, 1}); v != 0 {
		t.Errorf("Variance constant = %v", v)
	}
	if v := Variance([]float64{1, 3}); math.Abs(v-1) > 1e-12 {
		t.Errorf("Variance(1,3) = %v, want 1", v)
	}
	if v := Variance(nil); v != 0 {
		t.Errorf("Variance(nil) = %v", v)
	}
}

func TestNormalized(t *testing.T) {
	r := &Results{Cells: []Cell{
		{Backend: "b", Dataset: "d", Trees: 1, MaxDepth: 5, Impl: ImplNaive, Cost: 10},
		{Backend: "b", Dataset: "d", Trees: 1, MaxDepth: 5, Impl: ImplFLInt, Cost: 7},
		{Backend: "b", Dataset: "d", Trees: 1, MaxDepth: 5, Impl: ImplCAGS, Cost: 9},
		// A grid point with no baseline must be dropped.
		{Backend: "b", Dataset: "d", Trees: 2, MaxDepth: 5, Impl: ImplFLInt, Cost: 5},
	}}
	norm := r.Normalized(ImplNaive)
	if len(norm) != 3 {
		t.Fatalf("normalized %d cells, want 3", len(norm))
	}
	for _, c := range norm {
		switch c.Impl {
		case ImplNaive:
			if c.Cost != 1 {
				t.Errorf("naive normalized to %v", c.Cost)
			}
		case ImplFLInt:
			if math.Abs(c.Cost-0.7) > 1e-12 {
				t.Errorf("flint normalized to %v", c.Cost)
			}
		case ImplCAGS:
			if math.Abs(c.Cost-0.9) > 1e-12 {
				t.Errorf("cags normalized to %v", c.Cost)
			}
		}
	}
}

func TestFigure3AndTableAggregation(t *testing.T) {
	r := &Results{}
	// Two datasets, two depths; flint always at 0.8, naive at 1.0.
	for _, ds := range []string{"a", "b"} {
		for _, d := range []int{5, 20} {
			r.Cells = append(r.Cells,
				Cell{Backend: "x", Dataset: ds, Trees: 1, MaxDepth: d, Impl: ImplNaive, Cost: 100},
				Cell{Backend: "x", Dataset: ds, Trees: 1, MaxDepth: d, Impl: ImplFLInt, Cost: 80},
			)
		}
	}
	series := Figure3(r, ImplNaive)
	if len(series) != 2 {
		t.Fatalf("got %d series, want 2", len(series))
	}
	for _, s := range series {
		if len(s.Depths) != 2 || s.Depths[0] != 5 || s.Depths[1] != 20 {
			t.Errorf("series depths = %v", s.Depths)
		}
		want := 1.0
		if s.Impl == ImplFLInt {
			want = 0.8
		}
		for i, m := range s.Mean {
			if math.Abs(m-want) > 1e-9 {
				t.Errorf("series %s depth %d mean = %v, want %v", s.Impl, s.Depths[i], m, want)
			}
		}
	}
	rows := Table(r, ImplNaive, []Impl{ImplFLInt})
	if len(rows) != 1 {
		t.Fatalf("got %d table rows", len(rows))
	}
	if math.Abs(rows[0].Overall-0.8) > 1e-9 || math.Abs(rows[0].Deep-0.8) > 1e-9 {
		t.Errorf("table row = %+v", rows[0])
	}
}

func TestRunSweepInterp(t *testing.T) {
	backend := &InterpBackend{MinDuration: time.Millisecond, WithExtensions: true}
	res, err := RunSweep(tinyConfig(), []Backend{backend}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 2 datasets x 2 tree counts x 2 depths x 9 impls (the 6 per-tree
	// engines plus the flat-arena single-row, blocked-batch and
	// compact-arena entries).
	if want := 2 * 2 * 2 * 9; len(res.Cells) != want {
		t.Fatalf("got %d cells, want %d", len(res.Cells), want)
	}
	for _, c := range res.Cells {
		if c.Cost <= 0 {
			t.Errorf("non-positive cost in %+v", c)
		}
	}
	// The softfloat baseline must be slower than flint in the aggregate
	// (individual tiny-tree cells are dominated by fixed overheads and
	// timing noise, so only the geometric mean is asserted).
	rows := Table(res, ImplFLInt, []Impl{ImplSoftFloat})
	if len(rows) != 1 {
		t.Fatalf("got %d table rows", len(rows))
	}
	if rows[0].Overall <= 1 {
		t.Errorf("softfloat geomean %.3f relative to flint, want > 1", rows[0].Overall)
	}
}

func TestRunSweepSim(t *testing.T) {
	m, _ := asmsim.MachineByName("x86-server")
	backend := &SimBackend{Machine: m, MaxRows: 24, WithASM: true}
	var progress bytes.Buffer
	res, err := RunSweep(tinyConfig(), []Backend{backend}, &progress)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 2 * 5; len(res.Cells) != want {
		t.Fatalf("got %d cells, want %d", len(res.Cells), want)
	}
	if !strings.Contains(progress.String(), "sim:x86-server") {
		t.Error("progress log missing backend name")
	}
	// Reproduction of the paper's ordering on the simulated machine:
	// flint <= naive and cags-flint <= cags for the geometric mean.
	rows := Table(res, ImplNaive, []Impl{ImplCAGS, ImplFLInt, ImplCAGSFLInt, ImplFLIntASM})
	if len(rows) != 4 {
		t.Fatalf("got %d table rows", len(rows))
	}
	byImpl := map[Impl]TableRow{}
	for _, r := range rows {
		byImpl[r.Impl] = r
	}
	if byImpl[ImplFLInt].Overall >= 1.0 {
		t.Errorf("flint overall %.3f, want < 1", byImpl[ImplFLInt].Overall)
	}
	if byImpl[ImplCAGSFLInt].Overall >= byImpl[ImplCAGS].Overall {
		t.Errorf("cags-flint (%.3f) not better than cags (%.3f)",
			byImpl[ImplCAGSFLInt].Overall, byImpl[ImplCAGS].Overall)
	}
}

func TestRunSweepCC(t *testing.T) {
	backend := &CCBackend{}
	if !backend.Available() {
		t.Skip("no C compiler available")
	}
	cfg := SweepConfig{
		Datasets:   []string{"magic"},
		TreeCounts: []int{2},
		Depths:     []int{4},
		Rows:       200,
		Seed:       5,
	}
	res, err := RunSweep(cfg, []Backend{backend}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Four if-else realizations plus the table-driven form (the trained
	// forest fits the compact encoding, so its row must be measured).
	if len(res.Cells) != 5 {
		t.Fatalf("got %d cells, want 5", len(res.Cells))
	}
	seenTable := false
	for _, c := range res.Cells {
		if c.Cost <= 0 {
			t.Errorf("non-positive cost: %+v", c)
		}
		if c.Impl == ImplTableC {
			seenTable = true
		}
	}
	if !seenTable {
		t.Error("cc sweep produced no measured row for the table-driven realization")
	}
}

func TestFormatters(t *testing.T) {
	r := &Results{Cells: []Cell{
		{Backend: "x", Dataset: "d", Trees: 1, MaxDepth: 5, Impl: ImplNaive, Cost: 10},
		{Backend: "x", Dataset: "d", Trees: 1, MaxDepth: 5, Impl: ImplFLInt, Cost: 8},
		{Backend: "x", Dataset: "d", Trees: 1, MaxDepth: 20, Impl: ImplNaive, Cost: 10},
		{Backend: "x", Dataset: "d", Trees: 1, MaxDepth: 20, Impl: ImplFLInt, Cost: 7},
	}}
	series := Figure3(r, ImplNaive)
	var fig bytes.Buffer
	if err := WriteFigure3(&fig, series); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"depth", "flint", "0.800", "0.700"} {
		if !strings.Contains(fig.String(), want) {
			t.Errorf("figure output missing %q\n%s", want, fig.String())
		}
	}
	var tab bytes.Buffer
	if err := WriteTable(&tab, "Table II", Table(r, ImplNaive, []Impl{ImplFLInt})); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table II", "flint", "0.75x", "0.70x"} {
		if !strings.Contains(tab.String(), want) {
			t.Errorf("table output missing %q\n%s", want, tab.String())
		}
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "x,d,1,5,naive,10") {
		t.Errorf("CSV output wrong:\n%s", csv.String())
	}
	var scsv bytes.Buffer
	if err := WriteSeriesCSV(&scsv, series); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scsv.String(), "x,flint,5,0.8") {
		t.Errorf("series CSV output wrong:\n%s", scsv.String())
	}
}

func TestPaperAndQuickGrids(t *testing.T) {
	p := PaperGrid()
	if len(p.Datasets) != 5 || len(p.TreeCounts) != 9 || len(p.Depths) != 7 {
		t.Errorf("PaperGrid shape wrong: %+v", p)
	}
	q := QuickGrid()
	if len(q.Depths) != 7 {
		t.Errorf("QuickGrid must keep the paper's depth axis: %+v", q)
	}
	d := SweepConfig{}.withDefaults()
	if len(d.Datasets) == 0 || d.Seed == 0 {
		t.Error("withDefaults incomplete")
	}
}
