package treeexec

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// TestReservoirFillAndReplace drives Algorithm R directly: the first
// capacity considered rows fill the reservoir in order, later rows
// replace uniformly, and a long stream leaves the sample drawing from
// its whole range rather than pinning to the prefix.
func TestReservoirFillAndReplace(t *testing.T) {
	const capacity, features = 16, 2
	r := newRowReservoir(capacity, features, 1)
	row := func(i int) []float32 { return []float32{float32(i), float32(-i)} }

	for i := 0; i < capacity; i++ {
		r.observe([][]float32{row(i)})
	}
	if sampled, seen := r.stats(); sampled != capacity || seen != capacity {
		t.Fatalf("after fill: sampled %d seen %d, want %d/%d", sampled, seen, capacity, capacity)
	}
	for i, s := range r.snapshot() {
		if s[0] != float32(i) {
			t.Fatalf("fill stage out of order: slot %d holds %v", i, s)
		}
	}

	const stream = 100 * capacity
	for i := capacity; i < stream; i++ {
		r.observe([][]float32{row(i)})
	}
	snap := r.snapshot()
	if len(snap) != capacity {
		t.Fatalf("snapshot holds %d rows, want %d", len(snap), capacity)
	}
	late := 0
	for _, s := range snap {
		if s[1] != -s[0] {
			t.Fatalf("row torn or miscopied: %v", s)
		}
		if int(s[0]) >= stream/2 {
			late++
		}
	}
	// A uniform sample of [0, stream) lands ~half its rows in the upper
	// half; a reservoir stuck on its prefix would have none there.
	if late == 0 || late == capacity {
		t.Errorf("sample is not spread over the stream: %d/%d rows from the upper half", late, capacity)
	}
}

// TestReservoirStride pins the jittered decimation: the considered rate
// averages ~1/stride regardless of how the stream is cut into batches,
// and — the anti-aliasing property — considered positions are not
// locked to fixed within-batch offsets even when the batch size is a
// multiple of the stride (the scenario where a fixed-phase scheme would
// permanently skip most offsets).
func TestReservoirStride(t *testing.T) {
	const stride, batchRows, total = 32, 256, 16384
	r := newRowReservoir(total, 1, stride) // capacity >= considered: keep every considered row
	pos := 0
	for pos < total {
		batch := make([][]float32, batchRows)
		for i := range batch {
			batch[i] = []float32{float32(pos)}
			pos++
		}
		r.observe(batch)
	}
	sampled, seen := r.stats()
	if seen != total {
		t.Fatalf("seen %d, want %d", seen, total)
	}
	// Each position is considered independently with probability
	// 1/stride (geometric gaps, mean stride); with ~512 expected
	// considered rows the rate is concentrated near total/stride.
	if sampled < total/stride/2 || sampled > total/stride*2 {
		t.Fatalf("considered %d rows of %d at stride %d, want ~%d", sampled, total, stride, total/stride)
	}
	offsets := map[int]bool{}
	for _, row := range r.snapshot() {
		offsets[int(row[0])%stride] = true
	}
	// A fixed-phase scheme under stride-aligned batches would pin every
	// considered position to offset 0 mod stride forever.
	if len(offsets) < 4 {
		t.Errorf("considered positions cover only offsets %v mod %d — stride phase aliases with the batch size", offsets, stride)
	}
}

// TestReservoirConcurrentLiveness is the regression test for the
// cursor-based decimation's stall: two callers with interleaved
// position ranges could abandon the cursor in a range nobody would ever
// revisit, freezing sampling forever. The stateless per-position
// decision cannot stall: sampling must keep admitting rows no matter
// how ranges interleave across goroutines.
func TestReservoirConcurrentLiveness(t *testing.T) {
	const stride, rounds, batchRows = 8, 200, 64
	r := newRowReservoir(rounds*batchRows, 1, stride)
	batch := make([][]float32, batchRows)
	for i := range batch {
		batch[i] = []float32{1}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				r.observe(batch)
			}
		}()
	}
	wg.Wait()
	sampled, seen := r.stats()
	if seen != 4*rounds*batchRows {
		t.Fatalf("seen %d, want %d", seen, 4*rounds*batchRows)
	}
	want := int(seen) / stride
	if sampled < want/2 || sampled > want*2 {
		t.Errorf("concurrent sampling admitted %d rows of %d served, want ~%d — decimation stalled or overshot", sampled, seen, want)
	}
}

// TestBatcherSamplingZeroAlloc asserts the tentpole's hot-path
// constraint: with reservoir sampling enabled (stride 1, so every row
// is considered — the worst case), the Batcher steady state still
// allocates nothing per Predict call.
func TestBatcherSamplingZeroAlloc(t *testing.T) {
	f, d := trainedForest(t, "magic", 6, 5)
	e, err := NewFlat(f, FlatFLInt)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcherSampled(e, 2, 8, 32, 1)
	defer b.Close()
	out := make([]int32, d.Len())
	b.Predict(d.Features, out) // warm the token pool
	if avg := testing.AllocsPerRun(20, func() {
		out = b.Predict(d.Features, out[:0])
	}); avg != 0 {
		t.Errorf("sampling Predict steady state allocates %.1f objects per call, want 0", avg)
	}
	if sampled, seen := b.SampleStats(); sampled == 0 || seen == 0 {
		t.Errorf("reservoir did not sample: %d rows of %d seen", sampled, seen)
	}
}

// TestBatcherRecalibrateUnderTraffic recalibrates repeatedly while
// Predict callers hammer the pool: the winning (width, kernel) pair
// must install atomically (run under -race to pin the data-race half
// of the contract — on this compact engine each pass times every
// kernel of the host's slate and may flip between them mid-traffic),
// predictions must stay correct throughout, and the adopted width must
// be a supported one sourced from the reservoir's rows.
func TestBatcherRecalibrateUnderTraffic(t *testing.T) {
	f, d := trainedForest(t, "magic", 7, 6)
	e, err := NewFlat(f, FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int32, d.Len())
	for i, x := range d.Features {
		want[i] = f.Predict(x)
	}
	b := NewBatcherSampled(e, 2, 4, 64, 1)
	defer b.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out []int32
			for {
				select {
				case <-stop:
					return
				default:
				}
				out = b.Predict(d.Features, out)
				for i := range out {
					if out[i] != want[i] {
						errs <- "prediction diverged during recalibration"
						return
					}
				}
			}
		}()
	}
	// Let the reservoir accumulate before the first recalibration —
	// otherwise all three passes may beat the first Predict and fall
	// back to synthetic rows.
	for sampled, _ := b.SampleStats(); sampled == 0; sampled, _ = b.SampleStats() {
		time.Sleep(time.Millisecond)
	}
	// Each pass splits its budget over up to 18 candidates, and a pass
	// that times none rightly keeps the "default" source; 50 ms leaves
	// each candidate room for a timed run even under -race beside four
	// Predict loops.
	for i := 0; i < 3; i++ {
		w := b.Recalibrate(50 * time.Millisecond)
		if w != 1 && w != 2 && w != 4 && w != 8 && w != 16 {
			t.Errorf("Recalibrate chose unsupported width %d", w)
		}
		if w != e.Interleave() {
			t.Errorf("Recalibrate returned %d but engine holds %d", w, e.Interleave())
		}
		// Any kernel of this host's slate may win; under -race the
		// uninstrumented assembly ones often do.
		if k := e.Kernel(); !slices.Contains(e.candidateKernels(), k) {
			t.Errorf("Recalibrate installed kernel %v, not one this host times", k)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if src := e.CalibrationSource(); src != "rows" {
		t.Errorf("calibration source = %q after reservoir recalibration, want \"rows\"", src)
	}
}

// TestBatcherSeedSampleWarmStart seeds a fresh Batcher's reservoir with
// persisted rows: Recalibrate must then run on real rows (source
// "rows") before any traffic has been served.
func TestBatcherSeedSampleWarmStart(t *testing.T) {
	f, d := trainedForest(t, "wine", 5, 4)
	e, err := NewFlat(f, FlatFLInt)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(e, 1, 0)
	defer b.Close()
	seed := append([][]float32{{1, 2}}, d.Features[:10]...) // one malformed row
	if n := b.SeedSample(seed); n != 10 {
		t.Fatalf("SeedSample accepted %d rows, want 10", n)
	}
	if sampled, _ := b.SampleStats(); sampled != 10 {
		t.Fatalf("reservoir holds %d rows after seeding, want 10", sampled)
	}
	b.Recalibrate(2 * time.Millisecond)
	if src := e.CalibrationSource(); src != "rows" {
		t.Errorf("calibration source = %q after seeded recalibration, want \"rows\"", src)
	}
}

// TestBatcherSamplingDisabled covers the opt-out: a negative capacity
// builds no reservoir, the sampling accessors degrade gracefully, and
// Recalibrate falls back to synthetic rows.
func TestBatcherSamplingDisabled(t *testing.T) {
	f, d := trainedForest(t, "wine", 5, 4)
	e, err := NewFlat(f, FlatFLInt)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcherSampled(e, 1, 0, -1, 0)
	defer b.Close()
	b.Predict(d.Features, nil)
	if sampled, seen := b.SampleStats(); sampled != 0 || seen != 0 {
		t.Errorf("disabled sampling recorded %d/%d rows", sampled, seen)
	}
	if snap := b.SampleSnapshot(); snap != nil {
		t.Errorf("disabled sampling snapshot = %v, want nil", snap)
	}
	if n := b.SeedSample(d.Features); n != 0 {
		t.Errorf("disabled sampling accepted %d seed rows", n)
	}
	if w := b.Recalibrate(2 * time.Millisecond); w != 1 && w != 2 && w != 4 && w != 8 {
		t.Errorf("Recalibrate without a reservoir chose %d", w)
	}
	if src := e.CalibrationSource(); src != "synthetic" {
		t.Errorf("calibration source = %q without a reservoir, want \"synthetic\"", src)
	}
}
