package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flint/internal/cart"
	"flint/internal/dataset"
	"flint/internal/treeexec"
)

// TestHotSwapUnderLiveHTTPTraffic is the tentpole acceptance test (run
// under -race in CI): repeated registry Swaps fire while concurrent
// HTTP clients stream coalesced single-row and batch predicts, and
// every request must complete — zero drops, zero non-200s — with
// answers bit-identical to the pre-swap reference for unchanged rows.
// The lane's registry.Predict retry on ErrModelRetired plus the old
// model's publish-before-retire drain is exactly what makes this hold.
func TestHotSwapUnderLiveHTTPTraffic(t *testing.T) {
	d, err := dataset.Generate("magic", 400, 21)
	if err != nil {
		t.Fatal(err)
	}
	f, err := cart.TrainForest(d, cart.Config{NumTrees: 6, MaxDepth: 7, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	build := func() *treeexec.ServedModel {
		e, err := treeexec.NewFlat(f, treeexec.FlatCompact)
		if err != nil {
			t.Fatal(err)
		}
		e.CalibrateInterleaveRows(d.Features, 2*time.Millisecond)
		return treeexec.NewServedModelSampled("magic", e, 2, 32, 128, 1)
	}

	reg := treeexec.NewModelRegistry()
	first := build()
	if err := reg.Register(first); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	want := first.Engine().PredictBatch(d.Features, nil, 1, 0)

	s := New(reg, Config{MaxQueue: 4096})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	var stop atomic.Bool
	var completed atomic.Uint64
	errc := make(chan error, 16)
	fail := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g * 7
			for !stop.Load() {
				var body predictRequest
				lo := i % len(d.Features)
				var expect []int32
				if g%2 == 0 { // single-row clients
					body.Row = d.Features[lo]
					expect = want[lo : lo+1]
				} else { // batch clients
					hi := lo + 16
					if hi > len(d.Features) {
						hi = len(d.Features)
					}
					body.Rows = d.Features[lo:hi]
					expect = want[lo:hi]
				}
				i++
				buf, _ := json.Marshal(body)
				resp, err := client.Post(ts.URL+"/v1/models/magic:predict", "application/json", bytes.NewReader(buf))
				if err != nil {
					fail("worker %d: %v", g, err)
					return
				}
				var pr predictResponse
				err = json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if err != nil {
					fail("worker %d: decode: %v", g, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					fail("worker %d: status %d (a dropped request)", g, resp.StatusCode)
					return
				}
				if len(pr.Classes) != len(expect) {
					fail("worker %d: %d classes, want %d", g, len(pr.Classes), len(expect))
					return
				}
				for j := range expect {
					if pr.Classes[j] != expect[j] {
						fail("worker %d: answer changed across swap: row %d got %d want %d", g, lo+j, pr.Classes[j], expect[j])
						return
					}
				}
				completed.Add(1)
			}
		}(g)
	}

	// Fire hot swaps under the live load.
	const swaps = 5
	for i := 0; i < swaps; i++ {
		time.Sleep(20 * time.Millisecond)
		if err := reg.Swap("magic", build()); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if completed.Load() == 0 {
		t.Fatal("no requests completed during the swap storm")
	}
	st := s.Status()[0]
	if st.Rejected != 0 || st.Errors != 0 {
		t.Fatalf("dropped work under swap: %d rejected, %d errored (of %d requests)", st.Rejected, st.Errors, st.Requests)
	}
	t.Logf("%d HTTP requests (%d rows in %d coalesced batches) rode through %d hot swaps",
		completed.Load(), st.CoalescedRows, st.CoalescedBatches, swaps)
}
