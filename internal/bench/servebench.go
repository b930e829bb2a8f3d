package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flint/internal/cart"
	"flint/internal/dataset"
	"flint/internal/serve"
	"flint/internal/treeexec"
)

// ServeBench measures end-to-end HTTP serving throughput and latency —
// the network front-end's cross-request coalescing over the registry,
// not the bare kernels BatchBench times — on every workload. Requests
// mix single rows and small batches from concurrent clients, and every
// response is verified bit-for-bit against the in-process engine, so a
// run that reports numbers has also proven the wire path correct. The
// CI workflow records the result as BENCH_serve.json next to
// BENCH_batch.json; wall-clock numbers on shared runners are indicative
// only and nothing gates on them.
type ServeBench struct {
	// Rows is the synthetic dataset size (train + test); <= 0 selects 1200.
	Rows int
	// Trees and Depth shape the trained ensemble; <= 0 selects 20 / 12.
	Trees, Depth int
	// Workers is each model's Batcher pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// Clients is the number of concurrent HTTP requesters; <= 0 selects 8.
	Clients int
	// MinDuration is the measured wall time per workload; <= 0 selects 300ms.
	MinDuration time.Duration
	// Seed drives dataset synthesis and training; 0 selects 1.
	Seed int64
	// BatchRows is the row count batch-shaped requests carry; <= 0
	// selects 16. Odd-numbered requests are single rows regardless.
	BatchRows int
}

// ServeBenchRow is one workload's measured serving profile.
type ServeBenchRow struct {
	Dataset          string  `json:"dataset"`
	Variant          string  `json:"variant"`
	RowsPerSec       float64 `json:"rows_per_sec"`
	RequestsPerSec   float64 `json:"requests_per_sec"`
	P50Ms            float64 `json:"latency_p50_ms"`
	P99Ms            float64 `json:"latency_p99_ms"`
	Requests         uint64  `json:"requests"`
	RowsServed       uint64  `json:"rows_served"`
	CoalescedBatches uint64  `json:"coalesced_batches"`
	CoalesceFill     float64 `json:"coalesce_rows_per_batch"`
	Verified         uint64  `json:"verified"` // responses checked against in-process Predict (all of them)
}

// ServeBenchReport is the BENCH_serve.json document.
type ServeBenchReport struct {
	Config struct {
		Rows, Trees, Depth, Workers, Clients, BatchRows int
		GOMAXPROCS                                      int
	} `json:"config"`
	Results []ServeBenchRow `json:"results"`
}

func (c ServeBench) withDefaults() ServeBench {
	if c.Rows <= 0 {
		c.Rows = 1200
	}
	if c.Trees <= 0 {
		c.Trees = 20
	}
	if c.Depth <= 0 {
		c.Depth = 12
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.MinDuration <= 0 {
		c.MinDuration = 300 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.BatchRows <= 0 {
		c.BatchRows = 16
	}
	return c
}

// Run serves every workload through a real HTTP stack (httptest server,
// keep-alive client connections) and measures rows/s, requests/s and
// latency quantiles under the concurrent single-row + batch mix. Every
// response is compared against the in-process engine's answer; any
// mismatch fails the run.
func (c ServeBench) Run() (*ServeBenchReport, error) {
	c = c.withDefaults()
	rep := &ServeBenchReport{}
	rep.Config.Rows = c.Rows
	rep.Config.Trees = c.Trees
	rep.Config.Depth = c.Depth
	rep.Config.Workers = c.Workers
	rep.Config.Clients = c.Clients
	rep.Config.BatchRows = c.BatchRows
	rep.Config.GOMAXPROCS = runtime.GOMAXPROCS(0)

	for _, ds := range dataset.Names() {
		row, err := c.runWorkload(ds)
		if err != nil {
			return nil, err
		}
		rep.Results = append(rep.Results, *row)
	}
	return rep, nil
}

func (c ServeBench) runWorkload(ds string) (*ServeBenchRow, error) {
	full, err := dataset.Generate(ds, c.Rows, c.Seed)
	if err != nil {
		return nil, err
	}
	train, test := full.Split(0.75, c.Seed)
	forest, err := cart.TrainForest(train, cart.Config{NumTrees: c.Trees, MaxDepth: c.Depth, Seed: c.Seed})
	if err != nil {
		return nil, fmt.Errorf("bench: training %s: %w", ds, err)
	}
	variant := treeexec.FlatFLInt
	if ok, _ := treeexec.Compactable(forest); ok {
		variant = treeexec.FlatCompact
	}
	e, err := treeexec.NewFlat(forest, variant)
	if err != nil {
		return nil, err
	}
	rows := test.Features
	if len(rows) == 0 {
		return nil, fmt.Errorf("bench: empty test set for %s", ds)
	}
	e.CalibrateInterleaveRows(rows, 50*time.Millisecond)
	want := e.PredictBatch(rows, nil, 1, 0)

	reg := treeexec.NewModelRegistry()
	defer reg.Close()
	if err := reg.Register(treeexec.NewServedModel(ds, e, c.Workers, 0)); err != nil {
		return nil, err
	}
	s := serve.New(reg, serve.Config{MaxQueue: 4096})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	url := ts.URL + "/v1/models/" + ds + ":predict"

	// Pre-marshal request bodies so the measured loop times the serve
	// path, not the client's JSON encoder.
	type shot struct {
		body   []byte
		expect []int32
	}
	shots := make([]shot, 0, 2*len(rows))
	for i := range rows {
		b, err := json.Marshal(struct {
			Row []float32 `json:"row"`
		}{rows[i]})
		if err != nil {
			return nil, err
		}
		shots = append(shots, shot{body: b, expect: want[i : i+1]})
		if i%2 == 0 {
			hi := i + c.BatchRows
			if hi > len(rows) {
				hi = len(rows)
			}
			b, err := json.Marshal(struct {
				Rows [][]float32 `json:"rows"`
			}{rows[i:hi]})
			if err != nil {
				return nil, err
			}
			shots = append(shots, shot{body: b, expect: want[i:hi]})
		}
	}

	var stopFlag atomic.Bool
	var verified atomic.Uint64
	errc := make(chan error, 1)
	fail := func(err error) {
		select {
		case errc <- err:
		default:
		}
		stopFlag.Store(true)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < c.Clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g * 31; !stopFlag.Load(); i++ {
				sh := shots[i%len(shots)]
				resp, err := client.Post(url, "application/json", bytes.NewReader(sh.body))
				if err != nil {
					fail(fmt.Errorf("bench: %s: %w", ds, err))
					return
				}
				var pr struct {
					Classes []int32 `json:"classes"`
				}
				err = json.NewDecoder(resp.Body).Decode(&pr)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					fail(fmt.Errorf("bench: %s: status %d, err %v", ds, resp.StatusCode, err))
					return
				}
				if len(pr.Classes) != len(sh.expect) {
					fail(fmt.Errorf("bench: %s: %d classes, want %d", ds, len(pr.Classes), len(sh.expect)))
					return
				}
				for j := range sh.expect {
					if pr.Classes[j] != sh.expect[j] {
						fail(fmt.Errorf("bench: %s: served answer %d != in-process %d", ds, pr.Classes[j], sh.expect[j]))
						return
					}
				}
				verified.Add(1)
			}
		}(g)
	}
	time.Sleep(c.MinDuration)
	stopFlag.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errc:
		return nil, err
	default:
	}

	st := s.Status()[0]
	row := &ServeBenchRow{
		Dataset:          ds,
		Variant:          e.Name(),
		RowsPerSec:       float64(st.CoalescedRows) / elapsed.Seconds(),
		RequestsPerSec:   float64(st.Requests) / elapsed.Seconds(),
		P50Ms:            st.LatencyP50Ms,
		P99Ms:            st.LatencyP99Ms,
		Requests:         st.Requests,
		RowsServed:       st.CoalescedRows,
		CoalescedBatches: st.CoalescedBatches,
		CoalesceFill:     st.CoalesceFill,
		Verified:         verified.Load(),
	}
	return row, nil
}

// WriteServeBenchJSON writes the report as indented JSON.
func WriteServeBenchJSON(w io.Writer, rep *ServeBenchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
