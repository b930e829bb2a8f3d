package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flint/internal/cart"
	"flint/internal/dataset"
	"flint/internal/treeexec"
)

// testModel trains a small forest on the named workload and wraps it as
// a calibrated ServedModel plus the rows it was trained on.
func testModel(t *testing.T, name, workload string) (*treeexec.ServedModel, [][]float32) {
	t.Helper()
	d, err := dataset.Generate(workload, 400, 21)
	if err != nil {
		t.Fatal(err)
	}
	f, err := cart.TrainForest(d, cart.Config{NumTrees: 5, MaxDepth: 7, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	e, err := treeexec.NewFlat(f, treeexec.FlatCompact)
	if err != nil {
		t.Fatal(err)
	}
	e.CalibrateInterleaveRows(d.Features, 5*time.Millisecond)
	return treeexec.NewServedModelSampled(name, e, 2, 32, 128, 1), d.Features
}

// postPredict fires one predict request and decodes the response.
func postPredict(t *testing.T, url, model string, body any) (int, predictResponse, string) {
	t.Helper()
	code, pr, raw, err := tryPredict(url, model, body)
	if err != nil {
		t.Fatal(err)
	}
	return code, pr, raw
}

// tryPredict is postPredict for goroutines other than the test's own,
// which must not call t.Fatal: transport failures come back as errors.
func tryPredict(url, model string, body any) (int, predictResponse, string, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, predictResponse{}, "", err
	}
	resp, err := http.Post(url+"/v1/models/"+model+":predict", "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, predictResponse{}, "", err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var pr predictResponse
	_ = json.Unmarshal(raw, &pr)
	return resp.StatusCode, pr, string(raw), nil
}

// parkLane installs the named model's lane by hand with its dispatcher
// not running, so requests sent to it stay queued until the test starts
// the dispatcher with go l.run(s).
func parkLane(s *Server, name string) *lane {
	l := newLane(name, s.cfg.MaxQueue)
	s.mu.Lock()
	s.lanes[name] = l
	s.mu.Unlock()
	return l
}

// waitQueued waits until n requests sit in a parked lane's queue. On
// timeout it starts the dispatcher before failing, so the parked
// handlers — and the deferred server shutdowns waiting on them — do not
// hang the test.
func waitQueued(t *testing.T, s *Server, l *lane, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(l.queue) < n {
		if time.Now().After(deadline) {
			go l.run(s)
			t.Fatalf("%d of %d requests reached the queue", len(l.queue), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServePredictSingleAndBatch pins the wire contract: single rows
// and batches answer exactly what the in-process engine answers, and
// malformed requests map to the right status codes.
func TestServePredictSingleAndBatch(t *testing.T) {
	m, rows := testModel(t, "magic", "magic")
	reg := treeexec.NewModelRegistry()
	if err := reg.Register(m); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	s := New(reg, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	want := m.Engine().PredictBatch(rows, nil, 1, 0)

	// Single row, canonical :predict action form.
	code, pr, raw := postPredict(t, ts.URL, "magic", predictRequest{Row: rows[0]})
	if code != http.StatusOK || len(pr.Classes) != 1 || pr.Classes[0] != want[0] {
		t.Fatalf("single-row predict: code %d, %+v (%s), want class %d", code, pr, raw, want[0])
	}

	// Batch of rows, bare-name form.
	code, pr, raw = postPredict(t, ts.URL, "magic", predictRequest{Rows: rows[:64]})
	if code != http.StatusOK || len(pr.Classes) != 64 {
		t.Fatalf("batch predict: code %d (%s)", code, raw)
	}
	for i, c := range pr.Classes {
		if c != want[i] {
			t.Fatalf("batch row %d: HTTP answer %d, engine %d", i, c, want[i])
		}
	}

	// Error mapping.
	if code, _, raw = postPredict(t, ts.URL, "ghost", predictRequest{Row: rows[0]}); code != http.StatusNotFound {
		t.Fatalf("unknown model: code %d (%s), want 404", code, raw)
	}
	if code, _, raw = postPredict(t, ts.URL, "magic", predictRequest{Row: []float32{1}}); code != http.StatusBadRequest {
		t.Fatalf("narrow row: code %d (%s), want 400", code, raw)
	}
	if code, _, raw = postPredict(t, ts.URL, "magic", predictRequest{}); code != http.StatusBadRequest {
		t.Fatalf("empty request: code %d (%s), want 400", code, raw)
	}
	if code, _, raw = postPredict(t, ts.URL, "magic", predictRequest{Row: rows[0], Rows: rows[:2]}); code != http.StatusBadRequest {
		t.Fatalf("row+rows request: code %d (%s), want 400", code, raw)
	}
	resp, err := http.Post(ts.URL+"/v1/models/magic:predict", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: code %d, want 400", resp.StatusCode)
	}
}

// TestServeStatusAndMetrics exercises the observability surface after
// real traffic: per-model counters on /v1/models and the Prometheus
// text form on /metrics.
func TestServeStatusAndMetrics(t *testing.T) {
	m, rows := testModel(t, "magic", "magic")
	reg := treeexec.NewModelRegistry()
	if err := reg.Register(m); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	s := New(reg, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 10; i++ {
		if code, _, raw := postPredict(t, ts.URL, "magic", predictRequest{Rows: rows[:16]}); code != http.StatusOK {
			t.Fatalf("warm-up predict %d: code %d (%s)", i, code, raw)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Models []ModelStatus `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Models) != 1 {
		t.Fatalf("GET /v1/models returned %d models, want 1", len(list.Models))
	}
	st := list.Models[0]
	if st.Name != "magic" || st.Requests != 10 || st.CoalescedRows != 160 || st.CoalescedBatches == 0 {
		t.Fatalf("status counters wrong: %+v", st)
	}
	if st.CoalesceFill <= 0 || st.LatencyP99Ms <= 0 {
		t.Fatalf("derived metrics missing: fill %v p99 %v", st.CoalesceFill, st.LatencyP99Ms)
	}

	// Single-model endpoint agrees.
	resp, err = http.Get(ts.URL + "/v1/models/magic")
	if err != nil {
		t.Fatal(err)
	}
	var one ModelStatus
	if err := json.NewDecoder(resp.Body).Decode(&one); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if one.Name != "magic" || one.Requests != 10 {
		t.Fatalf("GET /v1/models/magic = %+v", one)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		`flint_requests_total{model="magic"} 10`,
		`flint_rows_total{model="magic"} 160`,
		`flint_latency_ms{model="magic",quantile="0.99"}`,
		`flint_drift_distance{model="magic"}`,
		"# TYPE flint_batches_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestServeCoalescesAcrossRequests pins cross-request batching without
// relying on timing: requests parked in a lane whose dispatcher is not
// yet running leave, once it starts, as one registry batch, each answer
// scattered back to the request that asked for it. The second case
// queues more rows than MaxBatchRows (16): the drain stops once a batch
// reaches the cap and never splits a request, so the 10-row requests
// pair up and the 40-row one leaves whole — three batches in any queue
// order, where splitting at the cap would make five.
func TestServeCoalescesAcrossRequests(t *testing.T) {
	m, rows := testModel(t, "magic", "magic")
	reg := treeexec.NewModelRegistry()
	if err := reg.Register(m); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	want := m.Engine().PredictBatch(rows, nil, 1, 0)

	var mixed []int // 32 requests of 1, 4, 7 and 10 rows: 176 in all
	for i := 0; i < 32; i++ {
		mixed = append(mixed, 1+3*(i%4))
	}
	for _, tc := range []struct {
		name    string
		maxRows int
		sizes   []int // rows per parked request
		batches uint64
	}{
		{"under the cap", 0, mixed, 1},
		{"over the cap", 16, []int{10, 10, 10, 10, 40}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(reg, Config{MaxBatchRows: tc.maxRows})
			defer s.Close()
			l := parkLane(s, "magic")
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			errc := make(chan error, len(tc.sizes))
			total := 0
			for _, n := range tc.sizes {
				go func(lo, hi int) {
					code, pr, raw, err := tryPredict(ts.URL, "magic", predictRequest{Rows: rows[lo:hi]})
					switch {
					case err != nil:
					case code != http.StatusOK:
						err = fmt.Errorf("rows %d-%d: code %d (%s)", lo, hi, code, raw)
					case len(pr.Classes) != hi-lo:
						err = fmt.Errorf("rows %d-%d: %d classes", lo, hi, len(pr.Classes))
					default:
						for i, c := range pr.Classes {
							if c != want[lo+i] {
								err = fmt.Errorf("row %d: HTTP answer %d, engine %d", lo+i, c, want[lo+i])
								break
							}
						}
					}
					errc <- err
				}(total, total+n)
				total += n
			}
			waitQueued(t, s, l, len(tc.sizes))
			go l.run(s)
			for range tc.sizes {
				if err := <-errc; err != nil {
					t.Fatal(err)
				}
			}
			if got := l.batches.Load(); got != tc.batches {
				t.Fatalf("%d parked requests left in %d registry batches, want %d", len(tc.sizes), got, tc.batches)
			}
			if got := l.rows.Load(); got != uint64(total) {
				t.Fatalf("lane predicted %d rows, want %d", got, total)
			}
		})
	}
}

// TestServeAdmissionControl pins the 429 path deterministically: the
// lane is installed with its dispatcher deliberately not running, so
// the one-slot queue genuinely wedges — the first request parks in the
// queue, the second is rejected immediately with 429 instead of
// queueing into unbounded latency. Starting the dispatcher afterwards
// releases the parked request with a real answer.
func TestServeAdmissionControl(t *testing.T) {
	m, rows := testModel(t, "magic", "magic")
	reg := treeexec.NewModelRegistry()
	if err := reg.Register(m); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	s := New(reg, Config{MaxQueue: 1})
	defer s.Close()
	l := parkLane(s, "magic")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	parked := make(chan int, 1)
	go func() {
		code, _, _, _ := tryPredict(ts.URL, "magic", predictRequest{Row: rows[0]})
		parked <- code
	}()
	waitQueued(t, s, l, 1)

	code, _, raw := postPredict(t, ts.URL, "magic", predictRequest{Row: rows[1]})
	if code != http.StatusTooManyRequests {
		t.Fatalf("second request on a full queue: code %d (%s), want 429", code, raw)
	}
	if got := s.Status()[0].Rejected; got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	go l.run(s) // release the parked request
	if code := <-parked; code != http.StatusOK {
		t.Fatalf("parked request finished with %d once the dispatcher ran, want 200", code)
	}
}

// TestServeCloseFailsPending pins the shutdown contract: Close drains
// the lanes, parked requests fail with 503 instead of hanging, and new
// requests are turned away. The requests are parked in a lane whose
// dispatcher starts only once Close has stopped it.
func TestServeCloseFailsPending(t *testing.T) {
	m, rows := testModel(t, "magic", "magic")
	reg := treeexec.NewModelRegistry()
	if err := reg.Register(m); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	s := New(reg, Config{})
	l := parkLane(s, "magic")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	codes := make(chan int, 4)
	for i := 0; i < 4; i++ {
		go func() {
			code, _, _, _ := tryPredict(ts.URL, "magic", predictRequest{Row: rows[0]})
			codes <- code
		}()
	}
	waitQueued(t, s, l, 4)
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	<-l.stop
	go l.run(s)
	<-closed
	for i := 0; i < 4; i++ {
		// The dispatcher sees the queue and the stop signal at once: it
		// either serves the queue in one last batch (200) or fails it
		// (503). Either way nobody hangs.
		if c := <-codes; c != http.StatusOK && c != http.StatusServiceUnavailable {
			t.Fatalf("post-Close status %d, want 200 or 503", c)
		}
	}
	if code, _, _ := postPredict(t, ts.URL, "magic", predictRequest{Row: rows[0]}); code != http.StatusServiceUnavailable {
		t.Fatalf("predict after Close: %d, want 503", code)
	}
}

// TestServeReloadHook pins POST /v1/reload: wired hook fires, missing
// hook reports 501.
func TestServeReloadHook(t *testing.T) {
	m, _ := testModel(t, "magic", "magic")
	reg := treeexec.NewModelRegistry()
	if err := reg.Register(m); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	s := New(reg, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("reload without hook: %d, want 501", resp.StatusCode)
	}
	fired := 0
	s.SetReload(func() error { fired++; return nil })
	resp, err = http.Post(ts.URL+"/v1/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || fired != 1 {
		t.Fatalf("reload with hook: %d (fired %d): %s", resp.StatusCode, fired, raw)
	}
	if !strings.Contains(string(raw), `"magic"`) {
		t.Fatalf("reload response does not list models: %s", raw)
	}
}
