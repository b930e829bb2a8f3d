// Command flintserve is the network front-end over the model registry:
// it builds a set of ServedModels from a manifest (or a default
// manifest over the built-in workloads), registers them, and serves
// them over HTTP with cross-request batching, admission control and
// per-model metrics (see internal/serve for the endpoints).
//
// Hot reload: SIGHUP or POST /v1/reload rebuilds every manifest model
// off-line and installs each through ModelRegistry.Swap — the pointer
// flips, the old model drains, and not one in-flight request is
// dropped. Models removed from the manifest are unregistered; new ones
// are added.
//
// A manifest is JSON:
//
//	{"models": [
//	  {"name": "magic", "dataset": "magic", "rows": 4000, "trees": 30,
//	   "depth": 20, "seed": 1, "variant": "auto",
//	   "calibration": "magic.calib.json", "drift": true}
//	]}
//
// Without -manifest, one model per -datasets entry is built with the
// -rows/-trees/-depth/-seed defaults.
//
// -selfcheck replaces serving with the CI smoke path: start on a
// loopback port, fire concurrent single-row and batch requests at every
// model over real HTTP, verify each response bit-for-bit against the
// in-process engine, exercise one hot reload mid-traffic, and exit
// non-zero on any mismatch.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"flint/internal/cags"
	"flint/internal/cart"
	"flint/internal/dataset"
	"flint/internal/serve"
	"flint/internal/treeexec"
)

// ModelSpec describes one served model: the synthetic workload and
// forest shape to build, the arena variant, and optional warm-start
// state.
type ModelSpec struct {
	Name    string `json:"name"`
	Dataset string `json:"dataset"`
	Rows    int    `json:"rows,omitempty"`
	Trees   int    `json:"trees,omitempty"`
	Depth   int    `json:"depth,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	// Variant selects the arena: "auto" (default — compact when the
	// forest fits its encoding, else flint), "compact", "flint",
	// "float32" or "precoded".
	Variant string `json:"variant,omitempty"`
	// Calibration optionally names a persisted CalibrationRecord to
	// warm-start from (loaded through the registry, so cross-model
	// mix-ups are rejected). A missing file is logged, not fatal.
	Calibration string `json:"calibration,omitempty"`
	// Drift arms drift detection with the default policy (unless the
	// calibration record already re-armed one).
	Drift bool `json:"drift,omitempty"`
}

// Manifest is the -manifest document.
type Manifest struct {
	Models []ModelSpec `json:"models"`
}

type buildDefaults struct {
	rows, trees, depth int
	seed               int64
}

func (s ModelSpec) withDefaults(d buildDefaults) ModelSpec {
	if s.Dataset == "" {
		s.Dataset = s.Name
	}
	if s.Name == "" {
		s.Name = s.Dataset
	}
	if s.Rows <= 0 {
		s.Rows = d.rows
	}
	if s.Trees <= 0 {
		s.Trees = d.trees
	}
	if s.Depth <= 0 {
		s.Depth = d.depth
	}
	if s.Seed == 0 {
		s.Seed = d.seed
	}
	if s.Variant == "" {
		s.Variant = "auto"
	}
	return s
}

func loadManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var m Manifest
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("manifest %s: %w", path, err)
	}
	if len(m.Models) == 0 {
		return nil, fmt.Errorf("manifest %s: no models", path)
	}
	return &m, nil
}

// defaultManifest builds one spec per named dataset.
func defaultManifest(datasets string) (*Manifest, error) {
	names := strings.Split(datasets, ",")
	m := &Manifest{}
	known := dataset.Names()
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		found := false
		for _, k := range known {
			if k == n {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown dataset %q (have %s)", n, strings.Join(known, ", "))
		}
		m.Models = append(m.Models, ModelSpec{Name: n, Dataset: n})
	}
	if len(m.Models) == 0 {
		return nil, errors.New("-datasets selected no models")
	}
	return m, nil
}

// buildModel trains, compiles and calibrates one ServedModel off-line;
// the returned rows are the workload's test-set features (the traffic
// the selfcheck and drift baseline use). Deterministic per spec: the
// same spec always yields a bit-identical model, which is what makes a
// hot reload answer-preserving when the manifest has not changed.
func buildModel(spec ModelSpec, workers int) (*treeexec.ServedModel, [][]float32, error) {
	full, err := dataset.Generate(spec.Dataset, spec.Rows, spec.Seed)
	if err != nil {
		return nil, nil, err
	}
	train, test := full.Split(0.75, spec.Seed)
	forest, err := cart.TrainForest(train, cart.Config{
		NumTrees: spec.Trees, MaxDepth: spec.Depth, Seed: spec.Seed,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("training %s: %w", spec.Name, err)
	}
	forest, err = cags.ReorderForest(forest)
	if err != nil {
		return nil, nil, err
	}

	var variant treeexec.FlatVariant
	switch spec.Variant {
	case "auto":
		variant = treeexec.FlatFLInt
		if ok, _ := treeexec.Compactable(forest); ok {
			variant = treeexec.FlatCompact
		}
	case "compact":
		variant = treeexec.FlatCompact
	case "flint":
		variant = treeexec.FlatFLInt
	case "float32":
		variant = treeexec.FlatFloat32
	case "precoded":
		variant = treeexec.FlatPrecoded
	default:
		return nil, nil, fmt.Errorf("model %s: unknown variant %q", spec.Name, spec.Variant)
	}
	e, err := treeexec.NewFlat(forest, variant)
	if err != nil {
		return nil, nil, err
	}
	// Calibrate the (width, kernel) mode on training rows — the best
	// stand-in for traffic before any has been served. A warm start
	// (Calibration below) overwrites this with the persisted mode.
	e.CalibrateInterleaveRows(train.Features, 0)
	m := treeexec.NewServedModel(spec.Name, e, workers, 0)
	if spec.Drift {
		if err := m.EnableDriftDetection(treeexec.DriftConfig{}, train.Features); err != nil {
			m.Close()
			return nil, nil, fmt.Errorf("model %s: arming drift detection: %w", spec.Name, err)
		}
	}
	return m, test.Features, nil
}

// installModels builds every manifest model off-line and installs each
// into the registry — Register for new names, Swap for existing ones —
// then unregisters models the manifest no longer lists. This is both
// the startup path and the SIGHUP / POST /v1/reload path; a build
// failure mid-reload leaves the previous models serving.
func installModels(reg *treeexec.ModelRegistry, mf *Manifest, d buildDefaults, workers int) error {
	want := make(map[string]bool, len(mf.Models))
	for _, raw := range mf.Models {
		spec := raw.withDefaults(d)
		if want[spec.Name] {
			return fmt.Errorf("manifest lists model %q twice", spec.Name)
		}
		want[spec.Name] = true
		m, _, err := buildModel(spec, workers)
		if err != nil {
			return err
		}
		if _, registered := reg.Get(spec.Name); registered {
			if err := reg.Swap(spec.Name, m); err != nil {
				m.Close()
				return err
			}
			log.Printf("model %q: hot-swapped (%s, %d nodes)", spec.Name, m.Engine().Name(), m.Engine().ArenaNodes())
		} else {
			if err := reg.Register(m); err != nil {
				m.Close()
				return err
			}
			log.Printf("model %q: registered (%s, %d nodes, x%d %s)", spec.Name,
				m.Engine().Name(), m.Engine().ArenaNodes(), m.Engine().Interleave(), m.Engine().Kernel())
		}
		if spec.Calibration != "" {
			if err := warmStartFromFile(reg, spec.Name, spec.Calibration); err != nil {
				log.Printf("model %q: warm start from %s skipped: %v", spec.Name, spec.Calibration, err)
			} else {
				log.Printf("model %q: warm-started from %s", spec.Name, spec.Calibration)
			}
		}
	}
	for _, name := range reg.Names() {
		if !want[name] {
			if err := reg.Remove(name); err != nil {
				return err
			}
			log.Printf("model %q: removed (no longer in manifest)", name)
		}
	}
	return nil
}

// Connection timeouts. A predict request's headers are a few hundred
// bytes, so a client that has not sent them within headerTimeout is
// stalled or hostile and loses its connection. The body may be up to
// 32 MiB, and a response waits for the queue and one predict, hence
// the wider read and write bounds; idle keep-alive connections are
// reaped after idleTimeout.
const (
	headerTimeout = 2 * time.Second
	readTimeout   = 30 * time.Second
	writeTimeout  = 30 * time.Second
	idleTimeout   = 2 * time.Minute
)

// newHTTPServer builds the listener-side server with every connection
// timeout set, so slow or stalled clients cannot hold connections (and
// their goroutines) open forever.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: headerTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func warmStartFromFile(reg *treeexec.ModelRegistry, name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = reg.LoadCalibration(name, f)
	return err
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		manifest = flag.String("manifest", "", "model-set manifest (JSON); empty builds -datasets with the defaults below")
		datasets = flag.String("datasets", strings.Join(dataset.Names(), ","), "comma-separated workloads for the default manifest")
		rows     = flag.Int("rows", 4000, "default synthetic dataset size per model")
		trees    = flag.Int("trees", 30, "default trees per model")
		depth    = flag.Int("depth", 20, "default max depth per model")
		seed     = flag.Int64("seed", 1, "default train/generate seed per model")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "Batcher workers per model")
		maxRows  = flag.Int("maxrows", 0, "coalescing cap: rows per batch (0: serve default)")
		maxQueue = flag.Int("maxqueue", 0, "admission bound: queued requests per model (0: serve default)")

		selfcheck     = flag.Bool("selfcheck", false, "smoke mode: serve on loopback, fire concurrent requests, verify against in-process Predict, exit")
		selfcheckReqs = flag.Int("selfcheckreqs", 64, "requests per model in -selfcheck")
	)
	flag.Parse()

	d := buildDefaults{rows: *rows, trees: *trees, depth: *depth, seed: *seed}
	var mf *Manifest
	var err error
	if *manifest != "" {
		mf, err = loadManifest(*manifest)
	} else {
		mf, err = defaultManifest(*datasets)
	}
	if err != nil {
		log.Fatal(err)
	}
	cfg := serve.Config{MaxBatchRows: *maxRows, MaxQueue: *maxQueue}

	if *selfcheck {
		if err := runSelfCheck(mf, d, cfg, *workers, *selfcheckReqs); err != nil {
			log.Fatalf("selfcheck FAILED: %v", err)
		}
		log.Println("selfcheck passed")
		return
	}

	reg := treeexec.NewModelRegistry()
	if err := installModels(reg, mf, d, *workers); err != nil {
		log.Fatal(err)
	}
	srv := serve.New(reg, cfg)
	var reloadMu sync.Mutex
	reload := func() error {
		reloadMu.Lock()
		defer reloadMu.Unlock()
		if *manifest != "" {
			fresh, err := loadManifest(*manifest)
			if err != nil {
				return err
			}
			mf = fresh
		}
		return installModels(reg, mf, d, *workers)
	}
	srv.SetReload(reload)

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			log.Println("SIGHUP: reloading models")
			if err := reload(); err != nil {
				log.Printf("reload failed (previous models keep serving): %v", err)
			}
		}
	}()

	httpSrv := newHTTPServer(*addr, srv.Handler())
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		log.Println("shutting down")
		_ = httpSrv.Close()
	}()
	log.Printf("serving %d models on %s", len(reg.Names()), *addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	srv.Close()
	reg.Close()
}

// runSelfCheck is the CI smoke: build the manifest's models, serve them
// on a loopback port, fire concurrent single-row and batch requests at
// every model over real HTTP, compare each answer bit-for-bit with the
// in-process engine, and exercise one hot reload mid-traffic (same
// manifest — deterministic builds mean answers must not change).
func runSelfCheck(mf *Manifest, d buildDefaults, cfg serve.Config, workers, reqs int) error {
	reg := treeexec.NewModelRegistry()
	defer reg.Close()
	if err := installModels(reg, mf, d, workers); err != nil {
		return err
	}

	// In-process references, computed before any serving.
	type target struct {
		name string
		rows [][]float32
		want []int32
	}
	var targets []target
	for _, raw := range mf.Models {
		spec := raw.withDefaults(d)
		m, rows, err := buildModel(spec, workers) // same spec → same forest → same answers
		if err != nil {
			return err
		}
		want := m.Engine().PredictBatch(rows, nil, 1, 0)
		m.Close()
		targets = append(targets, target{name: spec.Name, rows: rows, want: want})
	}

	srv := serve.New(reg, cfg)
	defer srv.Close()
	srv.SetReload(func() error { return installModels(reg, mf, d, workers) })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer("", srv.Handler())
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	var failures atomic.Uint64
	firstErr := make(chan error, 1)
	fail := func(err error) {
		failures.Add(1)
		select {
		case firstErr <- err:
		default:
		}
	}
	var wg sync.WaitGroup
	const concurrency = 8
	for _, tg := range targets {
		for g := 0; g < concurrency; g++ {
			wg.Add(1)
			go func(tg target, g int) {
				defer wg.Done()
				for i := g; i < reqs; i += concurrency {
					lo := (i * 7) % len(tg.rows)
					var body, expectKind string
					var expect []int32
					if i%2 == 0 {
						row, _ := json.Marshal(tg.rows[lo])
						body, expectKind = fmt.Sprintf(`{"row":%s}`, row), "single"
						expect = tg.want[lo : lo+1]
					} else {
						hi := lo + 16
						if hi > len(tg.rows) {
							hi = len(tg.rows)
						}
						rows, _ := json.Marshal(tg.rows[lo:hi])
						body, expectKind = fmt.Sprintf(`{"rows":%s}`, rows), "batch"
						expect = tg.want[lo:hi]
					}
					resp, err := http.Post(base+"/v1/models/"+tg.name+":predict", "application/json", strings.NewReader(body))
					if err != nil {
						fail(fmt.Errorf("%s %s request: %w", tg.name, expectKind, err))
						return
					}
					var pr struct {
						Classes []int32 `json:"classes"`
					}
					err = json.NewDecoder(resp.Body).Decode(&pr)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						fail(fmt.Errorf("%s %s request: status %d, decode err %v", tg.name, expectKind, resp.StatusCode, err))
						return
					}
					if len(pr.Classes) != len(expect) {
						fail(fmt.Errorf("%s: %d classes, want %d", tg.name, len(pr.Classes), len(expect)))
						return
					}
					for j := range expect {
						if pr.Classes[j] != expect[j] {
							fail(fmt.Errorf("%s row %d: HTTP answer %d != in-process %d", tg.name, lo+j, pr.Classes[j], expect[j]))
							return
						}
					}
				}
			}(tg, g)
		}
	}

	// One hot reload while the request storm runs: Swap under traffic.
	reloadDone := make(chan error, 1)
	go func() {
		time.Sleep(10 * time.Millisecond)
		resp, err := http.Post(base+"/v1/reload", "", nil)
		if err != nil {
			reloadDone <- err
			return
		}
		raw, _ := json.Marshal(resp.StatusCode)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			reloadDone <- fmt.Errorf("reload status %s", raw)
			return
		}
		reloadDone <- nil
	}()
	wg.Wait()
	if err := <-reloadDone; err != nil {
		return fmt.Errorf("hot reload under traffic: %w", err)
	}
	if n := failures.Load(); n > 0 {
		return fmt.Errorf("%d request failures; first: %v", n, <-firstErr)
	}

	// The status surface answered through the same storm.
	resp, err := http.Get(base + "/v1/models")
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, tg := range targets {
		if !bytes.Contains(buf.Bytes(), []byte(fmt.Sprintf("%q", tg.name))) {
			return fmt.Errorf("GET /v1/models does not list %q: %s", tg.name, buf.String())
		}
	}
	log.Printf("selfcheck: %d models × %d requests verified against in-process Predict (1 hot reload mid-traffic)",
		len(targets), reqs)
	return nil
}
