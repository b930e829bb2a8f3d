// Package serve is the network front-end over a treeexec.ModelRegistry:
// an HTTP/JSON server that accepts single rows and row batches from many
// concurrent connections and coalesces them into registry Predict calls.
// Coalescing adds no wait: a lane predicts as soon as it is idle and
// batches whatever queued behind the in-flight call, so a lone request
// is answered at once and, under load, the requests that arrived during
// one predict share the next.
//
// Endpoints:
//
//	POST /v1/models/{name}:predict  classify a row or batch of rows
//	GET  /v1/models                 status of every registered model
//	GET  /v1/models/{name}          status of one model
//	POST /v1/reload                 trigger the configured reload hook
//	GET  /metrics                   Prometheus-style text metrics
//	GET  /healthz                   liveness
//
// Each model gets an independent coalescing lane with bounded admission:
// requests beyond the queue bound are rejected immediately with 429
// rather than queued into unbounded latency. A registry hot swap
// (ModelRegistry.Swap) under live traffic is invisible here — the lane
// predicts through the registry, which retries retired models against
// the freshly flipped pointer, so no request is dropped mid-swap.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"flint/internal/treeexec"
)

// Config tunes the front-end; the zero value is serviceable.
type Config struct {
	// MaxBatchRows caps how many rows one coalesced predict carries;
	// requests are never split, so the last one drained may overshoot.
	// Default 256 — two of the Batcher's default 128-row blocks.
	MaxBatchRows int
	// MaxQueue bounds each model's pending-request queue; requests
	// arriving beyond it are rejected with 429 (admission control).
	// Default 1024.
	MaxQueue int
}

func (c Config) withDefaults() Config {
	if c.MaxBatchRows <= 0 {
		c.MaxBatchRows = 256
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 1024
	}
	return c
}

// ErrServerClosed is the error pending requests observe when the server
// shuts down underneath them; it surfaces as 503.
var ErrServerClosed = errors.New("serve: server closed")

// Server coalesces HTTP predict requests into registry Predict calls.
// Create with New, mount Handler on an http.Server, Close to drain.
type Server struct {
	reg *treeexec.ModelRegistry
	cfg Config

	mu     sync.Mutex
	lanes  map[string]*lane
	closed bool

	reload func() error // optional hot-reload hook (POST /v1/reload)
}

// New builds a Server over a registry. The registry stays owned by the
// caller — models registered or swapped after New are served without
// any further wiring.
func New(reg *treeexec.ModelRegistry, cfg Config) *Server {
	if reg == nil {
		panic("serve: New on nil registry")
	}
	return &Server{
		reg:   reg,
		cfg:   cfg.withDefaults(),
		lanes: make(map[string]*lane),
	}
}

// SetReload installs the hook POST /v1/reload triggers — typically the
// same manifest-rebuild-and-Swap path a SIGHUP takes in cmd/flintserve.
func (s *Server) SetReload(fn func() error) { s.reload = fn }

// Registry returns the registry the server fronts.
func (s *Server) Registry() *treeexec.ModelRegistry { return s.reg }

// Close stops every coalescing lane: queued requests fail with 503 and
// new ones are rejected. The registry and its models are left running —
// they belong to the caller.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	lanes := make([]*lane, 0, len(s.lanes))
	for _, l := range s.lanes {
		lanes = append(lanes, l)
	}
	s.mu.Unlock()
	for _, l := range lanes {
		close(l.stop)
		<-l.done
	}
}

// lane returns (creating on first use) the named model's coalescing
// lane, or nil once the server is closed.
func (s *Server) lane(name string) *lane {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	l, ok := s.lanes[name]
	if !ok {
		l = newLane(name, s.cfg.MaxQueue)
		s.lanes[name] = l
		go l.run(s)
	}
	return l
}

// Handler returns the server's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/models", s.handleList)
	mux.HandleFunc("GET /v1/models/{model}", s.handleModel)
	mux.HandleFunc("POST /v1/models/{model}", s.handlePredict)
	mux.HandleFunc("POST /v1/reload", s.handleReload)
	return mux
}

// modelPath extracts the model name from the {model} path element,
// accepting both "name" and the canonical "name:predict" action form.
func modelPath(r *http.Request) string {
	name := r.PathValue("model")
	if i := strings.IndexByte(name, ':'); i >= 0 {
		name = name[:i]
	}
	return name
}

type predictRequest struct {
	// Row carries a single row; Rows a batch. Exactly one must be set.
	Row  []float32   `json:"row,omitempty"`
	Rows [][]float32 `json:"rows,omitempty"`
}

type predictResponse struct {
	Model   string  `json:"model"`
	Classes []int32 `json:"classes"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds a predict request body; at 4 bytes per feature a
// 32 MiB body is far beyond any sane coalescing batch.
const maxBodyBytes = 32 << 20

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	name := modelPath(r)
	m, ok := s.reg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "no model %q registered", name)
		return
	}

	var req predictRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed request body: %v", err)
		return
	}
	rows := req.Rows
	if req.Row != nil {
		if rows != nil {
			writeError(w, http.StatusBadRequest, `request carries both "row" and "rows"`)
			return
		}
		rows = [][]float32{req.Row}
	}
	if len(rows) == 0 {
		writeError(w, http.StatusBadRequest, `request carries no rows (set "row" or "rows")`)
		return
	}
	nf := m.Engine().NumFeatures()
	for i, row := range rows {
		if len(row) != nf {
			writeError(w, http.StatusBadRequest, "row %d has %d features, model %q expects %d", i, len(row), name, nf)
			return
		}
	}

	l := s.lane(name)
	if l == nil {
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	start := time.Now()
	p := &pending{rows: rows, done: make(chan struct{})}
	l.requests.Add(1)
	if !l.enqueue(p) {
		l.rejected.Add(1)
		writeError(w, http.StatusTooManyRequests, "model %q predict queue is full (%d pending)", name, s.cfg.MaxQueue)
		return
	}

	select {
	case <-p.done:
	case <-l.done:
		// The lane exited; it may still have served p on its way out.
		select {
		case <-p.done:
		default:
			writeError(w, http.StatusServiceUnavailable, "server is shutting down")
			return
		}
	}
	l.lat.observe(time.Since(start))
	if p.err != nil {
		l.errors.Add(1)
		var unknown *treeexec.UnknownModelError
		switch {
		case errors.As(p.err, &unknown):
			writeError(w, http.StatusNotFound, "%v", p.err)
		case errors.Is(p.err, ErrServerClosed):
			writeError(w, http.StatusServiceUnavailable, "%v", p.err)
		default:
			writeError(w, http.StatusInternalServerError, "%v", p.err)
		}
		return
	}
	writeJSON(w, http.StatusOK, predictResponse{Model: name, Classes: p.classes})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Models []ModelStatus `json:"models"`
	}{Models: s.Status()})
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	name := modelPath(r)
	for _, st := range s.Status() {
		if st.Name == name {
			writeJSON(w, http.StatusOK, st)
			return
		}
	}
	writeError(w, http.StatusNotFound, "no model %q registered", name)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.reload == nil {
		writeError(w, http.StatusNotImplemented, "no reload hook configured")
		return
	}
	if err := s.reload(); err != nil {
		writeError(w, http.StatusInternalServerError, "reload failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Reloaded []string `json:"reloaded"`
	}{Reloaded: s.reg.Names()})
}
