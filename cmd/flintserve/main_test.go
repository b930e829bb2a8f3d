package main

import (
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flint/internal/serve"
	"flint/internal/treeexec"
)

var quick = buildDefaults{rows: 400, trees: 5, depth: 7, seed: 9}

// TestManifestDefaults pins spec defaulting: name/dataset mirror each
// other, zero shapes inherit the command-line defaults.
func TestManifestDefaults(t *testing.T) {
	s := ModelSpec{Name: "magic"}.withDefaults(quick)
	if s.Dataset != "magic" || s.Rows != 400 || s.Trees != 5 || s.Depth != 7 || s.Seed != 9 || s.Variant != "auto" {
		t.Fatalf("defaulted spec = %+v", s)
	}
	s = ModelSpec{Dataset: "wine", Trees: 3}.withDefaults(quick)
	if s.Name != "wine" || s.Trees != 3 {
		t.Fatalf("dataset-only spec = %+v", s)
	}
}

// TestLoadManifest pins the strict-JSON manifest contract.
func TestLoadManifest(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	os.WriteFile(good, []byte(`{"models":[{"name":"a","dataset":"magic"},{"name":"b","dataset":"wine","drift":true}]}`), 0o644)
	m, err := loadManifest(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Models) != 2 || m.Models[1].Drift != true {
		t.Fatalf("manifest = %+v", m)
	}

	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"models":[{"name":"a","unknown_field":1}]}`), 0o644)
	if _, err := loadManifest(bad); err == nil {
		t.Fatal("unknown manifest field accepted")
	}
	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, []byte(`{"models":[]}`), 0o644)
	if _, err := loadManifest(empty); err == nil {
		t.Fatal("empty manifest accepted")
	}
}

// TestDefaultManifest pins the -datasets path.
func TestDefaultManifest(t *testing.T) {
	m, err := defaultManifest("magic, wine")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Models) != 2 || m.Models[0].Name != "magic" || m.Models[1].Name != "wine" {
		t.Fatalf("default manifest = %+v", m)
	}
	if _, err := defaultManifest("nosuch"); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("unknown dataset error = %v", err)
	}
}

// TestInstallModelsReloadSemantics pins the reload algebra: a second
// install over the same manifest swaps in place, a shrunk manifest
// removes the vanished model, and the whole pass is answer-preserving
// for deterministic specs.
func TestInstallModelsReloadSemantics(t *testing.T) {
	reg := treeexec.NewModelRegistry()
	defer reg.Close()
	mf := &Manifest{Models: []ModelSpec{{Name: "magic"}, {Name: "wine"}}}
	if err := installModels(reg, mf, quick, 2); err != nil {
		t.Fatal(err)
	}
	if got := reg.Names(); len(got) != 2 {
		t.Fatalf("Names after install = %v", got)
	}
	first, _ := reg.Get("magic")

	if err := installModels(reg, mf, quick, 2); err != nil {
		t.Fatal(err)
	}
	second, _ := reg.Get("magic")
	if first == second {
		t.Fatal("reload did not swap in a fresh model")
	}
	if !first.Retired() {
		t.Fatal("reload did not drain the previous model")
	}

	mf.Models = mf.Models[:1] // drop wine
	if err := installModels(reg, mf, quick, 2); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Get("wine"); ok {
		t.Fatal("model removed from manifest still registered")
	}

	dup := &Manifest{Models: []ModelSpec{{Name: "magic"}, {Name: "magic"}}}
	if err := installModels(reg, dup, quick, 2); err == nil {
		t.Fatal("duplicate manifest names accepted")
	}
}

// TestSelfCheckSmoke runs the CI smoke path in-process on two small
// workloads: concurrent single-row and batch requests over real HTTP,
// verified against in-process Predict, with one hot reload mid-storm.
func TestSelfCheckSmoke(t *testing.T) {
	mf := &Manifest{Models: []ModelSpec{{Name: "magic"}, {Name: "wine", Drift: true}}}
	if err := runSelfCheck(mf, quick, serve.Config{}, 2, 16); err != nil {
		t.Fatal(err)
	}
}

// TestBuildModelVariants pins the variant switch, including the
// rejection path.
func TestBuildModelVariants(t *testing.T) {
	for _, v := range []string{"auto", "compact", "flint", "float32", "precoded"} {
		m, rows, err := buildModel(ModelSpec{Name: "magic", Variant: v}.withDefaults(quick), 1)
		if err != nil {
			t.Fatalf("variant %s: %v", v, err)
		}
		if len(rows) == 0 {
			t.Fatalf("variant %s: no test rows", v)
		}
		m.Close()
	}
	if _, _, err := buildModel(ModelSpec{Name: "magic", Variant: "nosuch"}.withDefaults(quick), 1); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

// TestServerDropsStalledHeaders pins the slow-client defence: a client
// that sends half its request headers and then stalls is disconnected
// once headerTimeout has passed, instead of holding its connection (and
// the server goroutine behind it) open forever.
func TestServerDropsStalledHeaders(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", http.NotFoundHandler())
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v1/models/magic:predict HTTP/1.1\r\nHost: flintserve\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(headerTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = conn.Read(make([]byte, 1))
	elapsed := time.Since(start)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("stalled client still connected after %v (header timeout %v)", elapsed, headerTimeout)
	}
	if err == nil || elapsed < headerTimeout/2 {
		t.Fatalf("read after %v returned %v, want the server to hang up at the %v header timeout", elapsed, err, headerTimeout)
	}
}
