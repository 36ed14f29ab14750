package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"photonrail/internal/goldentest"
)

// syncBuffer lets the gateway goroutine write output while the test
// polls it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startGateway runs the railgate CLI with the given extra flags — the
// flag parsing, backend dialing, and HTTP serving are what's under
// test — and returns the base URL.
func startGateway(t *testing.T, extra ...string) string {
	t.Helper()
	stop := make(chan os.Signal, 1)
	var out, errb syncBuffer
	done := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-parallel", "2"}, extra...)
	go func() { done <- run(args, &out, &errb, stop) }()
	t.Cleanup(func() {
		stop <- os.Interrupt
		if err := <-done; err != nil {
			t.Errorf("gateway shutdown: %v", err)
		}
	})
	listenRE := regexp.MustCompile(`listening on (http://\S+)`)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		select {
		case err := <-done:
			done <- err
			t.Fatalf("gateway exited early: %v; stderr: %s", err, errb.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway never reported listening; stderr: %s", errb.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGoldenGateway pins the HTTP front door byte for byte: the fig8-5d
// grid requested over plain HTTP/JSON must render exactly the committed
// corpus — and exactly the bytes cmd/railfleet's fleet corpus pins, in
// all three formats, so gateway, fleet, daemon, and local CLI all print
// the same result. It runs against a gateway without a store (each
// synchronous request asks its backend for one rendering) and one with
// a store (the first request stores all three; the others are store
// hits). CI runs this test in its loopback golden step. Regenerate this
// package's copy intentionally with `go test ./cmd/railgate -run Golden
// -update` (the railfleet corpus is never written from here).
func TestGoldenGateway(t *testing.T) {
	for _, mode := range []struct {
		name  string
		flags func(t *testing.T) []string
	}{
		{"no-store", func(*testing.T) []string { return nil }},
		{"store", func(t *testing.T) []string { return []string{"-store", t.TempDir()} }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			base := startGateway(t, mode.flags(t)...)
			for _, f := range []struct{ format, accept string }{
				{"json", "application/json"},
				{"table", "text/plain"},
				{"csv", "text/csv"},
			} {
				body := fetchGolden(t, base, f.accept)
				if f.format == "json" {
					goldentest.Check(t, body, filepath.Join("testdata", "golden", "fig8-5d.json"))
				}
				// The same bytes the fleet corpus commits: the front door
				// adds no rendering of its own.
				want, err := os.ReadFile(filepath.Join("..", "railfleet", "testdata", "golden", "fig8-5d."+f.format))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(body, want) {
					t.Errorf("gateway %s diverged from cmd/railfleet's fig8-5d golden corpus", f.format)
				}
			}
		})
	}
}

// fetchGolden POSTs the default fig8-5d grid with the given Accept and
// returns the 200 body.
func fetchGolden(t *testing.T, base, accept string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/experiments/fig8-5d", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", accept)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status = %d, body %s", accept, resp.StatusCode, body)
	}
	return body
}
