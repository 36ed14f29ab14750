package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"photonrail/internal/railfleet"
	"photonrail/internal/railgate"
	"photonrail/internal/railserve"
	"photonrail/internal/resultstore"
)

// Stack shape: railgate HTTP (with a resultstore) → railfleet
// coordinator → stackBackends raild daemons with one engine worker
// each, every hop over loopback TCP.
const (
	stackBackends = 2
	backendWorker = 1
	gatewaySlots  = 4
)

// stack is one in-process serving stack. Every layer listens on
// 127.0.0.1, so each op crosses the same framing and sockets a
// deployed fleet would.
type stack struct {
	dir      string
	backends []*railserve.Server
	fleet    *railfleet.Coordinator
	runner   *railserve.Client // the gateway's connection to the fleet
	store    *resultstore.Store
	gate     *railgate.Gateway
	srv      *http.Server
	serveErr chan error
	url      string
}

// startStack brings the stack up in dir (which must not exist yet),
// with a result store under it when withStore is set. On error
// everything started so far is stopped.
func startStack(dir string, withStore bool) (st *stack, err error) {
	st = &stack{dir: dir}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	addrs := make([]string, 0, stackBackends)
	for i := 0; i < stackBackends; i++ {
		b, err := railserve.NewServer(railserve.Config{Addr: "127.0.0.1:0", Workers: backendWorker})
		if err != nil {
			return nil, fmt.Errorf("start raild %d: %w", i, err)
		}
		st.backends = append(st.backends, b)
		addrs = append(addrs, b.Addr())
	}
	if st.fleet, err = railfleet.New(railfleet.Config{Addr: "127.0.0.1:0", Backends: addrs, ReprobeInterval: -1}); err != nil {
		return nil, fmt.Errorf("start railfleet: %w", err)
	}
	if st.runner, err = railserve.Dial(st.fleet.Addr()); err != nil {
		return nil, fmt.Errorf("dial railfleet: %w", err)
	}
	cfg := railgate.Config{Runner: st.runner, Slots: gatewaySlots}
	if withStore {
		if st.store, err = resultstore.Open(resultstore.Config{Dir: filepath.Join(dir, "store")}); err != nil {
			return nil, fmt.Errorf("open resultstore: %w", err)
		}
		cfg.Store = st.store
	}
	if st.gate, err = railgate.New(cfg); err != nil {
		return nil, fmt.Errorf("start railgate: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen railgate: %w", err)
	}
	st.srv = &http.Server{Handler: st.gate.Handler()}
	st.serveErr = make(chan error, 1)
	go func() { st.serveErr <- st.srv.Serve(ln) }()
	st.url = "http://" + ln.Addr().String()
	return st, nil
}

// close stops every layer, outermost first, waits for the HTTP server
// to return, and removes the store directory.
func (st *stack) close() {
	if st.srv != nil {
		_ = st.srv.Close()
		<-st.serveErr
	}
	if st.gate != nil {
		st.gate.Close()
	}
	if st.runner != nil {
		_ = st.runner.Close()
	}
	if st.fleet != nil {
		_ = st.fleet.Close()
	}
	for _, b := range st.backends {
		_ = b.Close()
	}
	_ = os.RemoveAll(st.dir)
}

// httpClient is one closed-loop client: its own keep-alive connection
// and a reused response buffer.
type httpClient struct {
	c   *http.Client
	buf bytes.Buffer
}

func newHTTPClient() *httpClient {
	return &httpClient{c: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (hc *httpClient) close() { hc.c.CloseIdleConnections() }

// errWrongBytes marks an op whose response differed from its expected
// bytes.
var errWrongBytes = errors.New("response bytes differ from the expected rendering")

// do sends one op to the gateway and times it from send to the last
// body byte. The error reports a transport failure, a non-200 status
// (429 refusals included) or wrong bytes.
func (hc *httpClient) do(ctx context.Context, url string, o *op) (time.Duration, error) {
	return hc.send(ctx, url, o, true)
}

// fill sends an op whose bytes are not known yet (store pre-fill).
func (hc *httpClient) fill(ctx context.Context, url string, o *op) (time.Duration, error) {
	return hc.send(ctx, url, o, false)
}

func (hc *httpClient) send(ctx context.Context, url string, o *op, check bool) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/experiments/"+o.name, bytes.NewReader(o.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", o.accept)
	hc.buf.Reset()
	t0 := time.Now()
	resp, err := hc.c.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = hc.buf.ReadFrom(resp.Body)
	d := time.Since(t0)
	_ = resp.Body.Close()
	if err != nil {
		return d, err
	}
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("%s: status %d: %s", o.name, resp.StatusCode, strings.TrimSpace(hc.buf.String()))
	}
	if check && !o.matches(hc.buf.Bytes()) {
		return d, fmt.Errorf("%s (%s): %w", o.name, o.format, errWrongBytes)
	}
	return d, nil
}

// parallel runs fn(i) for i in [0,n) on workers goroutines and returns
// the first error.
func parallel(n, workers int, fn func(i int) error) error {
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if stop || i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
