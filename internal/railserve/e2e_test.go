package railserve

import (
	"context"
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"photonrail"
	"photonrail/internal/opusnet"
	"photonrail/internal/scenario"
	"photonrail/internal/telemetry"
)

func newTestServer(t *testing.T, workers int, maxCost int64) *Server {
	t.Helper()
	s, err := NewServer(Config{Workers: workers, MaxCacheCost: maxCost, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	// Close abandons in-flight executions by design; Drain afterwards so
	// none outlive the test that started them (they log via t.Logf).
	t.Cleanup(func() { _ = s.Close(); s.Drain() })
	return s
}

func dialTest(t *testing.T, s *Server) *Client {
	t.Helper()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// gridResult is one grid served as exp_req "grid", its rows decoded
// from the daemon's JSON rendering.
type gridResult struct {
	Name   string
	Rows   []scenario.Row
	Shared bool
}

// runGrid submits spec as the registry experiment "grid" — the one
// grid path — and decodes the rows the daemon rendered.
func runGrid(c *Client, spec scenario.Spec, onProgress func(done, total int)) (*gridResult, error) {
	run, err := c.RunExperiment(context.Background(), opusnet.ExpRequestPayload{Name: "grid", Grid: &spec}, onProgress)
	if err != nil {
		return nil, err
	}
	var doc photonrail.GridRows
	if err := json.Unmarshal([]byte(run.RowsJSON), &doc); err != nil {
		return nil, err
	}
	return &gridResult{Name: run.Grid, Rows: doc.Cells, Shared: run.Shared}, nil
}

func rowsJSON(t *testing.T, rows []scenario.Row) string {
	t.Helper()
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestLoopbackTwoConcurrentClientsDedup is the end-to-end loopback
// test: an in-process raild serves two concurrent railclient sessions
// requesting the same fig8-5d grid (exp_req "grid"). The daemon must
// coalesce them onto one execution (request-level singleflight: exactly
// one execution, zero additional simulations for the second client),
// stream exp_progress to both, and hand both byte-identical results.
func TestLoopbackTwoConcurrentClientsDedup(t *testing.T) {
	spec := scenario.SpecOf(scenario.Fig8Grid5D())
	grid, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(grid.Expand())

	// Reference: the same grid on a local engine; its miss count is the
	// simulation budget one execution needs, and its rows are the
	// ground-truth results.
	ref := photonrail.NewEngine(0)
	refRes, err := ref.RunGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	refMisses := ref.CacheStats().Misses
	wantRows := rowsJSON(t, refRes.Rows())

	s := newTestServer(t, 0, 0)
	// Hold the execution at the gate until both requests are registered,
	// so the dedup assertion is deterministic on any machine speed.
	gate := make(chan struct{})
	s.core.SetExecGate(gate)
	c1 := dialTest(t, s)
	c2 := dialTest(t, s)

	type outcome struct {
		run   *gridResult
		err   error
		ticks []int
	}
	results := make(chan outcome, 2)
	submit := func(c *Client) {
		go func() {
			var mu sync.Mutex
			var ticks []int
			run, err := runGrid(c, spec, func(done, total int) {
				if total != wantCells {
					t.Errorf("progress total = %d, want %d", total, wantCells)
				}
				mu.Lock()
				ticks = append(ticks, done)
				mu.Unlock()
			})
			mu.Lock()
			defer mu.Unlock()
			results <- outcome{run, err, ticks}
		}()
	}
	submit(c1)
	submit(c2)

	// Both grid requests are parked at the gate; the join shows up as a
	// dedup event on the server's lifecycle stream.
	var submitted, deduped bool
	waitServerEvent(t, s, func(ev telemetry.Event) bool {
		switch {
		case ev.Type == "submitted" && ev.Exp == "grid":
			submitted = true
		case ev.Type == "deduped" && ev.Exp == "grid":
			deduped = true
		}
		return submitted && deduped
	})
	close(gate) // release the execution with both subscribers attached

	var runs []*gridResult
	allTicks := make([][]int, 0, 2)
	for i := 0; i < 2; i++ {
		out := <-results
		if out.err != nil {
			t.Fatal(out.err)
		}
		runs = append(runs, out.run)
		allTicks = append(allTicks, out.ticks)
	}

	// Byte-identical results for both clients, equal to the local run.
	for i, run := range runs {
		if got := rowsJSON(t, run.Rows); got != wantRows {
			t.Fatalf("client %d rows diverged from the local engine's", i+1)
		}
		if run.Name != "fig8-5d" {
			t.Errorf("client %d grid name = %q", i+1, run.Name)
		}
	}
	// Exactly one of the two was the execution, the other the join.
	if runs[0].Shared == runs[1].Shared {
		t.Errorf("shared flags = %v/%v, want exactly one joined request", runs[0].Shared, runs[1].Shared)
	}

	// Request-level dedup: one execution, one coalesced request.
	st, err := c1.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ExpsExecuted != 1 || st.ExpsDeduped != 1 {
		t.Fatalf("exps executed/deduped = %d/%d, want 1/1", st.ExpsExecuted, st.ExpsDeduped)
	}
	// Zero additional simulations: the daemon ran exactly the misses one
	// local execution needs, no matter how many clients asked.
	if st.Misses != refMisses {
		t.Fatalf("daemon misses = %d, want %d (zero additional simulations)", st.Misses, refMisses)
	}
	if st.InFlight != 0 {
		t.Fatalf("inflight = %d after completion", st.InFlight)
	}

	// Both clients subscribed before the gate opened, so both streamed
	// monotonic progress up to completion.
	for i, ticks := range allTicks {
		if len(ticks) == 0 {
			t.Fatalf("client %d saw no progress frames", i+1)
		}
		for j := 1; j < len(ticks); j++ {
			if ticks[j] <= ticks[j-1] {
				t.Fatalf("client %d progress ticks not increasing: %v", i+1, ticks)
			}
		}
		if last := ticks[len(ticks)-1]; last != wantCells {
			t.Errorf("client %d final progress tick = %d, want %d", i+1, last, wantCells)
		}
	}
}

// TestRejectsOversizedGridBeforeExecuting: a grid expanding past the
// per-request cell cap is refused up front — no simulation runs, and
// the connection stays usable (the result frame could never have been
// encoded, so executing it would only burn minutes and drop the conn).
func TestRejectsOversizedGridBeforeExecuting(t *testing.T) {
	lats := make([]float64, 9000)
	for i := range lats {
		lats[i] = float64(i + 1)
	}
	spec := scenario.SpecOf(scenario.Grid{
		Name:        "huge",
		Fabrics:     []scenario.FabricKind{scenario.Photonic, scenario.PhotonicProvisioned},
		LatenciesMS: lats, // 18000 cells
		Iterations:  1,
	})
	s := newTestServer(t, 1, 0)
	c := dialTest(t, s)
	_, err := runGrid(c, spec, nil)
	if err == nil || !strings.Contains(err.Error(), "request cap") {
		t.Fatalf("oversized grid error = %v", err)
	}

	// A compact spec whose axes multiply out to billions of cells: the
	// cap must trip arithmetically, without the daemon ever trying to
	// materialize the cross-product.
	bomb := scenario.SpecOf(scenario.Grid{
		Name:         "bomb",
		Parallelisms: make([]scenario.Parallelism, 50_000),
		LatenciesMS:  make([]float64, 50_000),
		Fabrics:      []scenario.FabricKind{scenario.Photonic},
	})
	if _, err := runGrid(c, bomb, nil); err == nil || !strings.Contains(err.Error(), "request cap") {
		t.Fatalf("cross-product bomb error = %v", err)
	}

	st, serr := c.Stats()
	if serr != nil {
		t.Fatal(serr)
	}
	if st.ExpsExecuted != 0 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want zero executions for rejected grids", st)
	}
}

// TestWarmCacheAcrossSequentialRequests: a repeat of an already-served
// grid re-executes (the request is no longer in flight) but every cell
// is served from the warm memo cache — zero new simulations.
func TestWarmCacheAcrossSequentialRequests(t *testing.T) {
	spec := scenario.SpecOf(scenario.Grid{
		Name:        "warm",
		LatenciesMS: []float64{5},
		Iterations:  1,
	})
	s := newTestServer(t, 0, 0)
	c := dialTest(t, s)
	first, err := runGrid(c, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	st1, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	second, err := runGrid(c, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rowsJSON(t, second.Rows), rowsJSON(t, first.Rows); got != want {
		t.Fatal("warm rerun diverged from first run")
	}
	if st2.Misses != st1.Misses {
		t.Fatalf("misses grew %d -> %d on a warm rerun", st1.Misses, st2.Misses)
	}
	if st2.ExpsExecuted != 2 {
		t.Fatalf("exps executed = %d, want 2 (sequential requests both execute)", st2.ExpsExecuted)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	s := newTestServer(t, 1, 0)
	c := dialTest(t, s)

	if _, err := runGrid(c, scenario.Spec{Models: []string{"GPT-9"}}, nil); err == nil ||
		!strings.Contains(err.Error(), "unknown model") {
		t.Errorf("bad model error = %v", err)
	}
	if _, err := runGrid(c, scenario.Spec{JitterFracs: []float64{2}}, nil); err == nil ||
		!strings.Contains(err.Error(), "jitter") {
		t.Errorf("bad jitter error = %v", err)
	}
	// An unbounded name would make the result (or even the refusal)
	// frame unencodable; the refusal must not echo it.
	long := scenario.Spec{Name: strings.Repeat("n", 1<<20)}
	if _, err := runGrid(c, long, nil); err == nil ||
		!strings.Contains(err.Error(), "byte limit") || len(err.Error()) > 200 {
		t.Errorf("oversized name error = %.80v", err)
	}
	// The connection survives rejected requests.
	if _, err := c.Stats(); err != nil {
		t.Fatalf("stats after rejections: %v", err)
	}
}

// TestPipelinedRequestsOneConnection: distinct grids submitted
// concurrently on one connection resolve independently (correlated by
// seq), proving the read loop is never parked on an executing grid.
func TestPipelinedRequestsOneConnection(t *testing.T) {
	s := newTestServer(t, 0, 0)
	c := dialTest(t, s)
	specs := []scenario.Spec{
		scenario.SpecOf(scenario.Grid{Name: "p1", LatenciesMS: []float64{5}, Iterations: 1}),
		scenario.SpecOf(scenario.Grid{Name: "p2", LatenciesMS: []float64{20}, Iterations: 1}),
	}
	var wg sync.WaitGroup
	got := make([]*gridResult, len(specs))
	errs := make([]error, len(specs))
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec scenario.Spec) {
			defer wg.Done()
			got[i], errs[i] = runGrid(c, spec, nil)
		}(i, spec)
	}
	wg.Wait()
	for i := range specs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if got[i].Name != specs[i].Name {
			t.Errorf("request %d resolved to grid %q, want %q", i, got[i].Name, specs[i].Name)
		}
	}
}

// TestBoundedDaemonEvicts: a daemon with a tiny cache budget still
// serves correct results and reports evictions — the "safe to run
// indefinitely" property.
func TestBoundedDaemonEvicts(t *testing.T) {
	spec := scenario.SpecOf(scenario.Grid{
		Name:        "bounded",
		LatenciesMS: []float64{1, 10, 100},
		Iterations:  1,
	})
	s := newTestServer(t, 2, 1)
	c := dialTest(t, s)
	if _, err := runGrid(c, spec, nil); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Evictions == 0 {
		t.Fatalf("stats = %+v, want evictions under a 1-unit budget", st)
	}
}

// retiredGridReqRefused writes a raw grid_req frame — the retired
// legacy grid protocol — on conn and checks the server answers it
// promptly with MsgErr "unsupported message type" on the same Seq, then
// serves an exp_req on the same connection: an out-of-tree old client
// fails loudly instead of hanging, and the connection survives.
func retiredGridReqRefused(t *testing.T, conn net.Conn) {
	t.Helper()
	if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := opusnet.WriteMessage(conn, &opusnet.Message{Type: "grid_req", Seq: 7}); err != nil {
		t.Fatal(err)
	}
	m, err := opusnet.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != opusnet.MsgErr || m.Seq != 7 || !strings.Contains(m.Error, "unsupported message type") {
		t.Fatalf("grid_req reply = %+v, want MsgErr \"unsupported message type\" on seq 7", m)
	}
	if err := opusnet.WriteMessage(conn, &opusnet.Message{Type: opusnet.MsgExpReq, Seq: 8,
		Exp: &opusnet.ExpRequestPayload{Name: "table3"}}); err != nil {
		t.Fatal(err)
	}
	for {
		m, err := opusnet.ReadMessage(conn)
		if err != nil {
			t.Fatal(err)
		}
		if m.Type == opusnet.MsgExpProgress {
			continue
		}
		if m.Type != opusnet.MsgExpResult || m.Seq != 8 || m.ExpResult == nil || m.ExpResult.Rendered == "" {
			t.Fatalf("exp_req reply after the refusal = %+v, want the table3 result on seq 8", m)
		}
		return
	}
}

func TestRetiredGridReqRefused(t *testing.T) {
	s := newTestServer(t, 1, 0)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	retiredGridReqRefused(t, conn)
}
