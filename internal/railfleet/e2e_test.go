package railfleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"photonrail"
	"photonrail/internal/faultnet"
	"photonrail/internal/opusnet"
	"photonrail/internal/railserve"
	"photonrail/internal/scenario"
	"photonrail/internal/telemetry"
)

// fleet is one in-process coordinator + backends on the fault network.
type fleet struct {
	net      *faultnet.Network
	coord    *Coordinator
	backends []*railserve.Server
}

// newFleet builds an n-backend fleet on a fresh fault-injection
// network, without registering cleanup (the benchmark tears fleets
// down per iteration). Backend endpoints are named "b0".."bN-1"; the
// coordinator listens on "coord".
func newFleet(tb testing.TB, n, inFlight int) *fleet {
	tb.Helper()
	var logf func(format string, args ...any)
	if _, isTest := tb.(*testing.T); isTest {
		logf = tb.Logf // benchmarks stay quiet
	}
	fn := faultnet.New()
	fl := &fleet{net: fn}
	var addrs []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("b%d", i)
		s, err := railserve.NewServer(railserve.Config{Listener: fn.Listen(name), Workers: 2, Logf: logf})
		if err != nil {
			tb.Fatal(err)
		}
		fl.backends = append(fl.backends, s)
		addrs = append(addrs, name)
	}
	coord, err := New(Config{
		Listener: fn.Listen("coord"),
		Backends: addrs,
		InFlight: inFlight,
		Dial:     fn.Dial,
		Logf:     logf,
	})
	if err != nil {
		tb.Fatal(err)
	}
	fl.coord = coord
	return fl
}

// stop tears the fleet down, draining abandoned executions.
func (fl *fleet) stop() {
	_ = fl.coord.Close()
	fl.coord.Drain()
	for _, s := range fl.backends {
		_ = s.Close()
		s.Drain()
	}
	fl.net.Close()
}

// startFleet is newFleet with test-scoped cleanup.
func startFleet(t *testing.T, n, inFlight int) *fleet {
	t.Helper()
	fl := newFleet(t, n, inFlight)
	t.Cleanup(fl.stop)
	return fl
}

// dialCoord connects a railserve client to the fleet's coordinator —
// the unchanged-client compatibility point.
func (fl *fleet) dialCoord(t *testing.T) *railserve.Client {
	t.Helper()
	c, err := fl.dial()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// dial connects a client to the coordinator without test plumbing.
func (fl *fleet) dial() (*railserve.Client, error) {
	conn, err := fl.net.Dial("coord")
	if err != nil {
		return nil, err
	}
	return railserve.NewClient(conn), nil
}

// gridResult is one grid served as exp_req "grid", its rows decoded
// from the coordinator's JSON rendering.
type gridResult struct {
	Name   string
	Rows   []scenario.Row
	Shared bool
}

// runGrid submits spec as the registry experiment "grid" — the one
// grid path — and decodes the rows the coordinator rendered.
func runGrid(c *railserve.Client, spec scenario.Spec, onProgress func(done, total int)) (*gridResult, error) {
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

func rowsJSON(tb testing.TB, rows []scenario.Row) string {
	tb.Helper()
	b, err := json.Marshal(rows)
	if err != nil {
		tb.Fatal(err)
	}
	return string(b)
}

// fig8Ref computes the fig8-5d ground truth once for the package: the
// rows a single local engine produces and the simulations (misses) it
// needs.
var fig8RefOnce sync.Once
var fig8RefRows string
var fig8RefMisses uint64

func fig8Ref(t *testing.T) (string, uint64) {
	t.Helper()
	fig8RefOnce.Do(func() {
		en := photonrail.NewEngine(0)
		res, err := en.RunGrid(scenario.Fig8Grid5D())
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res.Rows())
		if err != nil {
			t.Fatal(err)
		}
		fig8RefRows = string(b)
		fig8RefMisses = en.CacheStats().Misses
	})
	return fig8RefRows, fig8RefMisses
}

// TestFleetGridByteIdentical is the acceptance loopback e2e: the
// 48-cell fig8-5d grid against a 3-backend fleet returns rows
// byte-identical to a single local run, with the cells actually
// distributed (every backend executes at least one) and zero
// duplicated simulation (fleet-wide misses equal one local run's).
func TestFleetGridByteIdentical(t *testing.T) {
	wantRows, wantMisses := fig8Ref(t)
	fl := startFleet(t, 3, 4)
	c := fl.dialCoord(t)

	spec := scenario.SpecOf(scenario.Fig8Grid5D())
	var mu sync.Mutex
	var ticks []int
	run, err := runGrid(c, spec, func(done, total int) {
		if total != 48 {
			t.Errorf("progress total = %d, want 48", total)
		}
		mu.Lock()
		ticks = append(ticks, done)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Name != "fig8-5d" || len(run.Rows) != 48 {
		t.Fatalf("run = %q with %d rows", run.Name, len(run.Rows))
	}
	if got := rowsJSON(t, run.Rows); got != wantRows {
		t.Fatal("fleet rows diverged from the local engine's")
	}

	// Aggregated progress streamed monotonically up to completion.
	mu.Lock()
	if len(ticks) == 0 {
		t.Fatal("no aggregated progress frames")
	}
	for i := 1; i < len(ticks); i++ {
		if ticks[i] <= ticks[i-1] {
			t.Fatalf("progress ticks not increasing: %v", ticks)
		}
	}
	if last := ticks[len(ticks)-1]; last != 48 {
		t.Errorf("final progress tick = %d, want 48", last)
	}
	mu.Unlock()

	// Cells actually distributed: every backend executed >= 1 cell, and
	// fleet-wide simulations equal a single local run's misses — the
	// workload-key sharding keeps every baseline on exactly one backend.
	var fleetMisses, fleetCells uint64
	for i, s := range fl.backends {
		st := s.Stats()
		if st.CellsExecuted == 0 {
			t.Errorf("backend %d executed no cells", i)
		}
		fleetMisses += st.Misses
		fleetCells += st.CellsExecuted
	}
	if fleetCells != 48 {
		t.Errorf("fleet executed %d cells, want 48 (no duplicated work)", fleetCells)
	}
	if fleetMisses != wantMisses {
		t.Errorf("fleet-wide misses = %d, want %d (a single local run's)", fleetMisses, wantMisses)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ExpsExecuted != 1 || st.ExpsDeduped != 0 {
		t.Errorf("coordinator exps executed/deduped = %d/%d, want 1/0", st.ExpsExecuted, st.ExpsDeduped)
	}
	if len(st.Backends) != 3 {
		t.Fatalf("stats carry %d backends, want 3", len(st.Backends))
	}
	for _, b := range st.Backends {
		if !b.Healthy || b.Cells == 0 {
			t.Errorf("backend %s: healthy=%v cells=%d, want healthy with cells", b.Addr, b.Healthy, b.Cells)
		}
	}
	if st.CellsExecuted != 48 {
		t.Errorf("aggregated cellsExecuted = %d, want 48", st.CellsExecuted)
	}
}

// TestFleetFailoverMidGrid is the acceptance failover e2e: one backend
// is killed mid-grid by the fault harness (at an exact served-frame
// count, so the kill lands between its first progress frame and its
// results), and the client still receives the full, byte-identical
// result — the dead backend's cells re-shard to the survivors.
func TestFleetFailoverMidGrid(t *testing.T) {
	wantRows, _ := fig8Ref(t)
	fl := startFleet(t, 3, 4)

	// Pick a backend that will receive cells under the static shard
	// assignment, and kill it after it has served 2 frames — mid-grid,
	// before it can deliver its first batch's result.
	cells := scenario.Fig8Grid5D().Expand()
	all := make([]int, len(cells))
	for i := range all {
		all[i] = i
	}
	assignment := Assign(cells, all, []int{0, 1, 2})
	victim := -1
	for bi, idxs := range assignment {
		if len(idxs) > 0 {
			victim = bi
			break
		}
	}
	if victim < 0 {
		t.Fatal("no backend received cells")
	}
	fl.net.Endpoint(fmt.Sprintf("b%d", victim)).KillAfterFrames(2)

	c := fl.dialCoord(t)
	run, err := runGrid(c, scenario.SpecOf(scenario.Fig8Grid5D()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsJSON(t, run.Rows); got != wantRows {
		t.Fatal("failover rows diverged from the local engine's")
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var deadSeen bool
	for _, b := range st.Backends {
		if b.Addr == fmt.Sprintf("b%d", victim) {
			deadSeen = true
			if b.Healthy {
				t.Errorf("killed backend %s still reported healthy", b.Addr)
			}
			if b.Failures == 0 {
				t.Errorf("killed backend %s reports no failures", b.Addr)
			}
		}
	}
	if !deadSeen {
		t.Fatalf("killed backend missing from stats: %+v", st.Backends)
	}
	// The survivors covered the whole grid between them.
	var fleetCells uint64
	for i, s := range fl.backends {
		if i == victim {
			continue
		}
		fleetCells += s.Stats().CellsExecuted
	}
	if fleetCells < 48-uint64(len(assignment[victim])) {
		t.Errorf("survivors executed %d cells, want >= %d", fleetCells, 48-len(assignment[victim]))
	}
}

// TestFleetAllBackendsDead: killing every backend fails the grid with
// a clear error instead of hanging.
func TestFleetAllBackendsDead(t *testing.T) {
	fl := startFleet(t, 2, 4)
	fl.net.Endpoint("b0").Kill()
	fl.net.Endpoint("b1").Kill()
	c := fl.dialCoord(t)
	_, err := runGrid(c, scenario.SpecOf(scenario.Grid{Name: "doomed", LatenciesMS: []float64{5}, Iterations: 1}), nil)
	if err == nil || !strings.Contains(err.Error(), "no live backends") {
		t.Fatalf("err = %v, want no-live-backends", err)
	}
}

// TestFleetDroppedProgressFrameHarmless: advisory progress frames may
// vanish (here: the backend's first served frame is dropped by the
// harness); the result must still be complete and correct.
func TestFleetDroppedProgressFrameHarmless(t *testing.T) {
	fl := startFleet(t, 2, 8)
	fl.net.Endpoint("b0").DropFrame(1)
	fl.net.Endpoint("b1").DropFrame(1)
	c := fl.dialCoord(t)
	spec := scenario.SpecOf(scenario.Grid{
		Name:        "droppy",
		Fabrics:     []scenario.FabricKind{scenario.Electrical, scenario.Photonic},
		LatenciesMS: []float64{5, 20},
		Iterations:  1,
	})
	run, err := runGrid(c, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	local, err := photonrail.NewEngine(0).RunGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rowsJSON(t, run.Rows), rowsJSON(t, local.Rows()); got != want {
		t.Fatal("rows diverged under dropped progress frames")
	}
}

// TestFleetHeldBackendStallsThenCompletes: a held backend (frames
// withheld until Release) stalls the fleet result — the coordinator
// must not return a partial grid — and Release lets the identical
// full result through.
func TestFleetHeldBackendStallsThenCompletes(t *testing.T) {
	fl := startFleet(t, 2, 8)
	// Two models x three parallelisms = six workload keys, which the
	// static shard assignment provably splits across both backends (the
	// t.Fatal below pins that; adjust axes if the shard hash changes).
	spec := scenario.Spec{
		Name:   "held",
		Models: []string{"Llama3-8B", "Mixtral-8x7B"},
		Parallelisms: []scenario.Parallelism{
			{TP: 4, DP: 2, PP: 2}, {TP: 2, DP: 2, PP: 2}, {TP: 4, DP: 1, CP: 2, PP: 2},
		},
		Fabrics:     []string{"electrical", "photonic"},
		LatenciesMS: []float64{5},
		Iterations:  1,
	}
	grid, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	cells := grid.Expand()
	all := make([]int, len(cells))
	for i := range all {
		all[i] = i
	}
	assignment := Assign(cells, all, []int{0, 1})
	if len(assignment[0]) == 0 || len(assignment[1]) == 0 {
		t.Fatalf("grid sharded onto one backend (%d/%d); pick axes that split", len(assignment[0]), len(assignment[1]))
	}
	held := fl.net.Endpoint("b0")
	held.HoldAtFrame(1)

	c := fl.dialCoord(t)
	type outcome struct {
		run *gridResult
		err error
	}
	res := make(chan outcome, 1)
	go func() {
		run, err := runGrid(c, spec, nil)
		res <- outcome{run, err}
	}()

	// The unheld backend finishes its whole share while b0 is gagged —
	// a deterministic wait on the coordinator's cell_complete events
	// (emitted only after a batch's rows are committed, so this is
	// strictly stronger than the old submission-counter poll).
	doneB1 := 0
	waitEvent(t, fl.coord.Telemetry(), func(ev telemetry.Event) bool {
		if ev.Type == "cell_complete" && ev.Backend == "b1" {
			doneB1 += ev.Cells
		}
		return doneB1 >= len(assignment[1])
	})
	select {
	case out := <-res:
		t.Fatalf("result delivered while a backend was held: %+v", out)
	default:
	}
	held.Release()
	out := <-res
	if out.err != nil {
		t.Fatal(out.err)
	}
	local, err := photonrail.NewEngine(0).RunGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rowsJSON(t, out.run.Rows), rowsJSON(t, local.Rows()); got != want {
		t.Fatal("rows diverged after a hold/release")
	}
}

// TestFleetSingleflightDedup: two concurrent identical grid requests
// coalesce onto ONE fleet execution; both clients get byte-identical
// rows and exactly one is flagged shared.
func TestFleetSingleflightDedup(t *testing.T) {
	fl := startFleet(t, 2, 8)
	// Gate the fleet execution so the requests provably overlap.
	gate := make(chan struct{})
	fl.coord.core.SetExecGate(gate)
	c1 := fl.dialCoord(t)
	c2 := fl.dialCoord(t)
	spec := scenario.SpecOf(scenario.Grid{Name: "dedup", LatenciesMS: []float64{5}, Iterations: 1})
	type outcome struct {
		run *gridResult
		err error
	}
	res := make(chan outcome, 2)
	submit := func(c *railserve.Client) {
		go func() {
			run, err := runGrid(c, spec, nil)
			res <- outcome{run, err}
		}()
	}
	submit(c1)
	// The second joins once the first's execution is registered: the
	// "submitted" event is emitted strictly after the run is visible in
	// the coordinator's run map, so the join is guaranteed, not timed.
	waitEvent(t, fl.coord.Telemetry(), func(ev telemetry.Event) bool { return ev.Type == "submitted" })
	submit(c2)
	waitEvent(t, fl.coord.Telemetry(), func(ev telemetry.Event) bool { return ev.Type == "deduped" })
	close(gate)
	var runs []*gridResult
	for i := 0; i < 2; i++ {
		out := <-res
		if out.err != nil {
			t.Fatal(out.err)
		}
		runs = append(runs, out.run)
	}
	if runs[0].Shared == runs[1].Shared {
		t.Errorf("shared flags = %v/%v, want exactly one joined request", runs[0].Shared, runs[1].Shared)
	}
	if got, want := rowsJSON(t, runs[0].Rows), rowsJSON(t, runs[1].Rows); got != want {
		t.Fatal("coalesced fleet results diverged")
	}
}

// waitEvent blocks until pred matches over the telemetry event stream
// (retained ring replayed first, then live events) — the deterministic
// replacement for the old waitCoordStats sleep-poll: a successful
// return guarantees the predicate saw a complete event window.
func waitEvent(t *testing.T, tel *telemetry.Set, pred func(telemetry.Event) bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := tel.Events.WaitFor(ctx, pred); err != nil {
		t.Fatalf("event wait: %v", err)
	}
}

// TestFleetExpPathByteIdenticalToDaemon: a grid experiment served by
// the fleet renders byte-identically to the same request served by a
// single raild daemon — the coordinator-side rendering really is the
// daemon's.
func TestFleetExpPathByteIdenticalToDaemon(t *testing.T) {
	spec := scenario.SpecOf(scenario.Grid{
		Name:        "exp-grid",
		Fabrics:     []scenario.FabricKind{scenario.Electrical, scenario.Photonic, scenario.PhotonicStatic},
		LatenciesMS: []float64{5},
		Iterations:  1,
	})
	req := opusnet.ExpRequestPayload{Name: "grid", Grid: &spec}

	// Reference: one plain raild daemon.
	single, err := railserve.NewServer(railserve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = single.Close(); single.Drain() })
	sc, err := railserve.Dial(single.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sc.Close() })
	want, err := sc.RunExperiment(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}

	fl := startFleet(t, 3, 4)
	c := fl.dialCoord(t)
	var ticks []int
	var mu sync.Mutex
	got, err := c.RunExperiment(context.Background(), req, func(done, total int) {
		mu.Lock()
		ticks = append(ticks, done)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "grid" || got.Grid != "exp-grid" {
		t.Errorf("exp run = %q / grid %q", got.Name, got.Grid)
	}
	if got.Rendered != want.Rendered {
		t.Errorf("text rendering diverged:\n got: %q\nwant: %q", got.Rendered, want.Rendered)
	}
	if got.RenderedCSV != want.RenderedCSV {
		t.Error("CSV rendering diverged")
	}
	if got.RowsJSON != want.RowsJSON {
		t.Error("JSON rendering diverged")
	}
	mu.Lock()
	if len(ticks) == 0 {
		t.Error("no exp progress frames from the fleet")
	}
	mu.Unlock()
}

// TestFleetExpCancelPropagates: cancelling the only exp-path waiter
// cancels the fan-out — the client returns promptly while the backends
// are held, and releasing them does not resurrect the request.
func TestFleetExpCancelPropagates(t *testing.T) {
	fl := startFleet(t, 2, 8)
	gate := make(chan struct{})
	fl.coord.core.SetExecGate(gate)
	defer close(gate)
	c := fl.dialCoord(t)
	spec := scenario.SpecOf(scenario.Grid{Name: "cancel", LatenciesMS: []float64{5}, Iterations: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.RunExperiment(ctx, opusnet.ExpRequestPayload{Name: "grid", Grid: &spec}, nil)
		done <- err
	}()
	waitEvent(t, fl.coord.Telemetry(), func(ev telemetry.Event) bool {
		return ev.Type == "submitted" && ev.Exp == "grid"
	})
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled fleet experiment did not return promptly")
	}
	// The connection survives the cancellation.
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetProxiesNonGridExperiments: a non-grid experiment is proxied
// to a backend and rendered byte-identically to a local run — and
// survives the preferred backend being dead (failover to the next).
func TestFleetProxiesNonGridExperiments(t *testing.T) {
	e, ok := photonrail.Lookup("table3")
	if !ok {
		t.Fatal("table3 not registered")
	}
	res, err := e.Run(context.Background(), photonrail.NewEngine(1), photonrail.Params{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.RenderText(&want); err != nil {
		t.Fatal(err)
	}

	fl := startFleet(t, 2, 8)
	// Kill the rendezvous-preferred backend so the proxy must fail over.
	preferred := fl.coord.proxyOrder("table3")[0].address()
	fl.net.Endpoint(preferred).Kill()
	c := fl.dialCoord(t)
	run, err := c.RunExperiment(context.Background(), opusnet.ExpRequestPayload{Name: "table3"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.Rendered != want.String() {
		t.Errorf("proxied table3 diverged:\n got: %q\nwant: %q", run.Rendered, want.String())
	}
}

// TestFleetRejectsBadRequests: the coordinator refuses what one daemon
// would refuse — before any backend sees the request.
func TestFleetRejectsBadRequests(t *testing.T) {
	fl := startFleet(t, 2, 8)
	c := fl.dialCoord(t)
	if _, err := runGrid(c, scenario.Spec{Models: []string{"GPT-9"}}, nil); err == nil ||
		!strings.Contains(err.Error(), "unknown model") {
		t.Errorf("bad model error = %v", err)
	}
	bomb := scenario.SpecOf(scenario.Grid{
		Name:         "bomb",
		Parallelisms: make([]scenario.Parallelism, 50_000),
		LatenciesMS:  make([]float64, 50_000),
		Fabrics:      []scenario.FabricKind{scenario.Photonic},
	})
	if _, err := runGrid(c, bomb, nil); err == nil || !strings.Contains(err.Error(), "request cap") {
		t.Errorf("cross-product bomb error = %v", err)
	}
	if _, err := c.RunExperiment(context.Background(), opusnet.ExpRequestPayload{Name: "fig99"}, nil); err == nil ||
		!strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("unknown experiment error = %v", err)
	}
	// No backend was ever touched.
	for i, s := range fl.backends {
		if st := s.Stats(); st.CellsExecuted != 0 || st.Misses != 0 {
			t.Errorf("backend %d stats = %+v, want untouched", i, st)
		}
	}
}

// TestFleetRetiredGridReqRefused: a raw grid_req frame — the retired
// legacy grid protocol — gets a prompt MsgErr "unsupported message
// type" on its own Seq from the coordinator, and the same connection
// then serves an exp_req grid: an out-of-tree old client fails loudly
// instead of hanging.
func TestFleetRetiredGridReqRefused(t *testing.T) {
	fl := startFleet(t, 1, 8)
	conn, err := fl.net.Dial("coord")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
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
	spec := scenario.SpecOf(scenario.Grid{Name: "after-refusal", LatenciesMS: []float64{5}, Iterations: 1})
	if err := opusnet.WriteMessage(conn, &opusnet.Message{Type: opusnet.MsgExpReq, Seq: 8,
		Exp: &opusnet.ExpRequestPayload{Name: "grid", Grid: &spec}}); err != nil {
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
		if m.Type != opusnet.MsgExpResult || m.Seq != 8 || m.ExpResult == nil || m.ExpResult.Grid != "after-refusal" {
			t.Fatalf("exp_req reply after the refusal = %+v, want the grid result on seq 8", m)
		}
		return
	}
}
