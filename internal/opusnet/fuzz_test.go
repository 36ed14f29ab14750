package opusnet

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"testing"

	"photonrail/internal/scenario"
)

// seedFrame encodes m as one frame for the fuzz corpus.
func seedFrame(tb testing.TB, m *Message) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzMessageRoundTrip feeds arbitrary bytes to the frame decoder and
// checks the codec invariants: decoding never panics; any byte stream
// the decoder accepts re-encodes to a frame that decodes to the same
// message (re-encode/re-decode fixpoint); and the re-encoded stream is
// fully consumed (framing stays self-delimiting). Seeds cover every
// message type, including a grid served as exp_req "grid" and a
// cells_req subset ticking as exp_progress.
func FuzzMessageRoundTrip(f *testing.F) {
	seeds := []*Message{
		{Type: MsgRegister, Seq: 1, Rank: 3, Rail: 0, Group: "fsdp.s0.r0", Ranks: []int{0, 4, 8, 12}, Axis: 1},
		{Type: MsgAcquire, Seq: 2, Rank: 4, Rail: 1, Group: "tp"},
		{Type: MsgRelease, Seq: 3, Rank: 4, Rail: 1, Group: "tp"},
		{Type: MsgProvision, Seq: 4, Rank: 0, Rail: 0, Group: "pp"},
		{Type: MsgAck, Seq: 5},
		{Type: MsgErr, Seq: 6, Error: "circuit conflict"},
		{Type: MsgStatsReq, Seq: 7},
		{Type: MsgStatsResp, Seq: 8, Stats: &StatsPayload{Reconfigurations: 9, FastGrants: 12, QueuedGrants: 3, BlockedTimeNS: 1e6, ProvisionedRequests: 2}},
		{Type: MsgExpReq, Seq: 9, Exp: &ExpRequestPayload{Name: "grid", TimeoutMS: 60_000, Grid: &scenario.Spec{
			Name: "fig8-5d", Models: []string{"Llama3-8B", "Mixtral-8x7B"}, GPUs: []string{"A100"},
			Fabrics:      []string{"electrical", "photonic", "provisioned", "static"},
			LatenciesMS:  []float64{1, 10, 100},
			Parallelisms: []scenario.Parallelism{{TP: 4, DP: 2, PP: 2}, {TP: 4, DP: 1, CP: 2, PP: 2}},
			Schedules:    []string{"1F1B"}, NICPorts: 2, NICPerPortBps: 200e9,
			Microbatches: 12, MicrobatchSize: 2, Iterations: 2,
		}}},
		{Type: MsgExpProgress, Seq: 9, Progress: &GridProgress{Done: 17, Total: 48}},
		{Type: MsgExpResult, Seq: 9, ExpResult: &ExpResultPayload{
			Name: "grid", Grid: "fig8-5d",
			Rendered:    "Grid fig8-5d\ncell  status\n\n2 cells: 1 ok, 1 skipped\n",
			RenderedCSV: "cell,model,gpu,fabric,latency_ms\n",
			RowsJSON:    "{\n  \"grid\": \"fig8-5d\",\n  \"cells\": []\n}\n",
			Shared:      true,
		}},
		{Type: MsgStatsResp, Seq: 12, Cache: &CacheStatsPayload{Hits: 100, Misses: 7, Evictions: 3, InFlight: 2, ExpsExecuted: 2, ExpsDeduped: 5}},
		{Type: MsgExpReq, Seq: 13, Exp: &ExpRequestPayload{
			Name: "fig8", TimeoutMS: 5000, Iterations: 2, LatenciesMS: []float64{0, 10, 100}, Rail: 1}},
		{Type: MsgExpReq, Seq: 14, Exp: &ExpRequestPayload{
			Name: "grid", Grid: &scenario.Spec{Name: "custom", Models: []string{"Llama3-8B"}, LatenciesMS: []float64{5}}}},
		{Type: MsgExpProgress, Seq: 13, Progress: &GridProgress{Done: 2, Total: 3}},
		{Type: MsgExpResult, Seq: 13, ExpResult: &ExpResultPayload{
			Name: "fig8", Grid: "", Rendered: "Fig. 8\ncol  col\n", RenderedCSV: "a,b\n1,2\n",
			RowsJSON: "{\n  \"iterations\": 2\n}\n", Shared: true}},
		{Type: MsgCancel, Seq: 13},
		{Type: MsgCellsReq, Seq: 15, Cells: &CellsRequestPayload{
			Spec:    &scenario.Spec{Name: "fig8-5d", Models: []string{"Llama3-8B"}, LatenciesMS: []float64{1, 10}},
			Indices: []int{0, 3, 7, 41}, TimeoutMS: 30_000}},
		{Type: MsgCellsResult, Seq: 15, CellsResult: &CellsResultPayload{
			Name: "fig8-5d", Indices: []int{0, 3},
			Rows: []scenario.Row{
				{Cell: "a/b/tp4-dp2-pp2/1F1B/electrical", Status: "ok", MeanIterationSeconds: 11.5, Slowdown: 1},
				{Cell: "a/b/tp4-dp2-pp2/1F1B/static", Status: "skip", SkipReason: "C2"},
			},
			Shared: true}},
		{Type: MsgStatsResp, Seq: 16, Cache: &CacheStatsPayload{
			Hits: 3, Misses: 2, CellsExecuted: 17, CellsDeduped: 2,
			Backends: []BackendStatsPayload{
				{Addr: "127.0.0.1:9090", Healthy: true, Cells: 12},
				{Addr: "127.0.0.1:9091", Healthy: false, Cells: 5, Failures: 1},
			}}},
		{Type: MsgFleetRegister, Seq: 17, FleetReg: &FleetRegisterPayload{
			ID: "node-a", Addr: "10.0.0.7:9090", Capacity: 16}},
		{Type: MsgHeartbeat, Seq: 18, Heartbeat: &HeartbeatPayload{
			ID: "node-a", Capacity: 16,
			Stats: &CacheStatsPayload{Hits: 9, Misses: 4, InFlight: 1, CellsExecuted: 6}}},
		{Type: MsgDrain, Seq: 19, DrainReq: &DrainPayload{ID: "node-a", Reason: "sigterm"}},
	}
	for _, m := range seeds {
		f.Add(seedFrame(f, m))
	}
	// Adversarial seeds: truncated header, zero length, oversized length,
	// non-JSON body, two concatenated frames.
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})
	f.Add([]byte{0, 0, 0, 2, '{', 'x'})
	f.Add(append(seedFrame(f, &Message{Type: MsgAck, Seq: 1}), seedFrame(f, &Message{Type: MsgErr, Seq: 2, Error: "e"})...))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		msg, err := ReadMessage(r)
		if err != nil {
			return // rejected input: only the no-panic invariant applies
		}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, msg); err != nil {
			t.Fatalf("accepted message failed to re-encode: %v\nmsg: %+v", err, msg)
		}
		again, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		// Compare canonical encodings, not structs: an accepted "[]"
		// decodes to an empty slice that re-decodes to nil — the same
		// wire bytes either way.
		first, err := json.Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip diverged:\n first: %s\nsecond: %s", first, second)
		}
		if buf.Len() != 0 {
			t.Fatalf("re-encoded frame left %d trailing bytes", buf.Len())
		}
	})
}

// TestGridMessagesRoundTrip pins the raild frames outside the fuzzer:
// exact field-level equality through the wire, including a grid served
// as exp_req "grid", a cell subset ticking as exp_progress, and nested
// spec, row, and experiment payloads. The experiment result's pre-rendered
// strings must survive verbatim (they are the client's output bytes).
func TestGridMessagesRoundTrip(t *testing.T) {
	spec := scenario.SpecOf(scenario.Fig8Grid5D())
	msgs := []*Message{
		{Type: MsgExpReq, Seq: 21, Exp: &ExpRequestPayload{Name: "grid", Grid: &spec}},
		{Type: MsgExpProgress, Seq: 21, Progress: &GridProgress{Done: 3, Total: 48}},
		{Type: MsgExpResult, Seq: 21, ExpResult: &ExpResultPayload{Name: "grid", Grid: "fig8-5d", Shared: true,
			RowsJSON: "{\n  \"grid\": \"fig8-5d\",\n  \"cells\": [\n    {\n      \"cell\": \"c\"\n    }\n  ]\n}\n"}},
		{Type: MsgStatsResp, Seq: 22, Cache: &CacheStatsPayload{Hits: 5, ExpsExecuted: 3, ExpsDeduped: 2}},
		{Type: MsgExpReq, Seq: 23, Exp: &ExpRequestPayload{
			Name: "window-analysis", TimeoutMS: 30_000, WindowIterations: 4, GPUs: 1024, Grid: &spec}},
		{Type: MsgExpProgress, Seq: 23, Progress: &GridProgress{Done: 1, Total: 9}},
		{Type: MsgExpResult, Seq: 23, ExpResult: &ExpResultPayload{
			Name: "window-analysis", Grid: "fig8-5d",
			Rendered:    "Fig. 4a: window-size CDF per rail (ms)\nRail  N\n----  -\n\n",
			RenderedCSV: "rail,n\nrail1,6\n",
			RowsJSON:    "{\n  \"fractionOver1ms\": 1\n}\n",
			Shared:      true}},
		{Type: MsgCancel, Seq: 23},
		{Type: MsgCellsReq, Seq: 24, Cells: &CellsRequestPayload{
			Spec: &spec, Indices: []int{1, 2, 40}, TimeoutMS: 60_000}},
		{Type: MsgExpProgress, Seq: 24, Progress: &GridProgress{Done: 2, Total: 3}},
		{Type: MsgCellsResult, Seq: 24, CellsResult: &CellsResultPayload{
			Name: "fig8-5d", Indices: []int{1, 2, 40},
			Rows:   []scenario.Row{{Cell: "c1", Status: "ok", Slowdown: 1.5}, {Cell: "c2", Status: "skip", SkipReason: "EP"}, {Cell: "c40", Status: "ok"}},
			Shared: true}},
		{Type: MsgStatsResp, Seq: 25, Cache: &CacheStatsPayload{
			CellsExecuted: 9, CellsDeduped: 1,
			Backends: []BackendStatsPayload{{Addr: "b0", Healthy: true, Cells: 9, Failures: 2}}}},
		{Type: MsgFleetRegister, Seq: 26, FleetReg: &FleetRegisterPayload{
			ID: "node-b", Addr: "b1", Capacity: 4}},
		{Type: MsgHeartbeat, Seq: 27, Heartbeat: &HeartbeatPayload{
			ID: "node-b", Capacity: 4, Stats: &CacheStatsPayload{Misses: 3, CellsExecuted: 5}}},
		{Type: MsgDrain, Seq: 28, DrainReq: &DrainPayload{ID: "node-b", Reason: "-drain"}},
		{Type: MsgStatsResp, Seq: 29, Cache: &CacheStatsPayload{
			Backends: []BackendStatsPayload{
				{Addr: "b0", Healthy: true, Cells: 9, ID: "s0", Capacity: 1, State: "healthy", Static: true},
				{Addr: "b1", Healthy: true, Cells: 5, ID: "node-b", Capacity: 4, State: "draining", LastHeartbeatAgeMS: 1200},
			}}},
	}
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip diverged:\n got: %s\nwant: %s", dump(t, got), dump(t, want))
		}
	}
	if _, err := ReadMessage(&buf); err != io.EOF {
		t.Fatalf("stream not fully consumed: %v", err)
	}
}

func dump(t *testing.T, m *Message) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
