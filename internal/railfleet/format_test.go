package railfleet

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"photonrail"
	"photonrail/internal/opusnet"
	"photonrail/internal/railserve"
	"photonrail/internal/scenario"
	"photonrail/internal/telemetry"
)

// localRenderings runs a registry experiment in-process and returns its
// rendering in each exp_req format.
func localRenderings(t *testing.T, name string, p photonrail.Params) map[string]string {
	t.Helper()
	e, _ := photonrail.Lookup(name)
	res, err := e.Run(context.Background(), photonrail.NewEngine(0), p)
	if err != nil {
		t.Fatal(err)
	}
	var text, csv, rows bytes.Buffer
	for _, err := range []error{res.RenderText(&text), res.RenderCSV(&csv), res.RenderJSON(&rows)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return map[string]string{opusnet.FormatTable: text.String(), opusnet.FormatCSV: csv.String(), opusnet.FormatJSON: rows.String()}
}

// checkOnly fails unless run carries exactly want in format and no
// other rendering.
func checkOnly(t *testing.T, label string, run *railserve.ExpRun, format, want string) {
	t.Helper()
	got := map[string]string{opusnet.FormatTable: run.Rendered, opusnet.FormatCSV: run.RenderedCSV, opusnet.FormatJSON: run.RowsJSON}
	for f, body := range got {
		switch {
		case f == format && body != want:
			t.Errorf("%s: %s rendering diverged from the local renderer:\n got: %.200q\nwant: %.200q", label, f, body, want)
		case f != format && body != "":
			t.Errorf("%s: asked for %s, also got %d bytes of %s", label, format, len(body), f)
		}
	}
}

// TestFleetFormatRendersOnlyNamed: the coordinator renders a fanned-out
// grid in the requested format only, and passes a proxied experiment's
// Format through to the backend — both byte-equal to the local
// renderer.
func TestFleetFormatRendersOnlyNamed(t *testing.T) {
	spec := scenario.SpecOf(scenario.Grid{Name: "fmt-grid", LatenciesMS: []float64{5}, Iterations: 1})
	cases := []struct {
		req opusnet.ExpRequestPayload
		p   photonrail.Params
	}{
		{opusnet.ExpRequestPayload{Name: "grid", Grid: &spec}, photonrail.Params{Grid: &spec}},
		{opusnet.ExpRequestPayload{Name: "fig8", Iterations: 1, LatenciesMS: []float64{0, 10}},
			photonrail.Params{Iterations: 1, LatenciesMS: []float64{0, 10}}},
	}
	fl := startFleet(t, 2, 8)
	c := fl.dialCoord(t)
	for _, tc := range cases {
		local := localRenderings(t, tc.req.Name, tc.p)
		for _, format := range []string{opusnet.FormatTable, opusnet.FormatCSV, opusnet.FormatJSON} {
			req := tc.req
			req.Format = format
			run, err := c.RunExperiment(context.Background(), req, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.req.Name, format, err)
			}
			checkOnly(t, tc.req.Name, run, format, local[format])
		}
	}
}

// TestFleetUnknownFormatRefused: the coordinator refuses an unknown
// Format with MsgErr before fanning out or proxying anything.
func TestFleetUnknownFormatRefused(t *testing.T) {
	fl := startFleet(t, 2, 8)
	c := fl.dialCoord(t)
	for _, req := range []opusnet.ExpRequestPayload{
		{Name: "fig8-5d", Format: "yaml"},
		{Name: "fig8", Format: "text"},
	} {
		if _, err := c.RunExperiment(context.Background(), req, nil); err == nil ||
			!strings.Contains(err.Error(), "unknown rendering format") {
			t.Fatalf("%s with format %q: err = %v", req.Name, req.Format, err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ExpsExecuted != 0 || st.CellsExecuted != 0 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want nothing executed for refused formats", st)
	}
}

// TestFleetCoalesceAcrossFormats: two grid requests that differ only in
// Format coalesce onto one fleet execution, and each still receives
// its own rendering.
func TestFleetCoalesceAcrossFormats(t *testing.T) {
	fl := startFleet(t, 2, 8)
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // a failed wait must not leave the execution held
	fl.coord.core.SetExecGate(gate)
	c1 := fl.dialCoord(t)
	c2 := fl.dialCoord(t)
	spec := scenario.SpecOf(scenario.Grid{Name: "fmt-dedup", LatenciesMS: []float64{5}, Iterations: 1})
	type outcome struct {
		run *railserve.ExpRun
		err error
	}
	submit := func(c *railserve.Client, format string) chan outcome {
		out := make(chan outcome, 1)
		go func() {
			run, err := c.RunExperiment(context.Background(),
				opusnet.ExpRequestPayload{Name: "grid", Grid: &spec, Format: format}, nil)
			out <- outcome{run, err}
		}()
		return out
	}
	tableRes := submit(c1, opusnet.FormatTable)
	waitEvent(t, fl.coord.Telemetry(), func(ev telemetry.Event) bool { return ev.Type == "submitted" })
	csvRes := submit(c2, opusnet.FormatCSV)
	waitEvent(t, fl.coord.Telemetry(), func(ev telemetry.Event) bool { return ev.Type == "deduped" })
	release()

	local := localRenderings(t, "grid", photonrail.Params{Grid: &spec})
	for _, w := range []struct {
		res    chan outcome
		format string
	}{{tableRes, opusnet.FormatTable}, {csvRes, opusnet.FormatCSV}} {
		select {
		case out := <-w.res:
			if out.err != nil {
				t.Fatalf("%s request: %v", w.format, out.err)
			}
			checkOnly(t, "coalesced grid", out.run, w.format, local[w.format])
		case <-time.After(60 * time.Second):
			t.Fatalf("%s request never got its result", w.format)
		}
	}
	st, err := c1.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ExpsExecuted != 1 || st.ExpsDeduped != 1 {
		t.Fatalf("exps executed/deduped = %d/%d, want 1/1", st.ExpsExecuted, st.ExpsDeduped)
	}
}
