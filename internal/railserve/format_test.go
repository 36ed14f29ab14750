package railserve

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"photonrail"
	"photonrail/internal/opusnet"
	"photonrail/internal/scenario"
	"photonrail/internal/telemetry"
)

// renderings maps each exp_req format to the ExpRun field carrying it.
func renderings(run *ExpRun) map[string]string {
	return map[string]string{
		opusnet.FormatTable: run.Rendered,
		opusnet.FormatCSV:   run.RenderedCSV,
		opusnet.FormatJSON:  run.RowsJSON,
	}
}

// checkOnly fails unless run carries exactly want in format and no
// other rendering.
func checkOnly(t *testing.T, label string, run *ExpRun, format, want string) {
	t.Helper()
	for f, got := range renderings(run) {
		switch {
		case f == format && got != want:
			t.Errorf("%s: %s rendering diverged from the local renderer:\n got: %.200q\nwant: %.200q", label, f, got, want)
		case f != format && got != "":
			t.Errorf("%s: asked for %s, also got %d bytes of %s", label, format, len(got), f)
		}
	}
}

// TestExpFormatRendersOnlyNamed: a request naming a Format gets that
// one rendering, byte-equal to the local renderer, for a simulated
// sweep and for a grid.
func TestExpFormatRendersOnlyNamed(t *testing.T) {
	spec := scenario.SpecOf(scenario.Grid{Name: "fmt-grid", LatenciesMS: []float64{5}, Iterations: 1})
	cases := []struct {
		req opusnet.ExpRequestPayload
		p   photonrail.Params
	}{
		{opusnet.ExpRequestPayload{Name: "fig8", Iterations: 1, LatenciesMS: []float64{0, 10}},
			photonrail.Params{Iterations: 1, LatenciesMS: []float64{0, 10}}},
		{opusnet.ExpRequestPayload{Name: "grid", Grid: &spec}, photonrail.Params{Grid: &spec}},
	}
	s := newTestServer(t, 0, 0)
	c := dialTest(t, s)
	for _, tc := range cases {
		text, csv, rows := localRendering(t, tc.req.Name, tc.p)
		local := map[string]string{opusnet.FormatTable: text, opusnet.FormatCSV: csv, opusnet.FormatJSON: rows}
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

// TestExpUnknownFormatRefused: a Format outside table/csv/json is
// refused with MsgErr before anything executes.
func TestExpUnknownFormatRefused(t *testing.T) {
	s := newTestServer(t, 1, 0)
	c := dialTest(t, s)
	_, err := c.RunExperiment(context.Background(),
		opusnet.ExpRequestPayload{Name: "fig8", Iterations: 1, LatenciesMS: []float64{0}, Format: "yaml"}, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown rendering format") {
		t.Fatalf("unknown format err = %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ExpsExecuted != 0 || st.ExpsDeduped != 0 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want nothing executed for a refused format", st)
	}
}

// TestExpCoalesceAcrossFormats: two requests that differ only in Format
// coalesce onto one execution, and each still receives its own
// rendering.
func TestExpCoalesceAcrossFormats(t *testing.T) {
	s := newTestServer(t, 0, 0)
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // a failed wait must not leave the execution held
	s.core.SetExecGate(gate)
	c1 := dialTest(t, s)
	c2 := dialTest(t, s)
	base := opusnet.ExpRequestPayload{Name: "fig8", Iterations: 1, LatenciesMS: []float64{0, 10}}
	type outcome struct {
		run *ExpRun
		err error
	}
	submit := func(c *Client, format string) chan outcome {
		out := make(chan outcome, 1)
		req := base
		req.Format = format
		go func() {
			run, err := c.RunExperiment(context.Background(), req, nil)
			out <- outcome{run, err}
		}()
		return out
	}
	csvRes := submit(c1, opusnet.FormatCSV)
	waitServerEvent(t, s, func(ev telemetry.Event) bool { return ev.Type == "submitted" && ev.Exp == "fig8" })
	jsonRes := submit(c2, opusnet.FormatJSON)
	waitServerEvent(t, s, func(ev telemetry.Event) bool { return ev.Type == "deduped" && ev.Exp == "fig8" })
	release()

	_, csv, rows := localRendering(t, "fig8", photonrail.Params{Iterations: 1, LatenciesMS: []float64{0, 10}})
	for _, w := range []struct {
		res    chan outcome
		format string
		want   string
	}{{csvRes, opusnet.FormatCSV, csv}, {jsonRes, opusnet.FormatJSON, rows}} {
		select {
		case out := <-w.res:
			if out.err != nil {
				t.Fatalf("%s request: %v", w.format, out.err)
			}
			checkOnly(t, "coalesced fig8", out.run, w.format, w.want)
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
