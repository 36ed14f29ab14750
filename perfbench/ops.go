package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"photonrail"
	"photonrail/internal/opusnet"
	"photonrail/internal/scenario"
)

// op is one HTTP request to railgate and the bytes it must return.
type op struct {
	name   string                    // registry experiment
	req    opusnet.ExpRequestPayload // the wire parameters (Name set)
	body   []byte                    // the JSON parameter payload
	accept string
	format string // negotiated rendering: json, csv or table
	want   []byte
	// sum, when set, stands in for want: the SHA-256 of the expected
	// bytes, so a pool of thousands of references stays small.
	sum *[sha256.Size]byte
}

// matches reports whether body is the op's expected rendering.
func (o *op) matches(body []byte) bool {
	if o.sum != nil {
		return sha256.Sum256(body) == *o.sum
	}
	return bytes.Equal(body, o.want)
}

// params maps the op to registry parameters exactly as railgate and
// raild do, so keys and renderings agree with the served path.
func (o *op) params() photonrail.Params {
	p := photonrail.Params{LatenciesMS: o.req.LatenciesMS}
	if o.req.Grid != nil {
		spec := *o.req.Grid
		p.Grid = &spec
	}
	return p
}

func (o *op) key() string { return photonrail.ExperimentKey(o.name, o.params()) }

// formats are the Accept values ops rotate over and the rendering each
// negotiates.
var formats = []struct{ accept, format string }{
	{"application/json", "json"},
	{"text/csv", "csv"},
	{"text/plain", "table"},
}

func newOp(name string, req opusnet.ExpRequestPayload, f int) (*op, error) {
	body := []byte{}
	if req.LatenciesMS != nil || req.Grid != nil {
		var err error
		if body, err = json.Marshal(req); err != nil {
			return nil, err
		}
	}
	req.Name = name
	return &op{name: name, req: req, body: body, accept: formats[f].accept, format: formats[f].format}, nil
}

// render writes the result in one negotiated format.
func render(res *photonrail.ExperimentResult, format string) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	switch format {
	case "json":
		err = res.RenderJSON(&buf)
	case "csv":
		err = res.RenderCSV(&buf)
	default:
		err = res.RenderText(&buf)
	}
	return buf.Bytes(), err
}

// expect sets the SHA-256 of the op's expected bytes from a local
// Experiment.Run rendering on en.
func expect(ctx context.Context, en *photonrail.Engine, o *op) error {
	e, ok := photonrail.Lookup(o.name)
	if !ok {
		return fmt.Errorf("unknown experiment %q", o.name)
	}
	res, err := e.Run(ctx, en, o.params())
	if err != nil {
		return fmt.Errorf("reference %s: %w", o.name, err)
	}
	want, err := render(res, o.format)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(want)
	o.sum = &sum
	return nil
}

// gridEvery fixes the warm request mix: one op in every gridEvery is a
// fig8-5d grid, at a seeded position within its block, so every seed
// draws the same 80/20 mix.
const gridEvery = 5

const maxDrawTries = 1000

// genWarmOps draws n distinct requests: 80% fig8 over a distinct
// ordered subset of the paper latencies, 20% the fig8-5d grid under a
// distinct name, Accept mixed. Every op has its own ExperimentKey, so
// no cache above the simulation memo can answer it.
func genWarmOps(rng *rand.Rand, n int, tag string) ([]*op, error) {
	paper := photonrail.PaperLatenciesMS()
	seen := make(map[string]bool, n)
	ops := make([]*op, 0, n)
	gridAt := -1
	for len(ops) < n {
		if len(ops)%gridEvery == 0 {
			gridAt = len(ops) + rng.Intn(gridEvery)
		}
		f := rng.Intn(len(formats))
		if len(ops) == gridAt {
			spec := scenario.SpecOf(scenario.Fig8Grid5D())
			spec.Name = fmt.Sprintf("fig8-5d-%s%d", tag, len(ops))
			o, err := newOp("fig8-5d", opusnet.ExpRequestPayload{Grid: &spec}, f)
			if err != nil {
				return nil, err
			}
			ops = append(ops, o)
			continue
		}
		var lats []float64
		for try := 0; ; try++ {
			if try == maxDrawTries {
				return nil, fmt.Errorf("no distinct latency subset left after %d draws", len(ops))
			}
			perm := rng.Perm(len(paper))[:1+rng.Intn(len(paper))]
			lats = make([]float64, len(perm))
			for i, j := range perm {
				lats[i] = paper[j]
			}
			k := fmt.Sprint(lats)
			if !seen[k] {
				seen[k] = true
				break
			}
		}
		o, err := newOp("fig8", opusnet.ExpRequestPayload{LatenciesMS: lats}, f)
		if err != nil {
			return nil, err
		}
		ops = append(ops, o)
	}
	return ops, nil
}

// loadGolden reads the committed fig8-5d golden renderings, keyed by
// negotiated format.
func loadGolden() (map[string][]byte, error) {
	out := make(map[string][]byte, len(formats))
	for _, f := range formats {
		b, err := os.ReadFile(filepath.Join("cmd", "railfleet", "testdata", "golden", "fig8-5d."+f.format))
		if err != nil {
			return nil, fmt.Errorf("golden: %w", err)
		}
		out[f.format] = b
	}
	return out, nil
}
