package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"testing"

	"photonrail/internal/opusnet"
)

// The op stream is a function of the seed alone, holds exactly one grid
// in every gridEvery ops, and gives every op its own ExperimentKey.
func TestGenWarmOpsSeeded(t *testing.T) {
	const n = 500
	a, err := genWarmOps(rand.New(rand.NewSource(7)), n, "w")
	if err != nil {
		t.Fatal(err)
	}
	b, err := genWarmOps(rand.New(rand.NewSource(7)), n, "w")
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]bool, n)
	grids := 0
	for i := range a {
		if a[i].name != b[i].name || a[i].accept != b[i].accept || !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("op %d differs between two streams of one seed", i)
		}
		if a[i].req.Grid != nil {
			grids++
		}
		k := a[i].key()
		if keys[k] {
			t.Fatalf("op %d repeats an ExperimentKey", i)
		}
		keys[k] = true
	}
	if grids != n/gridEvery {
		t.Fatalf("%d grids in %d ops, want %d", grids, n, n/gridEvery)
	}
	c, err := genWarmOps(rand.New(rand.NewSource(8)), n, "w")
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if bytes.Equal(a[i].body, c[i].body) {
			same++
		}
	}
	if same == n {
		t.Fatal("two seeds drew the same stream")
	}
}

// The gateway sees the wire payload the op was built from, without the
// name, which travels in the path.
func TestNewOpBody(t *testing.T) {
	o, err := newOp("fig8", opusnet.ExpRequestPayload{LatenciesMS: []float64{5, 0.1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(o.body), `{"name":"","latenciesMS":[5,0.1]}`; got != want {
		t.Fatalf("body = %s, want %s", got, want)
	}
	if o.req.Name != "fig8" || o.format != "csv" {
		t.Fatalf("op = %+v", o)
	}
	if d, err := newOp("fig8-5d", opusnet.ExpRequestPayload{}, 0); err != nil || len(d.body) != 0 {
		t.Fatalf("default op body = %q, %v; want empty", d.body, err)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0.5, 3}, {0.9, 5}, {0.2, 1}, {0.99, 5}} {
		if got := quantile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

// Self times subtract, op by op, the rungs that op's kind nests: a
// grid's railserve rung holds only the exp rung.
func TestLadderNestsByOpKind(t *testing.T) {
	tr := newTracer()
	rec := func(name string, rungs map[string]float64) {
		ot := tr.begin(&op{name: name})
		for n, ms := range rungs {
			tr.rungs[n] = append(tr.rungs[n], ms)
			tr.byOp[ot.id][n] = ms
		}
	}
	rec("fig8", map[string]float64{rRailgate: 10, rRailfleet: 8, rRailserve: 6, rEncode: 0.5, rDecode: 0.5, rKey: 0.5, rRun: 1, rRenderText: 0.5, rRenderCSV: 0.5, rRenderJSON: 0.5, rExp: 0.5})
	rec("fig8-5d", map[string]float64{rRailgate: 40, rRailfleet: 35, rRailserve: 30, rEncode: 1, rDecode: 1, rKey: 0.5, rRun: 20, rRenderText: 2, rRenderCSV: 2, rRenderJSON: 2, rExp: 18})
	rec("fig8", map[string]float64{rRailgate: 12, rRailfleet: 9, rRailserve: 7, rEncode: 0.5, rDecode: 0.5, rKey: 0.5, rRun: 1, rRenderText: 0.5, rRenderCSV: 0.5, rRenderJSON: 0.5, rExp: 0.5})
	lad := ladderOf(tr)
	// railserve self per op: 6-4 = 2, 30-18 = 12, 7-4 = 3; median 3
	if lad.railserve != 3 {
		t.Errorf("railserve self = %v, want 3", lad.railserve)
	}
	// railfleet self per op: 2, 5, 2
	if lad.railfleet != 2 {
		t.Errorf("railfleet self = %v, want 2", lad.railfleet)
	}
	// photonrail self per op: 3-0.5 = 2.5, 26.5-18 = 8.5, 2.5
	if lad.photonrail != 2.5 {
		t.Errorf("photonrail self = %v, want 2.5", lad.photonrail)
	}
}

func TestCountersSinceAdd(t *testing.T) {
	prev := counters{fleetExps: 2, fleetCells: []float64{1, 2}}
	prev.eng.Misses, prev.store.Hits = 3, 4
	cur := counters{fleetExps: 5, fleetCells: []float64{4, 6}}
	cur.eng.Misses, cur.store.Hits, cur.store.Entries = 10, 9, 7
	d := cur.since(prev)
	if d.eng.Misses != 7 || d.store.Hits != 5 || d.fleetExps != 3 || d.fleetCells[0] != 3 || d.fleetCells[1] != 4 || d.store.Entries != 7 {
		t.Fatalf("since = %+v", d)
	}
	var sum counters
	sum.add(d)
	sum.add(d)
	if sum.eng.Misses != 14 || sum.fleetCells[1] != 8 || sum.store.Entries != 7 {
		t.Fatalf("add = %+v", sum)
	}
}

// BENCHMARK.json, layers.json and what perfbench reports name the same
// per-layer metrics, each once.
func TestLayerDocsAgree(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	reported := perLayer(&phase{mem: newMeterForTest()}, counters{}, newTracer(), 1)
	var fromBench, fromRun []string
	for _, m := range bench.PerLayer {
		fromBench = append(fromBench, m.Name)
		if got, ok := reported[m.Name]; ok && got.Unit != m.Unit {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	for name := range reported {
		fromRun = append(fromRun, name)
	}
	sort.Strings(fromBench)
	sort.Strings(fromRun)
	if a, b := fmtList(fromBench), fmtList(fromRun); a != b {
		t.Fatalf("BENCHMARK.json per_layer:\n%s\nreported:\n%s", a, b)
	}
	data, err = os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Layers []struct{ Metrics []string }
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var documented []string
	for _, l := range doc.Layers {
		documented = append(documented, l.Metrics...)
	}
	sort.Strings(documented)
	if a, b := fmtList(documented), fmtList(fromRun); a != b {
		t.Fatalf("layers.json metrics:\n%s\nreported:\n%s", a, b)
	}
}

func newMeterForTest() *meter {
	m := newMeter()
	m.close()
	return m
}

func fmtList(xs []string) string {
	b, _ := json.Marshal(xs)
	return string(b)
}
