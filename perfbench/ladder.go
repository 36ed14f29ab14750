package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"photonrail"
	"photonrail/internal/opusnet"
	"photonrail/internal/railfleet"
	"photonrail/internal/railserve"
	"photonrail/internal/resultstore"
	"photonrail/internal/scenario"
	"photonrail/internal/topo"
	"photonrail/internal/workload"
)

// Rung names: one per layer boundary the traced run replays, in the
// layer vocabulary of the per-layer metrics.
const (
	rRailgate     = "railgate"
	rRailfleet    = "railfleet"
	rRailserve    = "railserve"
	rEncode       = "opusnet.encode"
	rDecode       = "opusnet.decode"
	rKey          = "photonrail.key"
	rRun          = "photonrail.run"
	rRenderText   = "photonrail.render_text"
	rRenderCSV    = "photonrail.render_csv"
	rRenderJSON   = "photonrail.render_json"
	rExp          = "exp"
	rBuild        = "workload.build"
	rTime         = "netsim.time"
	rProvision    = "netsim.provision"
	rStoreGet     = "resultstore.get"
	rStorePut     = "resultstore.put"
	nPrograms     = "workload.programs"
	nTasks        = "workload.tasks"
	nTimeRuns     = "netsim.time_runs"
	nTimeTasks    = "netsim.time_tasks"
	nProvisionRun = "netsim.provision_runs"
	nFrameBytes   = "opusnet.frame_bytes"
)

// fig8Iterations is fig8's default training-iteration count, the one
// every warm-mix fig8 op runs at.
const fig8Iterations = 2

// span is one rung's interval within a replayed op.
type span struct {
	Op     int    `json:"op"`
	Parent string `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
}

// tracer keeps the replay's spans in memory, plus each rung's
// durations and each op's counts. Replayers may share it.
type tracer struct {
	mu     sync.Mutex
	ops    int
	spans  []span
	rungs  map[string][]float64       // ms per rung
	counts map[string][]float64       // per-op counts
	byOp   map[int]map[string]float64 // ms per rung of each op
	grid   map[int]bool               // ops that replay a grid
}

func newTracer() *tracer {
	return &tracer{rungs: make(map[string][]float64), counts: make(map[string][]float64),
		byOp: make(map[int]map[string]float64), grid: make(map[int]bool)}
}

// opTrace records the rungs of one replayed op.
type opTrace struct {
	tr *tracer
	id int
}

// begin starts replaying o.
func (tr *tracer) begin(o *op) *opTrace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.ops++
	tr.byOp[tr.ops] = make(map[string]float64)
	tr.grid[tr.ops] = photonrail.IsGridExperiment(o.name)
	return &opTrace{tr: tr, id: tr.ops}
}

// rung times fn as one span of the op.
func (t *opTrace) rung(name string, fn func() error) error {
	s := time.Now()
	err := fn()
	e := time.Now()
	t.tr.mu.Lock()
	defer t.tr.mu.Unlock()
	t.tr.spans = append(t.tr.spans, span{Op: t.id, Parent: fmt.Sprintf("op%d", t.id), Name: name, Start: s.UnixNano(), End: e.UnixNano()})
	ms := float64(e.Sub(s)) / float64(time.Millisecond)
	t.tr.rungs[name] = append(t.tr.rungs[name], ms)
	t.tr.byOp[t.id][name] += ms
	return err
}

func (t *opTrace) count(name string, v float64) {
	t.tr.mu.Lock()
	defer t.tr.mu.Unlock()
	t.tr.counts[name] = append(t.tr.counts[name], v)
}

// med is a rung's median in ms, 0 when the workload never crosses it.
func (tr *tracer) med(name string) float64 { return median(tr.rungs[name]) }

func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	return f.Close()
}

func runBytes(r *railserve.ExpRun, format string) []byte {
	switch format {
	case "json":
		return []byte(r.RowsJSON)
	case "csv":
		return []byte(r.RenderedCSV)
	}
	return []byte(r.Rendered)
}

// ---- rungs ------------------------------------------------------------

func gatewayRung(ctx context.Context, t *opTrace, hc *httpClient, st *stack, o *op) error {
	return t.rung(rRailgate, func() error {
		_, err := hc.do(ctx, st.url, o)
		return err
	})
}

// fleetRung is Client.RunExperiment at the coordinator.
func fleetRung(ctx context.Context, t *opTrace, c *railserve.Client, o *op) (*railserve.ExpRun, error) {
	var res *railserve.ExpRun
	err := t.rung(rRailfleet, func() (err error) {
		res, err = c.RunExperiment(ctx, o.req, nil)
		return err
	})
	if err == nil && !o.matches(runBytes(res, o.format)) {
		err = fmt.Errorf("railfleet rung: %w", errWrongBytes)
	}
	return res, err
}

// serveRung replays the op's work at the daemons: a non-grid
// experiment is Client.RunExperiment at the daemon the coordinator
// proxies it to; a grid is the coordinator's fan-out, each daemon's
// shard in cells_req batches of railfleet.DefaultInFlight, daemons
// concurrently.
func serveRung(ctx context.Context, t *opTrace, daemons []*railserve.Client, fig8Daemon int, o *op) error {
	if !photonrail.IsGridExperiment(o.name) {
		return t.rung(rRailserve, func() error {
			_, err := daemons[fig8Daemon].RunExperiment(ctx, o.req, nil)
			return err
		})
	}
	spec, g, err := gridOf(o)
	if err != nil {
		return err
	}
	cells := g.Expand()
	all := make([]int, len(cells))
	targets := make([]railfleet.Target, len(daemons))
	for i := range all {
		all[i] = i
	}
	for i := range daemons {
		targets[i] = railfleet.Target{ID: railfleet.StaticID(i), Weight: 1}
	}
	shards := railfleet.AssignWeighted(cells, all, targets)
	return t.rung(rRailserve, func() error {
		errs := make([]error, len(daemons))
		var wg sync.WaitGroup
		for i, c := range daemons {
			i, c := i, c
			wg.Add(1)
			go func() {
				defer wg.Done()
				idx := shards[railfleet.StaticID(i)]
				for len(idx) > 0 && errs[i] == nil {
					n := min(len(idx), railfleet.DefaultInFlight)
					_, errs[i] = c.RunCellsCtx(ctx, spec, idx[:n], 0, nil)
					idx = idx[n:]
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// frameRung encodes and decodes the op's exp_req and exp_result frames.
func frameRung(t *opTrace, o *op, res *railserve.ExpRun) error {
	frames := []*opusnet.Message{
		{Type: opusnet.MsgExpReq, Seq: 1, Exp: &o.req},
		{Type: opusnet.MsgExpResult, Seq: 1, ExpResult: &opusnet.ExpResultPayload{
			Name: res.Name, Grid: res.Grid, Rendered: res.Rendered, RenderedCSV: res.RenderedCSV, RowsJSON: res.RowsJSON,
		}},
	}
	var buf bytes.Buffer
	if err := t.rung(rEncode, func() error {
		for _, m := range frames {
			if err := opusnet.WriteMessage(&buf, m); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	t.count(nFrameBytes, float64(buf.Len()))
	return t.rung(rDecode, func() error {
		for range frames {
			if _, err := opusnet.ReadMessage(&buf); err != nil {
				return err
			}
		}
		return nil
	})
}

// registryRungs are the photonrail layer: the canonical key, the
// registry run on en, and the three renderings a daemon ships.
func registryRungs(ctx context.Context, t *opTrace, en *photonrail.Engine, o *op) error {
	p := o.params()
	if err := t.rung(rKey, func() error { _ = photonrail.ExperimentKey(o.name, p); return nil }); err != nil {
		return err
	}
	e, _ := photonrail.Lookup(o.name)
	var res *photonrail.ExperimentResult
	if err := t.rung(rRun, func() (err error) { res, err = e.Run(ctx, en, p); return err }); err != nil {
		return err
	}
	out := make(map[string][]byte, len(formats))
	for _, r := range []struct{ rung, format string }{{rRenderText, "table"}, {rRenderCSV, "csv"}, {rRenderJSON, "json"}} {
		r := r
		if err := t.rung(r.rung, func() (err error) { out[r.format], err = render(res, r.format); return err }); err != nil {
			return err
		}
	}
	if !o.matches(out[o.format]) {
		return fmt.Errorf("photonrail rung: %w", errWrongBytes)
	}
	return nil
}

// expRung is the engine's memoized computation without the registry
// or rendering: the fig8 latency sweep, or the grid's cells.
func expRung(ctx context.Context, t *opTrace, en *photonrail.Engine, o *op) error {
	if !photonrail.IsGridExperiment(o.name) {
		return t.rung(rExp, func() error {
			_, err := en.SweepReconfigLatencyCtx(ctx, photonrail.PaperWorkload(fig8Iterations), o.req.LatenciesMS)
			return err
		})
	}
	_, g, err := gridOf(o)
	if err != nil {
		return err
	}
	return t.rung(rExp, func() error {
		_, err := en.RunGridCtx(ctx, g)
		return err
	})
}

// storeRungs are Store.Get then Store.Put of the op's entry on a
// store of the benchmark's own.
func storeRungs(t *opTrace, s *resultstore.Store, key string, ent resultstore.Entry) error {
	if err := t.rung(rStoreGet, func() error { _, _ = s.Get(key); return nil }); err != nil {
		return err
	}
	return t.rung(rStorePut, func() error { return s.Put(key, ent) })
}

func gridOf(o *op) (scenario.Spec, scenario.Grid, error) {
	spec := scenario.SpecOf(scenario.Fig8Grid5D())
	if o.req.Grid != nil {
		spec = *o.req.Grid
	}
	g, err := spec.Resolve()
	return spec, g, err
}

// cellWorkload maps a grid cell to the Workload the engine simulates
// for it (the cluster shape follows from the parallelism: TP fills a
// node's scale-up domain, the other axes fill the nodes).
func cellWorkload(c scenario.Cell) photonrail.Workload {
	return photonrail.Workload{
		Model: c.Model, GPU: c.GPU,
		NumNodes: c.Par.NumNodes(), GPUsPerNode: c.Par.TP, NIC: c.NIC,
		TP: c.Par.TP, DP: c.Par.DP, PP: c.Par.PP, CP: c.Par.CP, EP: c.Par.EP,
		Microbatches: c.Microbatches, MicrobatchSize: c.MicrobatchSize, Iterations: c.Iterations,
		EagerRS: c.EagerRS, JitterFrac: c.JitterFrac, UseGPipe: c.Schedule == workload.GPipe,
	}
}

// topoKind is the topology a fabric compiles against.
func topoKind(f photonrail.Fabric) topo.FabricKind {
	if f.Kind == photonrail.ElectricalRail {
		return topo.FabricElectricalRail
	}
	return topo.FabricPhotonicRail
}

// taskCounts caches the task count of each compiled program; the
// workload layer's own Build produces it, outside any timed rung.
type taskCounts map[string]int

func (tc taskCounts) of(w photonrail.Workload, kind topo.FabricKind) (int, error) {
	k := fmt.Sprintf("%#v/%d", w, kind)
	if n, ok := tc[k]; ok {
		return n, nil
	}
	cluster, err := topo.New(topo.Config{NumNodes: w.NumNodes, GPUsPerNode: w.GPUsPerNode, Fabric: kind, NIC: w.NIC})
	if err != nil {
		return 0, err
	}
	sched := workload.OneFOneB
	if w.UseGPipe {
		sched = workload.GPipe
	}
	prog, err := workload.Build(workload.Config{
		Model: w.Model, GPU: w.GPU, Cluster: cluster,
		TP: w.TP, DP: w.DP, PP: w.PP, CP: w.CP, EP: w.EP,
		Microbatches: w.Microbatches, MicrobatchSize: w.MicrobatchSize, Iterations: w.Iterations,
		EagerRS: w.EagerRS, JitterFrac: w.JitterFrac, Schedule: sched,
	})
	if err != nil {
		return 0, err
	}
	tc[k] = len(prog.Tasks)
	return tc[k], nil
}

type simKey struct {
	w photonrail.Workload
	f photonrail.Fabric
}

// stageRungs replay a cold grid stage by stage on a fresh engine with
// workers workers: Build (Engine.Compile of every program), Time
// (Engine.Simulate of every timed run, Build warm), Provision
// (Engine.RunCellsCtx of the provisioned cells, Build and Time warm).
// A full RunGrid afterwards must find nothing left to compute.
func stageRungs(ctx context.Context, t *opTrace, tc taskCounts, workers int, o *op) error {
	_, g, err := gridOf(o)
	if err != nil {
		return err
	}
	var builds, times []simKey
	seen := make(map[string]bool)
	addUnique := func(list *[]simKey, k simKey, id string) {
		if !seen[id] {
			seen[id] = true
			*list = append(*list, k)
		}
	}
	var provisioned []int
	for i, c := range g.Expand() {
		if c.Skip() != "" {
			continue
		}
		w := cellWorkload(c)
		wid := fmt.Sprintf("%#v", w)
		base := photonrail.Fabric{Kind: photonrail.ElectricalRail}
		f := base
		switch c.Fabric {
		case scenario.Photonic:
			f = photonrail.Fabric{Kind: photonrail.PhotonicRail, ReconfigLatencyMS: c.LatencyMS}
		case scenario.PhotonicProvisioned:
			f = photonrail.Fabric{Kind: photonrail.PhotonicRail, ReconfigLatencyMS: c.LatencyMS}
			provisioned = append(provisioned, i)
		case scenario.PhotonicStatic:
			f = photonrail.Fabric{Kind: photonrail.PhotonicStaticPartition}
		}
		for _, fb := range []photonrail.Fabric{base, f} {
			addUnique(&builds, simKey{w, fb}, fmt.Sprintf("build/%s/%d", wid, topoKind(fb)))
			addUnique(&times, simKey{w, fb}, fmt.Sprintf("time/%s/%#v", wid, fb))
		}
	}
	var tasks, timeTasks float64
	for _, k := range builds {
		n, err := tc.of(k.w, topoKind(k.f))
		if err != nil {
			return err
		}
		tasks += float64(n)
	}
	for _, k := range times {
		n, err := tc.of(k.w, topoKind(k.f))
		if err != nil {
			return err
		}
		timeTasks += float64(n)
	}

	en := photonrail.NewEngine(workers)
	st0 := en.CacheStats()
	if err := t.rung(rBuild, func() error {
		return parallel(len(builds), workers, func(i int) error {
			_, err := en.CompileCtx(ctx, builds[i].w, builds[i].f)
			return err
		})
	}); err != nil {
		return err
	}
	st1 := en.CacheStats()
	if err := t.rung(rTime, func() error {
		return parallel(len(times), workers, func(i int) error {
			_, err := en.SimulateCtx(ctx, times[i].w, times[i].f)
			return err
		})
	}); err != nil {
		return err
	}
	st2 := en.CacheStats()
	if err := t.rung(rProvision, func() error {
		_, err := en.RunCellsCtx(ctx, g, provisioned)
		return err
	}); err != nil {
		return err
	}
	st3 := en.CacheStats()
	t.count(nPrograms, float64(st1.Build.Misses-st0.Build.Misses))
	t.count(nTasks, tasks)
	t.count(nTimeRuns, float64(st2.Time.Misses-st1.Time.Misses))
	t.count(nTimeTasks, timeTasks)
	t.count(nProvisionRun, float64(st3.Provision.Misses-st2.Provision.Misses))
	if _, err := en.RunGridCtx(ctx, g); err != nil {
		return err
	}
	if left := en.CacheStats().Misses - st3.Misses; left != 0 {
		return fmt.Errorf("stage rungs left %d simulations of the grid undone", left)
	}
	return nil
}

// ---- replays ----------------------------------------------------------

// dialAll connects one client to each address.
func dialAll(addrs []string) ([]*railserve.Client, error) {
	var cs []*railserve.Client
	for _, a := range addrs {
		c, err := railserve.Dial(a)
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []*railserve.Client) {
	for _, c := range cs {
		_ = c.Close()
	}
}

func daemonAddrs(st *stack) []string {
	var out []string
	for _, b := range st.backends {
		out = append(out, b.Addr())
	}
	return out
}

func entryOf(o *op, r *railserve.ExpRun) resultstore.Entry {
	return resultstore.Entry{Experiment: o.name, Grid: r.Grid, Rendered: r.Rendered, RenderedCSV: r.RenderedCSV, RowsJSON: r.RowsJSON}
}

// replay of cold-5d, one replayer like the one client: every rung that
// holds a cache starts it empty, as the op did: a fresh stack for
// railgate, railfleet and railserve, a fresh engine for photonrail, exp
// and the stages, an empty store.
func (s *coldTrial) replay(ctx context.Context, tr *tracer, budget time.Duration, maxOps int) error {
	tc := taskCounts{}
	side, err := resultstore.Open(resultstore.Config{Dir: filepath.Join(s.b.dir, "side")})
	if err != nil {
		return err
	}
	start := time.Now()
	for n := 0; n < maxOps && time.Since(start) < budget; n++ {
		o, err := s.nextOp()
		if err != nil {
			return err
		}
		t := tr.begin(o)
		st, err := s.fresh()
		if err != nil {
			return err
		}
		err = gatewayRung(ctx, t, s.hc, st, o)
		s.retire(st)
		if err != nil {
			return err
		}

		var res *railserve.ExpRun
		if st, err = s.fresh(); err != nil {
			return err
		}
		c, err := railserve.Dial(st.fleet.Addr())
		if err == nil {
			res, err = fleetRung(ctx, t, c, o)
			_ = c.Close()
		}
		s.retire(st)
		if err != nil {
			return err
		}

		if st, err = s.fresh(); err != nil {
			return err
		}
		daemons, err := dialAll(daemonAddrs(st))
		if err == nil {
			err = serveRung(ctx, t, daemons, 0, o)
			closeAll(daemons)
		}
		s.retire(st)
		if err != nil {
			return err
		}

		if err := frameRung(t, o, res); err != nil {
			return err
		}
		for _, rungs := range []func(en *photonrail.Engine) error{
			func(en *photonrail.Engine) error { return registryRungs(ctx, t, en, o) },
			func(en *photonrail.Engine) error { return expRung(ctx, t, en, o) },
		} {
			if err := rungs(photonrail.NewEngine(simThreads)); err != nil {
				return err
			}
			runtime.GC()
		}
		if err := stageRungs(ctx, t, tc, simThreads, o); err != nil {
			return err
		}
		runtime.GC()
		if err := storeRungs(t, side, o.key(), entryOf(o, res)); err != nil {
			return err
		}
	}
	return nil
}

// replay of warm-mix, one replayer per client: the warm stack the timed
// phase used, a local engine warmed the same way, fresh keys from the
// same pool. Its gateway has no store, so there are no store rungs.
func (s *warmTrial) replay(ctx context.Context, tr *tracer, budget time.Duration, maxOps int) error {
	ref, err := warmEngine(ctx)
	if err != nil {
		return err
	}
	fleet, err := railserve.Dial(s.st.fleet.Addr())
	if err != nil {
		return err
	}
	defer fleet.Close()
	daemons, err := dialAll(daemonAddrs(s.st))
	if err != nil {
		return err
	}
	defer closeAll(daemons)
	var next atomic.Int64
	next.Store(int64(s.replayFrom))
	deadline := time.Now().Add(budget)
	return parallel(len(s.hcs), len(s.hcs), func(c int) error {
		for time.Now().Before(deadline) {
			i := int(next.Add(1) - 1)
			if i >= len(s.pool) || i-s.replayFrom >= maxOps {
				return nil
			}
			o := s.pool[i]
			t := tr.begin(o)
			if err := gatewayRung(ctx, t, s.hcs[c], s.st, o); err != nil {
				return err
			}
			res, err := fleetRung(ctx, t, fleet, o)
			if err != nil {
				return err
			}
			if err := serveRung(ctx, t, daemons, s.fig8Backend, o); err != nil {
				return err
			}
			if err := frameRung(t, o, res); err != nil {
				return err
			}
			if err := registryRungs(ctx, t, ref, o); err != nil {
				return err
			}
			if err := expRung(ctx, t, ref, o); err != nil {
				return err
			}
		}
		return nil
	})
}

// replay of store-hit, one replayer per client: the gateway op, the
// store Get of the same entry on a store of the benchmark's own, and
// the key the gateway derives.
func (s *storeTrial) replay(ctx context.Context, tr *tracer, budget time.Duration, maxOps int) error {
	side, err := resultstore.Open(resultstore.Config{Dir: filepath.Join(s.b.dir, "side")})
	if err != nil {
		return err
	}
	for _, variants := range s.entries {
		o := variants[0]
		ent, ok := s.st.store.Get(o.key())
		if !ok {
			return fmt.Errorf("stored %s vanished", o.name)
		}
		if err := side.Put(o.key(), ent); err != nil {
			return err
		}
	}
	var done atomic.Int64
	deadline := time.Now().Add(budget)
	return parallel(len(s.hcs), len(s.hcs), func(c int) error {
		for time.Now().Before(deadline) && done.Add(1) <= int64(maxOps) {
			o := s.draw(s.rngs[c])
			t := tr.begin(o)
			if err := gatewayRung(ctx, t, s.hcs[c], s.st, o); err != nil {
				return err
			}
			key := o.key()
			if err := t.rung(rStoreGet, func() error {
				if _, ok := side.Get(key); !ok {
					return fmt.Errorf("store rung missed %s", o.name)
				}
				return nil
			}); err != nil {
				return err
			}
			p := o.params()
			if err := t.rung(rKey, func() error { _ = photonrail.ExperimentKey(o.name, p); return nil }); err != nil {
				return err
			}
		}
		return nil
	})
}
