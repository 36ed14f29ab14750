package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"photonrail"
	"photonrail/internal/opusnet"
	"photonrail/internal/railserve"
)

// plan is a workload's seeded op stream and the references its outputs
// are checked against, prepared once per run before any set-up.
type plan interface {
	// setup brings up a stack ready for the timed phase: stack
	// bring-up, engine warm-up, store pre-fill. It is timed as setup_s.
	setup(ctx context.Context) (trial, error)
}

// trial is one set-up stack: timed once, checked, and (traced runs)
// replayed rung by rung.
type trial interface {
	// timed runs the closed loop for d with the meter on around the
	// ops, and returns the phase and the layers' counters over it.
	timed(ctx context.Context, d time.Duration, m *meter) (*phase, counters, error)
	// check verifies the workload's defining property from the
	// counters of the timed phase.
	check(c counters) error
	// replay re-sends fresh ops of the same stream rung by rung until
	// the budget is spent or maxOps ops are done.
	replay(ctx context.Context, tr *tracer, budget time.Duration, maxOps int) error
	close()
}

var workloads = map[string]func(ctx context.Context, b *bench) (plan, error){
	"cold-5d":   prepareCold,
	"warm-mix":  prepareWarm,
	"store-hit": prepareStoreHit,
}

// simThreads is the stack's simulation thread count; local reference
// engines run as many workers.
const simThreads = stackBackends * backendWorker

// closedLoopClients is the concurrent client count of the warm
// workloads. With two, a fig8 op queued at its daemon's single worker
// behind the other client's grid shard about half the time, which put
// op_p50_ms on the edge between two latency modes and made it swing by
// up to a third between runs; one client times each op's own path.
const closedLoopClients = 1

// defaults are the experiments set-up warms, at their default
// parameters; no generated op shares their keys.
var defaults = []string{"fig8", "fig8-5d"}

// warmEngine returns a local engine that has run every default
// experiment, so every generated op is a memo hit on it.
func warmEngine(ctx context.Context) (*photonrail.Engine, error) {
	en := photonrail.NewEngine(simThreads)
	for _, name := range defaults {
		e, _ := photonrail.Lookup(name)
		if _, err := e.Run(ctx, en, photonrail.Params{}); err != nil {
			return nil, fmt.Errorf("warm local %s: %w", name, err)
		}
	}
	return en, nil
}

// ---- cold-5d ----------------------------------------------------------

// coldPlan sends sequential default fig8-5d grids, each to a stack
// that was never used: fresh engines, an empty store, nothing to
// coalesce with. Bodies must equal the committed golden.
type coldPlan struct {
	b *bench
}

func prepareCold(_ context.Context, b *bench) (plan, error) {
	return &coldPlan{b: b}, nil
}

// setup runs a fresh local RunGrid, whose memo counters every op's
// daemon misses must equal, and brings up the first op's stack. The
// bring-up alone (~1.5 ms) swings between host CPU states by more
// than setup_s's bound; the grid makes set-up a measurable amount of
// work, as warm-mix's and store-hit's are.
func (p *coldPlan) setup(ctx context.Context) (trial, error) {
	en := photonrail.NewEngine(simThreads)
	if _, err := en.RunGridCtx(ctx, photonrail.Fig8Grid5D()); err != nil {
		return nil, fmt.Errorf("local fig8-5d: %w", err)
	}
	s := &coldTrial{coldPlan: p, want: en.CacheStats(), rng: rand.New(rand.NewSource(p.b.seed)), hc: newHTTPClient()}
	var err error
	s.st, err = p.b.newStack(true)
	return s, err
}

type coldTrial struct {
	*coldPlan
	want photonrail.CacheStats // memo counters of a fresh local RunGrid
	rng  *rand.Rand
	st   *stack // unused stack for the next op
	hc   *httpClient
	errs []string
}

func (s *coldTrial) nextOp() (*op, error) {
	o, err := newOp("fig8-5d", opusnet.ExpRequestPayload{}, s.rng.Intn(len(formats)))
	if err != nil {
		return nil, err
	}
	o.want = s.b.golden[o.format]
	return o, nil
}

// fresh returns the unused stack, starting one if needed, and clears
// the slot: whoever takes it closes it.
func (s *coldTrial) fresh() (*stack, error) {
	st := s.st
	s.st = nil
	if st == nil {
		return s.b.newStack(true)
	}
	return st, nil
}

// retire closes a used stack and collects its garbage, so every cold
// op starts from the same heap.
func (s *coldTrial) retire(st *stack) {
	st.close()
	s.hc.close()
	runtime.GC()
}

func (s *coldTrial) timed(ctx context.Context, d time.Duration, m *meter) (*phase, counters, error) {
	ph := &phase{mem: m}
	var total counters
	start := time.Now()
	for time.Since(start) < d {
		o, err := s.nextOp()
		if err != nil {
			return nil, total, err
		}
		st, err := s.fresh()
		if err != nil {
			return nil, total, err
		}
		before := snapshot(st)
		q := watchQueue(st)
		m.on()
		dur, err := s.hc.do(ctx, st.url, o)
		m.off()
		ph.attempted++
		if err != nil {
			ph.fail(err)
		} else {
			ph.latMS = append(ph.latMS, float64(dur)/float64(time.Millisecond))
		}
		c := snapshot(st).since(before)
		if c.queueWait, err = q.end(); err != nil {
			s.retire(st)
			return nil, total, err
		}
		s.checkOp(c)
		total.add(c)
		s.retire(st)
	}
	ph.busy = m.busy
	return ph, total, nil
}

func (s *coldTrial) checkOp(c counters) {
	got := [4]uint64{c.eng.Misses, c.eng.BuildMisses, c.eng.TimeMisses, c.eng.ProvisionMisses}
	want := [4]uint64{s.want.Misses, s.want.Build.Misses, s.want.Time.Misses, s.want.Provision.Misses}
	if got != want {
		s.errs = append(s.errs, fmt.Sprintf("cold op misses (total, build, time, provision) = %v, a fresh local RunGrid has %v", got, want))
	}
	if c.store.Hits != 0 {
		s.errs = append(s.errs, fmt.Sprintf("cold op hit the store %d times", c.store.Hits))
	}
}

func (s *coldTrial) check(counters) error {
	if len(s.errs) > 0 {
		return fmt.Errorf("%s (%d violations)", s.errs[0], len(s.errs))
	}
	return nil
}

func (s *coldTrial) close() {
	if s.st != nil {
		s.st.close()
	}
	s.hc.close()
}

// ---- warm-mix ---------------------------------------------------------

// warmPoolRate sizes the warm-mix op pool: ops per second of the
// warm-up and timed phases, over twice the rate measured on 2 vCPUs,
// so the pool outlasts them. A run that exhausts it ends early and
// says so.
const warmPoolRate = 1000

// warmReplayOps bounds the ops a traced warm-mix run replays.
const warmReplayOps = 400

// warmPlan is a pool of distinct ops whose simulations set-up runs on
// every daemon, so each op is a memo hit with a key of its own. Each
// op's reference is a local Experiment.Run rendering (kept as its
// SHA-256), computed here, before any timing.
type warmPlan struct {
	b          *bench
	pool       []*op
	replayFrom int
}

func prepareWarm(ctx context.Context, b *bench) (plan, error) {
	n := int(math.Ceil((b.seconds + warmUp).Seconds() * warmPoolRate))
	pool, err := genWarmOps(rand.New(rand.NewSource(b.seed)), n+warmReplayOps, "w")
	if err != nil {
		return nil, err
	}
	ref, err := warmEngine(ctx)
	if err != nil {
		return nil, err
	}
	if err := parallel(len(pool), simThreads, func(i int) error { return expect(ctx, ref, pool[i]) }); err != nil {
		return nil, err
	}
	return &warmPlan{b: b, pool: pool, replayFrom: n}, nil
}

// setup brings up a stack whose gateway has no result store. With one,
// every warm-mix op wrote a file, and on the ext4 volume the benchmark
// was tuned on a file create took from 20 us to 0.9 ms depending on
// the disk's state, which swung op_p50_ms between 1.2 and 3 ms from run
// to run; warm-mix measures the request path and store-hit the store.
func (p *warmPlan) setup(ctx context.Context) (trial, error) {
	st, err := p.b.newStack(false)
	if err != nil {
		return nil, err
	}
	s := &warmTrial{warmPlan: p, st: st}
	for i := 0; i < closedLoopClients; i++ {
		s.hcs = append(s.hcs, newHTTPClient())
	}
	if err := s.warm(ctx); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

type warmTrial struct {
	*warmPlan
	st          *stack
	hcs         []*httpClient
	next        atomic.Int64
	fig8Backend int // the daemon railfleet proxies fig8 to
}

// warm runs every default experiment on every daemon directly, then
// opens every connection on the path with default requests through
// the gateway, learning which daemon the coordinator proxies fig8 to.
func (s *warmTrial) warm(ctx context.Context) error {
	errs := make([]error, len(s.st.backends))
	var wg sync.WaitGroup
	for i, srv := range s.st.backends {
		i, addr := i, srv.Addr()
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := railserve.Dial(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			for _, name := range defaults {
				if _, err := c.RunExperiment(ctx, opusnet.ExpRequestPayload{Name: name}, nil); err != nil {
					errs[i] = fmt.Errorf("pre-warm raild %d %s: %w", i, name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	before := make([]uint64, len(s.st.backends))
	for i, srv := range s.st.backends {
		before[i] = srv.Stats().ExpsExecuted
	}
	for _, hc := range s.hcs {
		for _, name := range defaults {
			o, err := newOp(name, opusnet.ExpRequestPayload{}, 0)
			if err == nil {
				_, err = hc.fill(ctx, s.st.url, o)
			}
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", name, err)
			}
		}
	}
	for i, srv := range s.st.backends {
		if srv.Stats().ExpsExecuted > before[i] {
			s.fig8Backend = i
		}
	}
	return nil
}

func (s *warmTrial) timed(ctx context.Context, d time.Duration, m *meter) (*phase, counters, error) {
	before := snapshot(s.st)
	q := watchQueue(s.st)
	ph := closedLoop(ctx, s.st, s.hcs, d, m, func(int) *op {
		i := int(s.next.Add(1) - 1)
		if i >= s.replayFrom {
			return nil
		}
		return s.pool[i]
	})
	c := snapshot(s.st).since(before)
	var err error
	if c.queueWait, err = q.end(); err != nil {
		return nil, c, err
	}
	return ph, c, nil
}

func (s *warmTrial) check(c counters) error {
	if c.eng.Misses != 0 {
		return fmt.Errorf("warm-mix ran %d simulations after set-up, want 0", c.eng.Misses)
	}
	if n := c.eng.ExpsDeduped + c.eng.CellsDeduped + c.eng.GridsDeduped + c.fleetDedup; n != 0 {
		return fmt.Errorf("warm-mix coalesced %d requests, want 0", n)
	}
	return nil
}

func (s *warmTrial) close() {
	for _, hc := range s.hcs {
		hc.close()
	}
	s.st.close()
}

// ---- store-hit --------------------------------------------------------

// storeKeys is the size of the stored key set store-hit draws from (a
// multiple of gridEvery, so the set holds exactly 20% grids).
const storeKeys = 250

// storeSeedSalt separates the store-hit key set's stream from the
// warm-mix stream of the same seed.
const storeSeedSalt = 0x5eed

// storeReplayOps bounds the ops a traced store-hit run replays.
const storeReplayOps = 4000

// storePlan is a key set set-up stores through the stack; ops draw
// keys and formats by seed, and each body must equal the stored bytes.
type storePlan struct {
	b   *bench
	ops []*op
}

func prepareStoreHit(_ context.Context, b *bench) (plan, error) {
	ops, err := genWarmOps(rand.New(rand.NewSource(b.seed^storeSeedSalt)), storeKeys, "s")
	if err != nil {
		return nil, err
	}
	return &storePlan{b: b, ops: ops}, nil
}

func (p *storePlan) setup(ctx context.Context) (trial, error) {
	st, err := p.b.newStack(true)
	if err != nil {
		return nil, err
	}
	s := &storeTrial{storePlan: p, st: st}
	for i := 0; i < closedLoopClients; i++ {
		s.hcs = append(s.hcs, newHTTPClient())
		s.rngs = append(s.rngs, rand.New(rand.NewSource(p.b.seed*closedLoopClients+int64(i))))
	}
	if err := s.fill(ctx); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

type storeTrial struct {
	*storePlan
	st      *stack
	hcs     []*httpClient
	entries [][]*op // [key][format], want = the stored bytes
	rngs    []*rand.Rand
}

// fill stores every key through the stack itself, so the stored
// objects are the ones the served path wrote, and reads them back as
// the references.
func (s *storeTrial) fill(ctx context.Context) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, len(s.hcs))
	for c, hc := range s.hcs {
		c, hc := c, hc
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(s.ops); i = int(next.Add(1) - 1) {
				if _, err := hc.fill(ctx, s.st.url, s.ops[i]); err != nil {
					errs[c] = fmt.Errorf("pre-fill %s: %w", s.ops[i].name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, o := range s.ops {
		ent, ok := s.st.store.Get(o.key())
		if !ok {
			return fmt.Errorf("pre-filled %s is not in the store", o.name)
		}
		variants := make([]*op, len(formats))
		for f := range formats {
			v := *o
			v.accept, v.format = formats[f].accept, formats[f].format
			switch v.format {
			case "json":
				v.want = []byte(ent.RowsJSON)
			case "csv":
				v.want = []byte(ent.RenderedCSV)
			default:
				v.want = []byte(ent.Rendered)
			}
			variants[f] = &v
		}
		s.entries = append(s.entries, variants)
	}
	return nil
}

func (s *storeTrial) draw(rng *rand.Rand) *op {
	return s.entries[rng.Intn(len(s.entries))][rng.Intn(len(formats))]
}

func (s *storeTrial) timed(ctx context.Context, d time.Duration, m *meter) (*phase, counters, error) {
	before := snapshot(s.st)
	ph := closedLoop(ctx, s.st, s.hcs, d, m, func(c int) *op { return s.draw(s.rngs[c]) })
	return ph, snapshot(s.st).since(before), nil
}

func (s *storeTrial) check(c counters) error {
	if n := c.fleetExps + c.fleetDedup; n != 0 {
		return fmt.Errorf("store-hit sent %d requests to railfleet, want 0", n)
	}
	if n := c.eng.ExpsExecuted + c.eng.ExpsDeduped + c.eng.CellsExecuted + c.eng.CellsDeduped + c.eng.Hits + c.eng.Misses; n != 0 {
		return fmt.Errorf("store-hit reached raild (%d requests or lookups), want 0", n)
	}
	return nil
}

func (s *storeTrial) close() {
	for _, hc := range s.hcs {
		hc.close()
	}
	s.st.close()
}
