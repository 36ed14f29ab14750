// Package railfleet scales raild past one machine: a coordinator that
// speaks the same opusnet protocol raild does — existing railclient
// invocations work unchanged, pointed at it — but executes each grid
// across a fleet of backend raild daemons.
//
// For every grid experiment (exp_req "grid", or a built-in grid name)
// the coordinator expands the grid locally, shards the cells across the
// live backends by canonical workload key (see WorkloadKey/Assign: all
// fabric variants of one workload colocate, so each electrical baseline
// simulates exactly once fleet-wide), fans the shards out as cells_req
// batches bounded by a per-backend in-flight cap, merges the partial
// rows back into canonical expansion order, renders them in each
// requester's format, and streams aggregated exp_progress — the
// fleet's output is byte-identical to a single daemon's.
//
// Membership is one table, the internal/railctl registry, which every
// wave, proxy and stats query reads. Static -backends entries are
// probe-kept members (id StaticID(i), capacity 1, so a static fleet
// shards by fleet position, byte-identically to earlier releases): a
// failed contact marks one dead, and a background probe revives it.
// With AllowRegistration, backends may also register themselves over
// the same protocol (fleet_register), keep alive with heartbeats that
// piggyback their serving stats, and depart gracefully with a drain
// frame. Their liveness is heartbeat-edge driven (no per-request dial
// probes); capacity advertised at registration weights the rendezvous
// shard, so a bigger worker pool draws proportionally more cells; and
// a draining backend finishes its in-flight batch while its unstarted
// cells hand off to the next wave without tripping failover.
//
// Failover is part of the contract: a backend that dies, times out, or
// errors mid-grid has its unfinished cells re-sharded across the
// survivors (wave by wave, until done or no backend is left), and a
// dead static member is re-probed in the background, so a restarted
// daemon rejoins on its own. The coordinator serves on raild's own
// skeleton (railserve.Core), so request-level singleflight and
// cancellation keep raild's semantics across the fan-out: identical
// in-flight requests coalesce onto one fleet execution, a cancel frame
// (or dropped connection, or TimeoutMS) stops only that request's
// wait, and when the last waiter departs the fleet execution's context
// is cancelled — which cancels the outstanding cells_req waits, sending
// cancel frames to the backends.
//
// Non-grid experiments (fig4, table1, bom, …) are proxied to one
// backend chosen by rendezvous hash of the experiment name, failing
// over to the next live backend on connection errors.
package railfleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"photonrail"
	"photonrail/internal/exp"
	"photonrail/internal/opusnet"
	"photonrail/internal/railctl"
	"photonrail/internal/railserve"
	"photonrail/internal/scenario"
	"photonrail/internal/telemetry"
)

// Config parameterizes New.
type Config struct {
	// Addr is the TCP listen address; empty means "127.0.0.1:0".
	Addr string
	// Listener, when non-nil, serves instead of a TCP listener on Addr
	// (the in-process harnesses plug pipe-backed listeners in here).
	Listener net.Listener
	// Backends are the static raild daemon addresses cells shard
	// across. May be empty when AllowRegistration is set; at least one
	// of the two fleet sources is required.
	Backends []string
	// AllowRegistration accepts fleet_register/heartbeat/drain frames:
	// raild daemons join the fleet themselves (see internal/railctl)
	// instead of — or alongside — the static Backends list. Frames
	// naming a static member's id are refused either way.
	AllowRegistration bool
	// HeartbeatTTL marks a registered backend dead when its newest
	// heartbeat is older than this; 0 means railctl.DefaultHeartbeatTTL.
	HeartbeatTTL time.Duration
	// ReprobeInterval is the cadence of the background probe that
	// re-dials the static members marked dead (the request path skips
	// them) and revives the ones that answer; 0 means
	// DefaultReprobeInterval, negative disables the loop. An empty-fleet
	// rescue probe runs regardless.
	ReprobeInterval time.Duration
	// Now replaces the membership clock for tests; nil means time.Now.
	Now func() time.Time
	// InFlight caps the cells one backend holds in flight per request
	// (cells per cells_req batch); 0 means DefaultInFlight.
	InFlight int
	// BatchTimeout bounds one cells_req batch on one backend: a
	// backend that is alive but wedged (socket open, no results) has
	// its batch abandoned after this long and the cells re-sharded to
	// the survivors — the "times out" leg of the failover contract.
	// 0 means DefaultBatchTimeout; negative disables the bound.
	BatchTimeout time.Duration
	// Dial, when non-nil, replaces the TCP dialer for backend
	// connections (the fault-injection harness routes named endpoints
	// through here).
	Dial func(addr string) (net.Conn, error)
	// Logf, when non-nil, receives one line per served request and
	// failover event.
	Logf func(format string, args ...any)
}

// DefaultInFlight is the per-backend in-flight cell cap when Config
// leaves it zero: small enough that a mid-grid backend death loses at
// most one batch per backend, large enough to amortize framing.
const DefaultInFlight = 16

// DefaultBatchTimeout is the per-batch wedge bound when Config leaves
// it zero — generous next to a batch's worst-case simulation time, so
// it only fires on genuinely stuck backends.
const DefaultBatchTimeout = 5 * time.Minute

// Coordinator is the fleet front end.
type Coordinator struct {
	// core is raild's serving skeleton: accept loop, run table, request
	// observer, base context.
	core         *railserve.Core
	inFlight     int
	batchTimeout time.Duration
	logf         func(format string, args ...any)
	dial         func(addr string) (net.Conn, error)
	now          func() time.Time

	// registry is the one membership table: static members added at New
	// and, when allowRegistration admits the wire frames, registered
	// ones. Data-plane records for its members live in backends, keyed
	// by member id, guarded by mu.
	registry          *railctl.Registry
	allowRegistration bool

	// failoversC and membersG join the core's request instruments and
	// the sampled stats_resp mirror in the coordinator's telemetry set.
	failoversC *telemetry.Counter
	membersG   *telemetry.GaugeVec

	mu       sync.Mutex
	backends map[string]*backend // member id -> data-plane record
	closed   bool                // backend records closed: no more dials
	// Request-level counters, mirroring raild's: exp_req arrivals that
	// started (or joined) a fleet execution or were proxied.
	expsExecuted, expsDeduped atomic.Uint64
}

// New starts a coordinator for the given backends. Backends are dialed
// lazily, on the first request that needs them, so the fleet may come
// up in any order; with AllowRegistration the fleet may even start
// empty and fill in as daemons register.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Backends) == 0 && !cfg.AllowRegistration {
		return nil, fmt.Errorf("railfleet: no backends configured")
	}
	dial := cfg.Dial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	inFlight := cfg.InFlight
	if inFlight <= 0 {
		inFlight = DefaultInFlight
	}
	batchTimeout := cfg.BatchTimeout
	if batchTimeout == 0 {
		batchTimeout = DefaultBatchTimeout
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	core, err := railserve.NewCore(cfg.Addr, cfg.Listener, "railfleet", "railfleet", cfg.Logf)
	if err != nil {
		return nil, err
	}
	tel := core.Telemetry()
	f := &Coordinator{
		core:              core,
		inFlight:          inFlight,
		batchTimeout:      batchTimeout,
		logf:              cfg.Logf,
		dial:              dial,
		now:               now,
		allowRegistration: cfg.AllowRegistration,
		backends:          make(map[string]*backend),
		registry: railctl.NewRegistry(railctl.Config{
			TTL: cfg.HeartbeatTTL,
			Now: now,
			OnEvent: func(ev railctl.Event) {
				if cfg.Logf != nil {
					cfg.Logf("railfleet: member %s (%s): %s %s", ev.ID, ev.Addr, ev.Type, ev.Reason)
				}
				tel.Events.Emit(telemetry.Event{Type: ev.Type, Member: ev.ID,
					Backend: ev.Addr, Capacity: ev.Capacity, Reason: ev.Reason})
			},
		}),
	}
	for i, addr := range cfg.Backends {
		f.registry.AddStatic(StaticID(i), addr)
	}
	f.failoversC = tel.Metrics.Counter("railfleet_failovers_total",
		"Backend failures mid-request whose work was re-sharded to (or retried on) the surviving backends.")
	f.membersG = tel.Metrics.GaugeVec("railfleet_members",
		"Fleet members by membership state, static and registered alike.",
		"state")
	tel.Metrics.OnScrape(f.sampleMembership)
	opusnet.RegisterStatsMetrics(tel.Metrics, "railfleet", f.Stats)
	var loops []func(ctx context.Context)
	reprobe := cfg.ReprobeInterval
	if reprobe == 0 {
		reprobe = DefaultReprobeInterval
	}
	if reprobe > 0 && len(cfg.Backends) > 0 {
		loops = append(loops, func(ctx context.Context) { f.reprobeLoop(ctx, reprobe) })
	}
	core.Start(f.dispatch, loops...)
	return f, nil
}

// sampleMembership copies the membership table into the per-state
// gauge family at scrape time, so the /metrics view always matches
// what the next wave would see.
func (f *Coordinator) sampleMembership() {
	counts := map[railctl.State]float64{
		railctl.StateHealthy: 0, railctl.StateDraining: 0,
		railctl.StateDrained: 0, railctl.StateDead: 0,
	}
	for _, m := range f.registry.Members() {
		counts[m.State]++
	}
	for state, n := range counts { //lint:allow maporder gauge series are independent; set order is immaterial
		f.membersG.With(string(state)).Set(n)
	}
}

// Telemetry exposes the coordinator's metrics registry and event log;
// cmd/railfleet serves Telemetry().Handler() on -metrics-addr, and the
// fleet tests wait deterministically on Telemetry().Events.
func (f *Coordinator) Telemetry() *telemetry.Set { return f.core.Telemetry() }

// Addr returns the listen address for clients to dial.
func (f *Coordinator) Addr() string { return f.core.Addr() }

// Close stops accepting, tears down live connections, cancels in-flight
// fleet executions, closes the backend connections, and waits for the
// connection handlers. Like raild, executions are abandoned rather than
// waited for (Drain exists for tests).
func (f *Coordinator) Close() error {
	err := f.core.Close()
	f.mu.Lock()
	f.closed = true
	all := make([]*backend, 0, len(f.backends))
	for _, b := range f.backends { //lint:allow maporder collecting for close; order is immaterial
		all = append(all, b)
	}
	f.mu.Unlock()
	for _, b := range all {
		b.close()
	}
	return err
}

// Drain waits for in-flight fleet executions and result deliveries.
func (f *Coordinator) Drain() { f.core.Drain() }

// statsTimeout bounds one backend's stats query inside an aggregated
// Stats call, so a wedged backend degrades the aggregate instead of
// hanging it.
const statsTimeout = 5 * time.Second

// Stats reports the coordinator's serving telemetry: its request-level
// counters, the per-member membership view, and the cache counters
// aggregated across the fleet, all read from the registry. Static
// members with an open connection are queried first, concurrently
// under a bounded context: an answer is retained in the registry, a
// failure marks the member dead. Registered members are never dialed:
// their newest heartbeat already carried their snapshot. Members are
// never deleted, so a dead member keeps contributing its
// last-known-good counters and fleet aggregates never go backwards when
// a backend dies. (A backend that restarts legitimately resets its own
// counters; monotonicity is guaranteed across unreachability, not
// across backend restarts.)
//
// After Close, Stats returns promptly without querying anything —
// local counters plus the retained per-member contributions, every
// member reported unhealthy — rather than racing the cancelled base
// context.
func (f *Coordinator) Stats() opusnet.CacheStatsPayload {
	closed := f.core.Closed()
	if !closed {
		f.queryStatics()
	}
	out := opusnet.CacheStatsPayload{
		ExpsExecuted: f.expsExecuted.Load(),
		ExpsDeduped:  f.expsDeduped.Load(),
	}
	nowT := f.now()
	for _, m := range f.registry.Members() {
		snap := opusnet.BackendStatsPayload{
			Addr: m.Addr, ID: m.ID, Capacity: m.Capacity, State: string(m.State), Static: m.Static,
			Healthy: !closed && m.State == railctl.StateHealthy,
		}
		if !m.LastHeartbeat.IsZero() {
			snap.LastHeartbeatAgeMS = nowT.Sub(m.LastHeartbeat).Milliseconds()
		}
		snap.Cells, snap.Failures = f.backendFor(m.ID, m.Addr).counts()
		addStats(&out, m.Stats, snap.Healthy)
		out.Backends = append(out.Backends, snap)
	}
	return out
}

// queryStatics asks every static member that has an open connection
// for its serving stats, concurrently under statsTimeout, so a wedged
// backend degrades the aggregate instead of hanging it.
func (f *Coordinator) queryStatics() {
	ctx, cancel := context.WithTimeout(f.core.BaseCtx(), statsTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for _, m := range f.registry.Members() {
		if !m.Static {
			continue // heartbeats carry a registered member's stats
		}
		b := f.backendFor(m.ID, m.Addr)
		c := b.conn()
		if c == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := c.StatsCtx(ctx)
			if err != nil {
				b.drop(c)
				f.registry.MarkDead(b.id, "stats query failed")
				return
			}
			f.registry.MarkAlive(b.id, &st)
		}()
	}
	wg.Wait()
}

// addStats folds one backend's retained cache counters into the fleet
// aggregate. Counters are retained across unreachability; the
// in-flight gauge is not — a dead backend runs nothing.
func addStats(out *opusnet.CacheStatsPayload, bst opusnet.CacheStatsPayload, healthy bool) {
	if !healthy {
		bst.InFlight = 0
	}
	out.Hits += bst.Hits
	out.Misses += bst.Misses
	out.Evictions += bst.Evictions
	out.InFlight += bst.InFlight
	out.CellsExecuted += bst.CellsExecuted
	out.CellsDeduped += bst.CellsDeduped
	out.BuildHits += bst.BuildHits
	out.BuildMisses += bst.BuildMisses
	out.ProvisionHits += bst.ProvisionHits
	out.ProvisionMisses += bst.ProvisionMisses
	out.TimeHits += bst.TimeHits
	out.TimeMisses += bst.TimeMisses
	out.SeedHits += bst.SeedHits
	out.SeedMisses += bst.SeedMisses
}

func (f *Coordinator) dispatch(msg *opusnet.Message, reply func(*opusnet.Message, bool), cs *opusnet.ConnState) bool {
	switch msg.Type {
	case opusnet.MsgExpReq:
		f.serveExp(msg, reply, cs)
	case opusnet.MsgFleetRegister, opusnet.MsgHeartbeat, opusnet.MsgDrain:
		f.serveControl(msg, reply)
	case opusnet.MsgStatsReq:
		seq := msg.Seq
		f.core.Go(func() { // Stats queries backends; never block the read loop
			st := f.Stats()
			reply(&opusnet.Message{Type: opusnet.MsgStatsResp, Seq: seq, Cache: &st}, true)
		})
	default:
		return false
	}
	return true
}

// serveControl answers the control-plane frames: fleet_register
// admits (or refreshes) a registered member, heartbeat refreshes its
// liveness and stats snapshot, drain marks it departing. The
// registration connection is pure control plane: cells travel over
// connections the coordinator dials to the member's advertised
// address. A heartbeat for an unknown identity is refused so the agent
// re-registers (the coordinator may have restarted and lost the
// table); a drain for one acks — the member is already not part of the
// fleet, and a retried SIGTERM must not fail.
func (f *Coordinator) serveControl(msg *opusnet.Message, reply func(*opusnet.Message, bool)) {
	var err error
	switch {
	case !f.allowRegistration:
		err = fmt.Errorf("railfleet: dynamic registration disabled (static -backends fleet)")
	case msg.Type == opusnet.MsgFleetRegister && msg.FleetReg != nil:
		err = f.registry.Register(msg.FleetReg.ID, msg.FleetReg.Addr, msg.FleetReg.Capacity)
	case msg.Type == opusnet.MsgHeartbeat && msg.Heartbeat != nil:
		err = f.registry.Heartbeat(msg.Heartbeat.ID, msg.Heartbeat.Capacity, msg.Heartbeat.Stats)
	case msg.Type == opusnet.MsgDrain && msg.DrainReq != nil:
		if err = f.registry.Drain(msg.DrainReq.ID, msg.DrainReq.Reason); errors.Is(err, railctl.ErrUnknownMember) {
			err = nil
		}
	default:
		err = fmt.Errorf("railfleet: %s without a payload", msg.Type)
	}
	if err != nil {
		reply(&opusnet.Message{Type: opusnet.MsgErr, Seq: msg.Seq, Error: err.Error()}, true)
		return
	}
	reply(&opusnet.Message{Type: opusnet.MsgAck, Seq: msg.Seq}, true)
}

// serveExp serves exp_req at the coordinator: grid experiments fan out
// across the fleet (rendered at the coordinator by raild's own
// renderer); everything else is proxied to a backend.
func (f *Coordinator) serveExp(msg *opusnet.Message, reply func(*opusnet.Message, bool), cs *opusnet.ConnState) {
	seq := msg.Seq
	req := msg.Exp
	if req == nil {
		railserve.ReplyErr(reply, seq, fmt.Errorf("railfleet: experiment request without a payload"))
		return
	}
	if _, ok := photonrail.Lookup(req.Name); !ok {
		railserve.ReplyErr(reply, seq, fmt.Errorf("railfleet: unknown experiment (see photonrail.Experiments; grids run via name %q)", "grid"))
		return
	}
	if err := opusnet.CheckFormat(req.Format); err != nil {
		railserve.ReplyErr(reply, seq, err)
		return
	}
	if !photonrail.IsGridExperiment(req.Name) {
		// A grid on a non-grid experiment is rejected by the backend,
		// exactly as a direct raild request would be.
		f.proxyExp(msg, reply, cs)
		return
	}
	// Resolve the effective grid exactly as the registry would: an
	// explicit spec wins; a built-in grid experiment falls back to its
	// registered grid; bare "grid" falls back to the paper-default
	// custom grid.
	var spec scenario.Spec
	switch {
	case req.Grid != nil:
		spec = *req.Grid
	case req.Name != "grid":
		spec = scenario.SpecOf(scenario.Grids()[req.Name]())
	}
	if req.Name == "grid" && spec.Name == "" {
		spec.Name = "custom"
	}
	grid, err := railserve.ValidateGridSpec(spec)
	if err != nil {
		railserve.ReplyErr(reply, seq, err)
		return
	}
	// Every experiment naming the same resolved grid coalesces onto one
	// fleet execution; each waiter's result carries its own name and
	// only the rendering its own Format asks for.
	key := exp.HashKey(grid.AppendKey(exp.AppendString(nil, "fleet")))
	r := f.core.Begin(req.Name, key, grid.CellCount(), seq, req.TimeoutMS, cs)
	if r == nil {
		return
	}
	f.core.Serve(r, railserve.Job{
		Key:   key,
		Label: fmt.Sprintf("experiment %q", req.Name),
		Count: func(shared bool) {
			if shared {
				f.expsDeduped.Add(1)
			} else {
				f.expsExecuted.Add(1)
			}
		},
		Execute: func(ctx context.Context, progress func(done, total int)) (any, error) {
			return f.executeGrid(ctx, spec, grid, progress)
		},
		Result: func(payload any, shared bool) (*opusnet.Message, error) {
			res := photonrail.GridExperimentResult(grid.Name, payload.([]scenario.Row))
			return railserve.ExpResultMessage(req.Name, res, req.Format, shared)
		},
	}, reply)
}

// proxyExp forwards a non-grid experiment to one backend — chosen by
// rendezvous hash of the experiment name so repeat requests land on
// the same warm cache — failing over to the next live backend on
// connection errors. The request, Format included, passes through
// unchanged, so the backend renders only what the client asked for.
// Application-level refusals are returned as-is: a retry elsewhere
// would only repeat them.
func (f *Coordinator) proxyExp(msg *opusnet.Message, reply func(*opusnet.Message, bool), cs *opusnet.ConnState) {
	seq := msg.Seq
	req := *msg.Exp
	fail := func(err error) { railserve.ReplyErr(reply, seq, err) }
	r := f.core.Begin(req.Name, "", 0, seq, req.TimeoutMS, cs)
	if r == nil {
		return
	}
	f.expsExecuted.Add(1)
	r.Admitted(false)
	f.core.Go(func() {
		order := f.proxyOrder(req.Name)
		var lastErr error
		for _, b := range order {
			c, err := b.get()
			if err != nil {
				f.registry.MarkDead(b.id, "unreachable")
				lastErr = err
				continue
			}
			run, err := c.RunExperiment(r.Ctx, req, func(done, total int) {
				reply(&opusnet.Message{Type: opusnet.MsgExpProgress, Seq: seq,
					Progress: &opusnet.GridProgress{Done: done, Total: total}}, false)
			})
			if err != nil {
				if werr := r.Ctx.Err(); werr != nil {
					r.Finish(werr, true)
					fail(fmt.Errorf("railfleet: experiment %q: %w", req.Name, werr))
					return
				}
				if errors.Is(err, railserve.ErrConnDown) {
					if f.logf != nil {
						f.logf("railfleet: backend %s died serving experiment %q: %v (failing over)", b.address(), req.Name, err)
					}
					b.fail(c)
					f.registry.MarkDead(b.id, "failover")
					f.failoversC.Inc()
					f.Telemetry().Events.Emit(telemetry.Event{Type: "failover", Req: r.ID, Exp: req.Name,
						Backend: b.address(), Member: b.id, Err: err.Error()})
					lastErr = err
					continue
				}
				r.Finish(err, false)
				fail(err)
				return
			}
			r.Finish(nil, false)
			reply(&opusnet.Message{Type: opusnet.MsgExpResult, Seq: seq, ExpResult: &opusnet.ExpResultPayload{
				Name: run.Name, Grid: run.Grid,
				Rendered: run.Rendered, RenderedCSV: run.RenderedCSV, RowsJSON: run.RowsJSON,
				Shared: run.Shared,
			}}, true)
			return
		}
		err := fmt.Errorf("railfleet: no live backend served experiment %q (last error: %v)", req.Name, lastErr)
		r.Finish(err, false)
		fail(err)
	})
}

// proxyOrder ranks the live members by weighted rendezvous score for
// an experiment name — the same hash the cell shard uses, so repeat
// requests land on the same warm cache.
func (f *Coordinator) proxyOrder(name string) []*backend {
	members := f.live(nil) // sorted by ID: the tiebreak the stable sort keeps
	score := func(m railctl.Member) float64 { return weightedScore(name, Target{ID: m.ID, Weight: m.Capacity}) }
	sort.SliceStable(members, func(i, j int) bool { return score(members[i]) > score(members[j]) })
	out := make([]*backend, len(members))
	for i, m := range members {
		out[i] = f.backendFor(m.ID, m.Addr)
	}
	return out
}

// executeGrid fans one expanded grid out across the fleet and merges
// the partial rows back into canonical expansion order — the
// coordinator's core. Cells shard by workload key with each backend's
// capacity as rendezvous weight (AssignWeighted); each backend's share
// is submitted in batches of at most f.inFlight cells (the per-backend
// in-flight cap). A backend that dies or errors mid-grid has its
// unfinished cells re-sharded across the survivors on the next wave; a
// backend that drains mid-grid finishes the batch it holds and hands
// its unsubmitted cells to the next wave — graceful, so no failover is
// counted. The grid fails only when no backend is left. The returned
// rows are byte-identical to a single-daemon run, whichever backends
// executed which cells.
//
// onCell receives aggregated monotonic progress over the whole grid:
// committed cells (rows landed) plus live in-batch ticks, never
// exceeding the total — a failed batch's ticks are discarded along
// with its re-executed cells.
func (f *Coordinator) executeGrid(ctx context.Context, spec scenario.Spec, grid scenario.Grid, onCell func(done, total int)) ([]scenario.Row, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cells := grid.Expand()
	total := len(cells)
	rows := make([]scenario.Row, total)

	var pmu sync.Mutex
	committed, lastEmitted, batchSeq := 0, 0, 0
	live := make(map[int]int) // batch id -> cells done in that batch
	emit := func() {          // pmu held
		v := committed
		for _, d := range live {
			v += d
		}
		if v > lastEmitted {
			lastEmitted = v
			if onCell != nil {
				onCell(v, total)
			}
		}
	}

	remaining := make([]int, total)
	for i := range remaining {
		remaining[i] = i
	}
	// A backend that fails during THIS request is excluded from its
	// later waves: each wave's candidate set strictly shrinks, so a
	// backend returning a deterministic refusal (e.g. a pre-cells_req
	// raild answering "unsupported message type") is routed around
	// once instead of being re-dialed and re-failed forever. (Drained
	// members need no entry here: the next wave's registry read already
	// excludes them.)
	excluded := make(map[string]bool)
	for wave := 0; len(remaining) > 0; wave++ {
		targets, byID := f.waveTargets(excluded)
		if len(targets) == 0 {
			return nil, fmt.Errorf("railfleet: no live backends (%d of %d cells unexecuted)", len(remaining), total)
		}
		assignment := AssignWeighted(cells, remaining, targets)
		if f.logf != nil {
			f.logf("railfleet: grid %q wave %d: %d cells across %d backends", grid.Name, wave, len(remaining), len(assignment))
		}
		// One sharded event per (wave, backend), in member-id order so
		// the event stream is deterministic for a given assignment.
		shardOrder := make([]string, 0, len(assignment))
		for id := range assignment {
			shardOrder = append(shardOrder, id)
		}
		sort.Strings(shardOrder)
		for _, id := range shardOrder {
			f.Telemetry().Events.Emit(telemetry.Event{Type: "sharded", Exp: grid.Name,
				Backend: byID[id].address(), Member: id, Cells: len(assignment[id]), Wave: wave})
		}
		var wg sync.WaitGroup
		var fmu sync.Mutex
		var failed []int
		for id, idxs := range assignment {
			b, idxs := byID[id], idxs
			wg.Add(1)
			go func() {
				defer wg.Done()
				for start := 0; start < len(idxs); start += f.inFlight {
					if f.registry.Draining(b.id) {
						// Graceful departure: the unsubmitted remainder hands
						// off to the next wave. No failover counter, no
						// exclusion — this is the drain working as designed.
						f.Telemetry().Events.Emit(telemetry.Event{Type: "drain_handoff", Exp: grid.Name,
							Backend: b.address(), Member: b.id, Cells: len(idxs) - start, Wave: wave})
						fmu.Lock()
						failed = append(failed, idxs[start:]...)
						fmu.Unlock()
						return
					}
					end := start + f.inFlight
					if end > len(idxs) {
						end = len(idxs)
					}
					if err := f.runBatch(ctx, b, spec, idxs[start:end], rows, &pmu, &committed, live, &batchSeq, emit); err != nil {
						if ctx.Err() != nil {
							return // cancelled: the wave exit reports it
						}
						if f.registry.Draining(b.id) {
							// The drain raced the batch: its connection may
							// already be gone, but the departure is still
							// graceful — hand off, don't count a failover.
							f.Telemetry().Events.Emit(telemetry.Event{Type: "drain_handoff", Exp: grid.Name,
								Backend: b.address(), Member: b.id, Cells: len(idxs) - start, Wave: wave})
							fmu.Lock()
							failed = append(failed, idxs[start:]...)
							fmu.Unlock()
							return
						}
						if f.logf != nil {
							f.logf("railfleet: backend %s failed %d cells of grid %q: %v (re-sharding)",
								b.address(), len(idxs)-start, grid.Name, err)
						}
						f.registry.MarkDead(b.id, "failover")
						f.failoversC.Inc()
						f.Telemetry().Events.Emit(telemetry.Event{Type: "failover", Exp: grid.Name,
							Backend: b.address(), Member: b.id, Cells: len(idxs) - start, Wave: wave, Err: err.Error()})
						fmu.Lock()
						excluded[b.id] = true
						failed = append(failed, idxs[start:]...)
						fmu.Unlock()
						return
					}
					f.Telemetry().Events.Emit(telemetry.Event{Type: "cell_complete", Exp: grid.Name,
						Backend: b.address(), Member: b.id, Cells: end - start, Wave: wave})
				}
			}()
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		remaining = failed
	}
	return rows, nil
}

// runBatch executes one cell batch on one backend and merges its rows.
// Any failure other than the caller's own cancellation marks the
// backend failed (dropping its connection) so the wave loop re-shards.
func (f *Coordinator) runBatch(ctx context.Context, b *backend, spec scenario.Spec, batch []int,
	rows []scenario.Row, pmu *sync.Mutex, committed *int, live map[int]int, batchSeq *int, emit func()) error {
	pmu.Lock()
	*batchSeq++
	id := *batchSeq
	pmu.Unlock()
	defer func() {
		pmu.Lock()
		delete(live, id)
		pmu.Unlock()
	}()

	c, err := b.get()
	if err != nil {
		return err
	}
	// The batch — not the request — is bounded: a wedged backend's
	// batch expires (sending it a cancel frame) and its cells re-shard,
	// while the caller's own cancellation is still distinguished via
	// the parent ctx.
	bctx := ctx
	if f.batchTimeout > 0 {
		var bcancel context.CancelFunc
		bctx, bcancel = context.WithTimeout(ctx, f.batchTimeout)
		defer bcancel()
	}
	run, err := c.RunCellsCtx(bctx, spec, batch, 0, func(done, _ int) {
		pmu.Lock()
		if done > live[id] {
			live[id] = done
			emit()
		}
		pmu.Unlock()
	})
	if err == nil && len(run.Rows) != len(batch) {
		err = fmt.Errorf("railfleet: backend %s returned %d rows for a %d-cell batch", b.address(), len(run.Rows), len(batch))
	}
	if err != nil {
		if ctx.Err() == nil {
			b.fail(c)
		}
		return err
	}
	for j, idx := range batch {
		rows[idx] = run.Rows[j]
	}
	b.note(len(batch))
	pmu.Lock()
	delete(live, id)
	*committed += len(batch)
	emit()
	pmu.Unlock()
	return nil
}
