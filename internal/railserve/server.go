// Package railserve is the experiment-serving daemon behind cmd/raild:
// a long-running TCP service that executes any experiment in the
// photonrail registry — figure sweeps, window analyses, cost tables,
// scenario grids — for remote clients over the opusnet framed
// protocol. Every request is an exp_req naming a registry experiment;
// grids run as the experiment "grid" with the spec in its Grid field.
// Where every one-shot CLI run rebuilds the memo cache from scratch,
// the daemon keeps one engine — and its simulation cache — warm across
// requests, shards each request's jobs across the engine's worker
// pool, and streams exp_progress frames back so clients render live
// progress.
//
// Two layers of deduplication serve concurrent clients:
//
//   - request-level singleflight: identical in-flight requests (keyed
//     on the experiment name + parameters, or the grid + index list of
//     a cell subset) coalesce onto one execution, with progress and
//     results fanned out to every subscriber;
//   - simulation-level memoization: distinct requests sharing
//     simulations (or electrical baselines) reuse the engine's cache.
//
// Beyond registry experiments, the daemon executes cell *subsets*
// (cells_req: a grid spec plus expansion-order indices) — the
// partial-execution unit internal/railfleet shards a grid into when
// fanning it out across a fleet of these daemons.
//
// Cancellation is first-class: every request may carry a deadline
// (TimeoutMS), a client may send a cancel frame referencing its
// request's Seq, and a dropped connection cancels its requests' waits.
// All three stop only that request's wait — an execution other clients
// joined keeps running for them; only when the last subscriber departs
// is the execution's context cancelled, which stops scheduling new
// simulation jobs (in-flight simulations land in the warm cache either
// way). Server.Close cancels the base context, so shutdown also stops
// abandoned executions from scheduling more work.
//
// The serving skeleton — accept loop, run table, request observer and
// the cancellation contract above — is Core, which the fleet
// coordinator (internal/railfleet) serves on too.
//
// The engine is cost-bounded (photonrail.NewBoundedEngine), so the
// daemon is safe to run indefinitely: cold results are evicted LRU-wise
// instead of growing without bound.
package railserve

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync/atomic"

	"photonrail"
	"photonrail/internal/exp"
	"photonrail/internal/opusnet"
	"photonrail/internal/scenario"
	"photonrail/internal/telemetry"
)

// Config parameterizes NewServer.
type Config struct {
	// Addr is the TCP listen address; empty means "127.0.0.1:0".
	Addr string
	// Listener, when non-nil, serves instead of a fresh TCP listener on
	// Addr — the in-process loopback and fault-injection test harnesses
	// plug pipe-backed listeners in here.
	Listener net.Listener
	// Workers is the engine worker-pool size (0 = NumCPU).
	Workers int
	// MaxCacheCost bounds the engine's memo cache in simulation units
	// (0 = unbounded; see photonrail.NewBoundedEngine).
	MaxCacheCost int64
	// Logf, when non-nil, receives one line per served request.
	Logf func(format string, args ...any)
}

// Server is the experiment-serving daemon.
type Server struct {
	// core is the serving skeleton shared with the fleet coordinator:
	// accept loop, run table, request observer, base context.
	core   *Core
	engine *photonrail.Engine

	// expsExecuted counts experiment executions actually started;
	// expsDeduped counts requests coalesced onto one of them. The gap
	// between requests received and expsExecuted is the request-level
	// dedup win the loopback e2e test asserts on. cellsExecuted counts
	// CELLS executed through the subset path (the fleet distribution
	// tests assert every backend got some), cellsDeduped coalesced
	// subset requests.
	expsExecuted, expsDeduped   atomic.Uint64
	cellsExecuted, cellsDeduped atomic.Uint64
}

// maxGridName bounds a requested grid's name. The name is echoed into
// the result payload and error messages; without a bound, a name sized
// near the 8 MiB request-frame limit would make the reply frame
// unencodable after the grid had already executed.
const maxGridName = 256

// maxGridCells caps one request's cell count. The result frame carries
// one JSON row per cell inside opusnet's 8 MiB frame limit — rows run
// ~400 bytes and stay under 1 KiB even with pathological coordinate
// and skip-reason strings, so 4096 cells keep the reply below half the
// frame limit. Rejecting over-large grids up front (arithmetically,
// via CellCount, before any expansion) keeps the daemon from being
// OOM-killed by a huge cross-product or from simulating for minutes
// only to fail encoding the reply.
const maxGridCells = 4096

// NewServer starts the daemon listening on cfg.Listener (when set) or
// a fresh TCP listener on cfg.Addr. Close stops it.
func NewServer(cfg Config) (*Server, error) {
	core, err := NewCore(cfg.Addr, cfg.Listener, "raild", "railserve", cfg.Logf)
	if err != nil {
		return nil, err
	}
	s := &Server{core: core, engine: photonrail.NewBoundedEngine(cfg.Workers, cfg.MaxCacheCost)}
	stageDur := core.tel.Metrics.HistogramVec("raild_stage_duration_seconds",
		"Wall time of simulations actually computed (cache misses), by pipeline stage.",
		telemetry.DefLatencyBuckets, "stage")
	s.engine.SetStageObserver(func(stage string, seconds float64) {
		if stage == "" {
			stage = "other"
		}
		stageDur.With(stage).Observe(seconds)
	})
	// The sampled stats_resp mirror: a /metrics scrape reports exactly
	// what a stats frame would, from the same Stats call.
	opusnet.RegisterStatsMetrics(core.tel.Metrics, "raild", s.Stats)
	core.Start(s.dispatch)
	return s, nil
}

// Telemetry exposes the daemon's metrics registry and event log;
// cmd/raild serves Telemetry().Handler() on -metrics-addr, and tests
// wait deterministically on Telemetry().Events.
func (s *Server) Telemetry() *telemetry.Set { return s.core.tel }

// Addr returns the listen address for clients to dial.
func (s *Server) Addr() string { return s.core.Addr() }

// Engine exposes the daemon's engine (tests assert on its cache stats).
func (s *Server) Engine() *photonrail.Engine { return s.engine }

// Stats reports the daemon's serving telemetry: the engine's cache
// counters plus the request-level dedup counters.
func (s *Server) Stats() opusnet.CacheStatsPayload {
	st := s.engine.CacheStats()
	return opusnet.CacheStatsPayload{
		Hits:          st.Hits,
		Misses:        st.Misses,
		Evictions:     st.Evictions,
		InFlight:      st.InFlight,
		ExpsExecuted:  s.expsExecuted.Load(),
		ExpsDeduped:   s.expsDeduped.Load(),
		CellsExecuted: s.cellsExecuted.Load(),
		CellsDeduped:  s.cellsDeduped.Load(),

		BuildHits:       st.Build.Hits,
		BuildMisses:     st.Build.Misses,
		ProvisionHits:   st.Provision.Hits,
		ProvisionMisses: st.Provision.Misses,
		TimeHits:        st.Time.Hits,
		TimeMisses:      st.Time.Misses,
		SeedHits:        st.SeedHits,
		SeedMisses:      st.SeedMisses,
	}
}

// Close stops accepting, tears down live connections and cancels the
// base context; executions are abandoned, not waited for (see
// Core.Close).
func (s *Server) Close() error { return s.core.Close() }

// Drain waits for in-flight executions and result deliveries to
// finish. Tests use it so abandoned executions never outlive the test
// that started them; a production shutdown calls Close alone.
func (s *Server) Drain() { s.core.Drain() }

// DrainCtx is Drain bounded by ctx — the graceful-shutdown wait: raild
// announces its drain to the coordinator, then waits here for in-flight
// executions to finish (bounded by -drain-timeout) before closing.
func (s *Server) DrainCtx(ctx context.Context) error { return s.core.DrainCtx(ctx) }

// Capacity reports the engine's worker-pool size — the weight a
// registered backend advertises for capacity-weighted sharding.
func (s *Server) Capacity() int { return s.engine.Workers() }

func (s *Server) dispatch(msg *opusnet.Message, reply func(*opusnet.Message, bool), cs *opusnet.ConnState) bool {
	switch msg.Type {
	case opusnet.MsgExpReq:
		s.serveExp(msg, reply, cs)
	case opusnet.MsgCellsReq:
		s.serveCells(msg, reply, cs)
	case opusnet.MsgStatsReq:
		st := s.Stats()
		reply(&opusnet.Message{Type: opusnet.MsgStatsResp, Seq: msg.Seq, Cache: &st}, true)
	default:
		return false
	}
	return true
}

// ValidateGridSpec applies the daemon's request bounds to a grid spec:
// name length, resolvability, well-formedness, and the arithmetic cell
// cap (see maxGridCells). The fleet coordinator applies the same
// bounds before fanning a grid out, so a request one daemon would
// refuse is refused by the fleet too — identically, before any
// backend sees it.
func ValidateGridSpec(spec scenario.Spec) (scenario.Grid, error) {
	if len(spec.Name) > maxGridName {
		// Deliberately does not echo the name: the refusal frame must
		// stay encodable.
		return scenario.Grid{}, fmt.Errorf("railserve: grid name of %d bytes exceeds the %d-byte limit", len(spec.Name), maxGridName)
	}
	grid, err := spec.Resolve()
	if err != nil {
		return scenario.Grid{}, err
	}
	if err := grid.Validate(); err != nil {
		return scenario.Grid{}, err
	}
	if cells := grid.CellCount(); cells > maxGridCells {
		return scenario.Grid{}, fmt.Errorf("railserve: grid %q expands to %d cells, exceeding the %d-cell request cap",
			grid.Name, cells, maxGridCells)
	}
	return grid, nil
}

// serveExp runs a registered photonrail experiment for one request:
// validate, then hand the shared join-or-start skeleton (Core.Serve) an
// execute closure that runs the registry entry and renders its result
// server-side.
func (s *Server) serveExp(msg *opusnet.Message, reply func(*opusnet.Message, bool), cs *opusnet.ConnState) {
	req := msg.Exp
	if req == nil {
		ReplyErr(reply, msg.Seq, fmt.Errorf("railserve: experiment request without a payload"))
		return
	}
	e, ok := photonrail.Lookup(req.Name)
	if !ok {
		// Deliberately does not echo arbitrary names at frame-limit
		// lengths; the registry spelling list is short and fixed.
		ReplyErr(reply, msg.Seq, fmt.Errorf("railserve: unknown experiment (see photonrail.Experiments; grids run via name %q)", "grid"))
		return
	}
	p := photonrail.Params{
		Iterations:       req.Iterations,
		WindowIterations: req.WindowIterations,
		LatenciesMS:      req.LatenciesMS,
		Rail:             req.Rail,
		GPUs:             req.GPUs,
	}
	if req.Grid != nil {
		if !photonrail.IsGridExperiment(req.Name) {
			ReplyErr(reply, msg.Seq, fmt.Errorf("railserve: experiment %q does not take a grid", req.Name))
			return
		}
		// ValidateGridSpec rejects over-large grids before any expansion
		// or simulation: the count is computed arithmetically, so a spec
		// whose axes multiply out to billions of cells cannot OOM the
		// daemon.
		spec := *req.Grid
		if _, err := ValidateGridSpec(spec); err != nil {
			ReplyErr(reply, msg.Seq, err)
			return
		}
		p.Grid = &spec
	}
	// The canonical experiment/params hash: the same key the railgate
	// front door content-addresses stored results under, so in-flight
	// coalescing here and cross-restart dedup there agree by construction.
	key := photonrail.ExperimentKey(req.Name, p)
	r := s.core.Begin(req.Name, key, 0, msg.Seq, req.TimeoutMS, cs)
	if r == nil {
		return
	}
	s.core.Serve(r, Job{
		Key:   key,
		Label: fmt.Sprintf("experiment %q", req.Name),
		Count: func(shared bool) {
			if shared {
				s.expsDeduped.Add(1)
			} else {
				s.expsExecuted.Add(1)
			}
		},
		Execute: func(ctx context.Context, progress func(done, total int)) (any, error) {
			params := p
			params.OnProgress = progress
			res, err := e.Run(ctx, s.engine, params)
			if err != nil {
				return nil, err
			}
			return RenderExpPayload(req.Name, res)
		},
		Result: func(payload any, shared bool) *opusnet.Message {
			p := *(payload.(*opusnet.ExpResultPayload))
			p.Shared = shared
			return &opusnet.Message{Type: opusnet.MsgExpResult, ExpResult: &p}
		},
	}, reply)
}

// serveCells executes a subset of a grid's cells — the fleet
// coordinator's partial-execution path. Identical subset requests
// coalesce (singleflight keyed on the resolved grid AND the index
// list), cells simulate on the shared bounded engine cache, and the
// wait honors the same deadline/cancel/teardown contract as the
// experiment path.
func (s *Server) serveCells(msg *opusnet.Message, reply func(*opusnet.Message, bool), cs *opusnet.ConnState) {
	fail := func(err error) { ReplyErr(reply, msg.Seq, err) }
	req := msg.Cells
	if req == nil || req.Spec == nil {
		fail(fmt.Errorf("railserve: cells request without a grid spec"))
		return
	}
	grid, err := ValidateGridSpec(*req.Spec)
	if err != nil {
		fail(err)
		return
	}
	if len(req.Indices) == 0 {
		fail(fmt.Errorf("railserve: cells request for grid %q selects no cells", grid.Name))
		return
	}
	total := grid.CellCount()
	seen := make(map[int]bool, len(req.Indices))
	for _, idx := range req.Indices {
		if idx < 0 || idx >= total {
			fail(fmt.Errorf("railserve: cell index %d outside grid %q (%d cells)", idx, grid.Name, total))
			return
		}
		if seen[idx] {
			fail(fmt.Errorf("railserve: duplicate cell index %d for grid %q", idx, grid.Name))
			return
		}
		seen[idx] = true
	}
	indices := append([]int(nil), req.Indices...)
	key := exp.Key("cells", grid, indices)
	r := s.core.Begin("cells", key, len(indices), msg.Seq, req.TimeoutMS, cs)
	if r == nil {
		return
	}
	s.core.Serve(r, Job{
		Key:   key,
		Label: fmt.Sprintf("grid %q cells", grid.Name),
		Count: func(shared bool) {
			if shared {
				s.cellsDeduped.Add(1)
			} else {
				s.cellsExecuted.Add(uint64(len(indices)))
			}
		},
		Execute: func(ctx context.Context, progress func(done, total int)) (any, error) {
			results, err := s.engine.RunCellsProgressCtx(ctx, grid, indices, progress)
			if err != nil {
				return nil, err
			}
			res := photonrail.GridResult{Grid: grid, Cells: results}
			return &opusnet.CellsResultPayload{Name: grid.Name, Indices: indices, Rows: res.Rows()}, nil
		},
		Result: func(payload any, shared bool) *opusnet.Message {
			p := *(payload.(*opusnet.CellsResultPayload))
			p.Shared = shared
			return &opusnet.Message{Type: opusnet.MsgCellsResult, CellsResult: &p}
		},
	}, reply)
}

// RenderExpPayload renders a completed experiment once, server-side,
// into the exact bytes each client output format prints. The fleet
// coordinator renders its merged rows here too, so fleet bytes are a
// daemon's bytes.
func RenderExpPayload(name string, res *photonrail.ExperimentResult) (*opusnet.ExpResultPayload, error) {
	var text, csv, rows bytes.Buffer
	if err := res.RenderText(&text); err != nil {
		return nil, err
	}
	if err := res.RenderCSV(&csv); err != nil {
		return nil, err
	}
	if err := res.RenderJSON(&rows); err != nil {
		return nil, err
	}
	return &opusnet.ExpResultPayload{
		Name:        name,
		Grid:        res.Grid,
		Rendered:    text.String(),
		RenderedCSV: csv.String(),
		RowsJSON:    rows.String(),
	}, nil
}
