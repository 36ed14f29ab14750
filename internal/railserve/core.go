package railserve

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"photonrail/internal/opusnet"
	"photonrail/internal/telemetry"
)

// eventRingCapacity bounds a core's request-lifecycle event ring: large
// enough that a deterministic test wait (or an /events tail attaching
// mid-run) sees a complete window over any realistic burst — a fig8-5d
// fleet fan-out emits a few hundred events — small enough to cap
// memory; overflow drops oldest and is counted.
const eventRingCapacity = 4096

// Core is the serving skeleton raild (Server) and the fleet coordinator
// (internal/railfleet) share: the listener and accept loop, the live
// connection set, the base context Close cancels, the request observer
// (ids, in-flight gauge, latency histogram, lifecycle events), and the
// request-level singleflight run table with its deadline, cancel and
// last-departure contract. Each caller brings its own dispatch,
// singleflight keys and counters.
type Core struct {
	ln   net.Listener
	name string // log and error prefix ("railserve", "railfleet")
	logf func(format string, args ...any)

	tel       *telemetry.Set
	reqSeq    atomic.Uint64 // request-id allocator ("r1", "r2", ...)
	inflightG *telemetry.Gauge
	durations *telemetry.HistogramVec

	// baseCtx parents every execution and request wait; Close cancels
	// it, so shutdown stops in-flight executions from scheduling more
	// work.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu     sync.Mutex
	runs   map[string]*run // singleflight key -> running execution
	conns  map[net.Conn]bool
	closed bool
	// execGate, when non-nil, is received from before each execution
	// starts — a test-only hook that holds a request in flight
	// deterministically.
	execGate <-chan struct{}

	// wg tracks the accept loop, connection handlers and background
	// loops — everything Close must wait for. Executions and result
	// deliveries are tracked separately (execWG): once every connection
	// is closed their results are undeliverable, so Close abandons them
	// rather than blocking a shutdown on minutes of unwanted simulation.
	wg     sync.WaitGroup
	execWG sync.WaitGroup
}

// NewCore listens on ln (when non-nil) or a fresh TCP listener on addr
// (empty means "127.0.0.1:0") and sets up the request observer under
// the metric prefix ("raild", "railfleet"). name prefixes log lines and
// error replies. Start begins serving.
func NewCore(addr string, ln net.Listener, prefix, name string, logf func(format string, args ...any)) (*Core, error) {
	if ln == nil {
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		var err error
		if ln, err = net.Listen("tcp", addr); err != nil {
			return nil, err
		}
	}
	//lint:allow ctxbg the server's lifetime root: every request context derives from it and Close cancels it
	baseCtx, baseCancel := context.WithCancel(context.Background())
	c := &Core{
		ln:         ln,
		name:       name,
		logf:       logf,
		tel:        telemetry.NewSet(eventRingCapacity, func() int64 { return time.Now().UnixNano() }),
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
		runs:       make(map[string]*run),
		conns:      make(map[net.Conn]bool),
	}
	c.inflightG = c.tel.Metrics.Gauge(prefix+"_requests_inflight",
		"Requests admitted (validated and joined or started an execution) and awaiting their final reply.")
	c.durations = c.tel.Metrics.HistogramVec(prefix+"_request_duration_seconds",
		"Admitted-request wall time from arrival to final reply, by experiment (cells_req subsets label as \"cells\").",
		telemetry.DefLatencyBuckets, "experiment")
	return c, nil
}

// Start serves connections on opusnet's shared connection skeleton
// (writer goroutine, drop-advisory-frames, close-on-wedge, per-connection
// cancellation registry — see opusnet.ServeConn). The core answers
// MsgCancel itself and refuses a type dispatch reports unhandled with
// MsgErr "unsupported message type". Each loop runs in the background
// until Close cancels its context.
func (c *Core) Start(dispatch func(*opusnet.Message, func(*opusnet.Message, bool), *opusnet.ConnState) bool, loops ...func(ctx context.Context)) {
	for _, loop := range loops {
		loop := loop
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			loop(c.baseCtx)
		}()
	}
	serve := func(msg *opusnet.Message, reply func(*opusnet.Message, bool), cs *opusnet.ConnState) {
		if msg.Type == opusnet.MsgCancel {
			// No reply: the cancelled request itself terminates with
			// MsgErr, and a cancel that raced completion has nothing to do.
			cs.CancelSeq(msg.Seq)
			return
		}
		if !dispatch(msg, reply, cs) {
			ReplyErr(reply, msg.Seq, fmt.Errorf("%s: unsupported message type %q", c.name, msg.Type))
		}
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		opusnet.AcceptLoop(c.ln, c.Closed,
			func(err error) {
				if c.logf != nil {
					c.logf("%s: accept: %v", c.name, err)
				}
			},
			func(conn net.Conn) bool {
				c.mu.Lock()
				if c.closed {
					c.mu.Unlock()
					return false
				}
				c.conns[conn] = true
				c.mu.Unlock()
				c.wg.Add(1)
				go func() {
					defer c.wg.Done()
					defer func() {
						c.mu.Lock()
						delete(c.conns, conn)
						c.mu.Unlock()
						_ = conn.Close()
					}()
					opusnet.ServeConn(conn, serve)
				}()
				return true
			})
	}()
}

// ReplyErr sends seq's terminal MsgErr frame.
func ReplyErr(reply func(*opusnet.Message, bool), seq uint64, err error) {
	reply(&opusnet.Message{Type: opusnet.MsgErr, Seq: seq, Error: err.Error()}, true)
}

// Addr returns the listen address for clients to dial.
func (c *Core) Addr() string { return c.ln.Addr().String() }

// Telemetry exposes the metrics registry and lifecycle event log.
func (c *Core) Telemetry() *telemetry.Set { return c.tel }

// BaseCtx is the lifetime context Close cancels.
func (c *Core) BaseCtx() context.Context { return c.baseCtx }

// Closed reports whether Close has begun.
func (c *Core) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// SetExecGate installs a test-only gate every execution receives from
// before it starts (nil removes it).
func (c *Core) SetExecGate(gate <-chan struct{}) {
	c.mu.Lock()
	c.execGate = gate
	c.mu.Unlock()
}

// Go runs fn as tracked execution or delivery work: Drain waits for
// it, Close does not.
func (c *Core) Go(fn func()) {
	c.execWG.Add(1)
	go func() {
		defer c.execWG.Done()
		fn()
	}()
}

// Close stops accepting, tears down live connections, cancels the base
// context (so in-flight executions stop scheduling new work), and waits
// for the connection handlers and background loops. Executions are NOT
// waited for: their results are undeliverable once the connections are
// gone, so they wind down promptly under the cancelled context — a
// SIGTERM never blocks on minutes of abandoned simulation.
func (c *Core) Close() error {
	c.mu.Lock()
	c.closed = true
	for conn := range c.conns {
		_ = conn.Close()
	}
	c.mu.Unlock()
	c.baseCancel()
	err := c.ln.Close()
	c.wg.Wait()
	return err
}

// Drain waits for in-flight executions and result deliveries. Tests
// use it so abandoned executions never outlive the test that started
// them; a production shutdown calls Close alone.
func (c *Core) Drain() { c.execWG.Wait() }

// DrainCtx is Drain bounded by ctx.
func (c *Core) DrainCtx(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		c.execWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Req is one admitted request's lifecycle: its id, its wait context,
// and its observation — the in-flight gauge, the per-experiment latency
// histogram, and the lifecycle events. Exactly one Finish balances each
// Begin.
type Req struct {
	// ID names the request in lifecycle events ("r1", "r2", ...).
	ID string
	// Ctx is the request's wait: it ends at the request's deadline, on
	// a cancel frame for its Seq, when its connection drops, or at
	// Close. It never bounds a shared execution directly.
	Ctx context.Context

	core   *Core
	cancel context.CancelFunc
	cs     *opusnet.ConnState
	seq    uint64
	exp    string
	key    string
	cells  int
	start  time.Time
}

// Begin admits one request into the observer and registers its wait
// for cancel frames on cs. expName is the histogram label ("cells" for
// cell subsets); cells is the request's cell count when it has one;
// timeoutMS > 0 is the request's deadline. Begin returns nil (with the
// request already finished) when the connection is gone.
func (c *Core) Begin(expName, key string, cells int, seq uint64, timeoutMS int64, cs *opusnet.ConnState) *Req {
	c.inflightG.Inc()
	r := &Req{
		ID:   fmt.Sprintf("r%d", c.reqSeq.Add(1)),
		core: c, cs: cs, seq: seq,
		exp: expName, key: key, cells: cells, start: time.Now(),
	}
	if timeoutMS > 0 {
		r.Ctx, r.cancel = context.WithTimeout(c.baseCtx, time.Duration(timeoutMS)*time.Millisecond)
	} else {
		r.Ctx, r.cancel = context.WithCancel(c.baseCtx)
	}
	if !cs.Register(seq, r.cancel) {
		r.Finish(fmt.Errorf("%s: connection closed before admission", c.name), true)
		return nil
	}
	return r
}

// Admitted emits the request's submitted/deduped lifecycle event. Call
// it with no lock held, after the join decision is visible in the
// counters — observing the event therefore guarantees a subsequent
// identical request coalesces.
func (r *Req) Admitted(shared bool) {
	typ := "submitted"
	if shared {
		typ = "deduped"
	}
	r.core.tel.Events.Emit(telemetry.Event{Type: typ, Req: r.ID, Exp: r.exp, Key: r.key, Cells: r.cells})
}

// Finish ends the request's wait and observes its wall time into the
// latency histogram (every admitted request lands exactly one sample,
// result or error — railbench counts on that), then emits the terminal
// lifecycle event: "result", or "cancel" when the wait ended by
// deadline, cancel frame, or teardown.
func (r *Req) Finish(err error, cancelled bool) {
	r.cs.Unregister(r.seq)
	r.cancel()
	d := time.Since(r.start)
	r.core.durations.With(r.exp).Observe(d.Seconds())
	r.core.inflightG.Dec()
	typ := "result"
	if cancelled {
		typ = "cancel"
	}
	ev := telemetry.Event{Type: typ, Req: r.ID, Exp: r.exp, Key: r.key, Cells: r.cells, DurationNS: d.Nanoseconds()}
	if err != nil {
		ev.Err = err.Error()
	}
	r.core.tel.Events.Emit(ev)
}

// Job is one singleflight execution request for Core.Serve.
type Job struct {
	// Key coalesces identical in-flight requests onto one execution.
	Key string
	// Label names the request in log lines and wait errors
	// (`experiment "fig8"`).
	Label string
	// Count records the join decision in the caller's counters before
	// the request's admitted event is emitted.
	Count func(shared bool)
	// Execute runs once per execution, detached under the base context;
	// progress fans ticks out to every subscriber.
	Execute func(ctx context.Context, progress func(done, total int)) (any, error)
	// Result shapes the final frame from the execution's payload; Serve
	// stamps its Seq.
	Result func(payload any, shared bool) *opusnet.Message
}

// run is one in-flight execution with its subscribers. waiters counts
// the requests currently awaiting the result; when the last one departs
// before completion, the execution's context is cancelled — the
// request-level mirror of the engine cache's detached singleflight.
// waiters is guarded by Core.mu (not r.mu), so the last-departure
// decision and the run's removal from the runs map are atomic: a later
// identical request can never join a cancelled run.
type run struct {
	done    chan struct{}
	payload any
	err     error
	cancel  context.CancelFunc
	waiters int // guarded by Core.mu

	mu   sync.Mutex
	subs []func(done, total int)
}

func (r *run) subscribe(fn func(done, total int)) {
	r.mu.Lock()
	r.subs = append(r.subs, fn)
	r.mu.Unlock()
}

func (r *run) broadcast(done, total int) {
	r.mu.Lock()
	subs := r.subs
	r.mu.Unlock()
	for _, fn := range subs {
		fn(done, total)
	}
}

// Serve is the join-or-start skeleton: coalesce r onto an identical
// in-flight execution under job.Key or start one (detached, under the
// base context), stream exp_progress ticks, then deliver the result
// without blocking the connection's read loop. Only r's wait is bounded
// by r.Ctx; when the last waiter departs, the execution's context is
// cancelled and the run leaves the table, so a later identical request
// starts fresh instead of inheriting a spurious cancellation error.
func (c *Core) Serve(r *Req, job Job, reply func(*opusnet.Message, bool)) {
	c.mu.Lock()
	gate := c.execGate
	rn, shared := c.runs[job.Key]
	var runCtx context.Context
	if shared {
		rn.waiters++ // under c.mu, like the last-departure decision
	} else {
		var runCancel context.CancelFunc
		runCtx, runCancel = context.WithCancel(c.baseCtx)
		rn = &run{done: make(chan struct{}), cancel: runCancel, waiters: 1}
		c.runs[job.Key] = rn
	}
	c.mu.Unlock()
	job.Count(shared)
	if !shared {
		c.Go(func() {
			if gate != nil {
				<-gate // test-only hold, see execGate
			}
			rn.payload, rn.err = job.Execute(runCtx, rn.broadcast)
			c.mu.Lock()
			// A last departure may already have removed (or a fresh run
			// replaced) this key; only delete our own entry.
			if c.runs[job.Key] == rn {
				delete(c.runs, job.Key)
			}
			c.mu.Unlock()
			rn.cancel()
			close(rn.done)
		})
	}
	if c.logf != nil {
		if shared {
			c.logf("%s: %s: joined in-flight execution", c.name, job.Label)
		} else {
			c.logf("%s: %s: executing", c.name, job.Label)
		}
	}
	r.Admitted(shared)

	seq := r.seq
	rn.subscribe(func(done, total int) {
		reply(&opusnet.Message{Type: opusnet.MsgExpProgress, Seq: seq,
			Progress: &opusnet.GridProgress{Done: done, Total: total}}, false)
	})
	c.Go(func() {
		select {
		case <-rn.done:
			r.Finish(rn.err, false)
			if rn.err != nil {
				ReplyErr(reply, seq, rn.err)
				return
			}
			m := job.Result(rn.payload, shared)
			m.Seq = seq
			reply(m, true)
		case <-r.Ctx.Done():
			// Only this request's wait ends: the shared execution keeps
			// running for its other subscribers (and is cancelled only
			// if this was the last one).
			c.depart(job.Key, rn)
			err := r.Ctx.Err()
			r.Finish(err, true)
			ReplyErr(reply, seq, fmt.Errorf("%s: %s: %w", c.name, job.Label, err))
		}
	})
}

// depart drops one waiter from a run; the last waiter leaving cancels
// the execution (stopping new work from being scheduled — simulations
// already in flight finish into the warm cache) and removes it from the
// runs map in the same critical section. Cancelling a run that already
// completed is a harmless no-op.
func (c *Core) depart(key string, rn *run) {
	c.mu.Lock()
	rn.waiters--
	last := rn.waiters == 0
	if last && c.runs[key] == rn {
		delete(c.runs, key)
	}
	c.mu.Unlock()
	if last {
		rn.cancel()
	}
}
