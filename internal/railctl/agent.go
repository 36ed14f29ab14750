package railctl

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"photonrail/internal/opusnet"
	"photonrail/internal/railserve"
)

// AgentConfig parameterizes StartAgent.
type AgentConfig struct {
	// Coordinator is the fleet coordinator's address (required).
	Coordinator string
	// Dial, when non-nil, replaces the TCP dialer (the fault-injection
	// harness routes named endpoints through here).
	Dial func(addr string) (net.Conn, error)
	// ID is the backend's stable identity (required): it feeds the
	// rendezvous hash, so it must survive restarts for the backend to
	// keep its shard.
	ID string
	// Addr is the serving address the coordinator dials for cells
	// (required) — the backend's listener, not this agent's conn.
	Addr string
	// Capacity is the advertised worker-pool size (minimum 1).
	Capacity int
	// Interval is the heartbeat cadence; 0 means
	// DefaultHeartbeatInterval. It is also the redial backoff's base:
	// consecutive failed redials double the wait from Interval up to
	// MaxBackoff, and a successful registration resets it to Interval.
	Interval time.Duration
	// MaxBackoff caps the redial backoff (0 = 8×Interval). A dead
	// coordinator therefore costs one dial per MaxBackoff at steady
	// state, while a live one is rejoined within Interval of coming
	// back only if the agent just started backing off.
	MaxBackoff time.Duration
	// sleepFn, when non-nil, replaces the backoff sleep — tests record
	// the requested waits instead of actually waiting.
	sleepFn func(d time.Duration)
	// Stats, when non-nil, supplies the serving snapshot each heartbeat
	// piggybacks (the same Stats() that serves stats_resp).
	Stats func() opusnet.CacheStatsPayload
	// Logf, when non-nil, receives connection-lifecycle lines.
	Logf func(format string, args ...any)
}

// Agent keeps one backend registered with a coordinator: it dials,
// registers, heartbeats every Interval, and re-dials + re-registers
// (with the heartbeat interval as backoff) when the connection drops —
// so the fleet may come up, restart, and heal in any order. A
// registration the coordinator refuses (a static member's id, or a
// coordinator that takes no registrations) is final: the agent logs
// the refusal and stops, and the daemon serves outside the fleet.
// Drain ends the membership gracefully; Close just stops the agent.
type Agent struct {
	cfg    AgentConfig
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	client   *railserve.Client
	draining bool
	refused  bool // the coordinator refused the registration
}

// errRefused marks a registration the coordinator answered with a
// refusal — as opposed to a dial or connection failure, which is
// retried.
var errRefused = errors.New("registration refused")

// StartAgent validates the config and starts the registration loop.
// The first registration happens asynchronously (the coordinator may
// not be up yet); observe membership on the coordinator's side.
func StartAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("railctl: agent without a coordinator address")
	}
	if cfg.ID == "" {
		return nil, fmt.Errorf("railctl: agent without an identity")
	}
	if cfg.Addr == "" {
		return nil, fmt.Errorf("railctl: agent without a serving address")
	}
	if cfg.Capacity < 1 {
		cfg.Capacity = 1
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultHeartbeatInterval
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 8 * cfg.Interval
	}
	if cfg.MaxBackoff < cfg.Interval {
		cfg.MaxBackoff = cfg.Interval
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	//lint:allow ctxbg the agent's lifetime root: Close cancels it
	ctx, cancel := context.WithCancel(context.Background())
	a := &Agent{cfg: cfg, ctx: ctx, cancel: cancel}
	a.wg.Add(1)
	go a.loop()
	return a, nil
}

// loop is dial → register → heartbeat until the connection drops, then
// back to dialing — unless a drain ended the membership, in which case
// reconnecting would re-register and resurrect it. Consecutive failed
// redials back off exponentially from Interval to MaxBackoff; any
// successful registration resets the backoff to Interval, so a healed
// coordinator is heartbeated at full cadence immediately and a later
// outage starts the backoff over from the base.
func (a *Agent) loop() {
	defer a.wg.Done()
	backoff := a.cfg.Interval
	for a.ctx.Err() == nil {
		a.mu.Lock()
		draining := a.draining
		a.mu.Unlock()
		if draining {
			return
		}
		c, err := a.connect()
		if errors.Is(err, errRefused) {
			a.cfg.Logf("railctl: agent %s: coordinator %s: %v (not retrying; serving outside the fleet)", a.cfg.ID, a.cfg.Coordinator, err)
			a.mu.Lock()
			a.refused = true
			a.mu.Unlock()
			return
		}
		if err != nil {
			a.cfg.Logf("railctl: agent %s: coordinator %s unreachable: %v (retrying in %v)", a.cfg.ID, a.cfg.Coordinator, err, backoff)
			a.sleep(backoff)
			backoff *= 2
			if backoff > a.cfg.MaxBackoff {
				backoff = a.cfg.MaxBackoff
			}
			continue
		}
		backoff = a.cfg.Interval
		a.mu.Lock()
		a.client = c
		a.mu.Unlock()
		a.heartbeats(c)
		a.mu.Lock()
		if a.client == c {
			a.client = nil
		}
		a.mu.Unlock()
		_ = c.Close()
	}
}

// connect dials the coordinator and registers. A reply refusing the
// registration wraps errRefused; dial and connection failures do not.
func (a *Agent) connect() (*railserve.Client, error) {
	conn, err := a.cfg.Dial(a.cfg.Coordinator)
	if err != nil {
		return nil, err
	}
	c := railserve.NewClient(conn)
	err = c.FleetRegister(a.ctx, opusnet.FleetRegisterPayload{
		ID: a.cfg.ID, Addr: a.cfg.Addr, Capacity: a.cfg.Capacity,
	})
	if err != nil {
		_ = c.Close()
		if !errors.Is(err, railserve.ErrConnDown) && a.ctx.Err() == nil {
			err = fmt.Errorf("%w: %v", errRefused, err)
		}
		return nil, err
	}
	a.cfg.Logf("railctl: agent %s: registered with %s (capacity %d)", a.cfg.ID, a.cfg.Coordinator, a.cfg.Capacity)
	return c, nil
}

// heartbeats sends one heartbeat every Interval until the connection
// drops, the coordinator refuses one (forgot us: reconnect and
// re-register), or the agent stops.
func (a *Agent) heartbeats(c *railserve.Client) {
	ticker := time.NewTicker(a.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-a.ctx.Done():
			return
		case <-ticker.C:
		}
		hb := opusnet.HeartbeatPayload{ID: a.cfg.ID, Capacity: a.cfg.Capacity}
		if a.cfg.Stats != nil {
			st := a.cfg.Stats()
			hb.Stats = &st
		}
		if err := c.FleetHeartbeat(a.ctx, hb); err != nil {
			if a.ctx.Err() == nil {
				a.cfg.Logf("railctl: agent %s: heartbeat failed: %v (reconnecting)", a.cfg.ID, err)
			}
			return
		}
	}
}

// sleep waits d or until the agent stops.
func (a *Agent) sleep(d time.Duration) {
	if a.cfg.sleepFn != nil {
		a.cfg.sleepFn(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-a.ctx.Done():
	case <-t.C:
	}
}

// Drain announces the graceful departure and blocks for the
// coordinator's acknowledgement — after which the coordinator assigns
// this backend no new work and its silence counts as a completed
// departure, not a death. The agent stops re-registering; the caller
// then waits out its in-flight work and calls Close. After a refused
// registration Drain has nothing to announce and returns nil.
func (a *Agent) Drain(ctx context.Context, reason string) error {
	a.mu.Lock()
	a.draining = true
	c, refused := a.client, a.refused
	a.mu.Unlock()
	if refused {
		return nil // never a member: there is no membership to end
	}
	if c != nil {
		if err := c.FleetDrain(ctx, opusnet.DrainPayload{ID: a.cfg.ID, Reason: reason}); err == nil {
			return nil
		} else if ctx.Err() != nil {
			return err
		}
		// The registration conn died mid-drain; retry on a fresh one.
	}
	conn, err := a.cfg.Dial(a.cfg.Coordinator)
	if err != nil {
		return fmt.Errorf("railctl: drain %s: %w", a.cfg.ID, err)
	}
	fresh := railserve.NewClient(conn)
	defer func() { _ = fresh.Close() }()
	return fresh.FleetDrain(ctx, opusnet.DrainPayload{ID: a.cfg.ID, Reason: reason})
}

// Close stops the heartbeat loop and drops the registration
// connection. It does not drain: a closed-but-undrained member times
// out into death on the coordinator.
func (a *Agent) Close() {
	a.cancel()
	a.mu.Lock()
	c := a.client
	a.client = nil
	a.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
	a.wg.Wait()
}
