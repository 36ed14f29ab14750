package railfleet

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"photonrail/internal/opusnet"
	"photonrail/internal/railctl"
	"photonrail/internal/railserve"
	"photonrail/internal/telemetry"
)

// backend is one raild daemon the coordinator shards cells onto —
// either a static -backends entry (liveness by dial probe) or a
// self-registered dynamic member (liveness owned by the railctl
// registry's heartbeat state; this struct only carries its connection
// and per-backend counters).
type backend struct {
	index  int    // fleet position for statics; -1 for dynamic members
	id     string // stable identity: StaticID(index), or the registered id
	static bool
	dial   func(addr string) (net.Conn, error)

	mu sync.Mutex
	// addr is the serving address; immutable for statics, updated for a
	// dynamic member that re-registered from a new listener.
	addr     string
	client   *railserve.Client
	closed   bool // coordinator shut down: no more dials
	healthy  bool
	joined   bool // static announced live at least once (join/leave events)
	dead     bool // static known unreachable: skip per-request probes
	cells    uint64
	failures uint64
	// lastStats retains the backend's most recent successful stats_resp
	// so an unreachable backend keeps contributing its last-known-good
	// counters to fleet aggregates (Coordinator.Stats) instead of its
	// contribution silently vanishing.
	lastStats opusnet.CacheStatsPayload
}

// address returns the current serving address (dynamic members may
// re-register from a new listener).
func (b *backend) address() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.addr
}

// setAddr points a dynamic member at a new serving address, dropping
// the stale connection.
func (b *backend) setAddr(addr string) {
	b.mu.Lock()
	if b.addr == addr {
		b.mu.Unlock()
		return
	}
	b.addr = addr
	c := b.client
	b.client = nil
	b.healthy = false
	b.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// retainStats records a successful stats query's payload.
func (b *backend) retainStats(st opusnet.CacheStatsPayload) {
	b.mu.Lock()
	b.lastStats = st
	b.mu.Unlock()
}

// retainedStats returns the last successfully retained stats payload
// (zero counters for a backend never successfully queried).
func (b *backend) retainedStats() opusnet.CacheStatsPayload {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastStats
}

// setUnhealthy records a failed stats query without counting it as a
// request failure (failures tracks mid-request failovers).
func (b *backend) setUnhealthy() {
	b.mu.Lock()
	b.healthy = false
	b.mu.Unlock()
}

// connected reports whether a live client exists and whether the
// backend is marked dead, without dialing.
func (b *backend) connected() (connected, dead bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.client != nil, b.dead
}

// isDead reports the static probe-skip flag.
func (b *backend) isDead() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dead
}

// markDead flags a static backend unreachable so later requests skip
// its dial probe (the reprobe loop owns its revival); it reports
// whether a leave event is due — the backend had been announced live.
func (b *backend) markDead() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.static || b.closed {
		return false
	}
	due := b.joined && !b.dead
	b.dead = true
	b.healthy = false
	return due
}

// revive clears the probe-skip flag after a successful dial; it
// reports whether a join event is due — the first connect, or a
// recovery from dead.
func (b *backend) revive() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.static {
		return false // the registry owns dynamic lifecycle events
	}
	due := !b.joined || b.dead
	b.joined = true
	b.dead = false
	return due
}

// get returns the backend's client, dialing if none is connected. A
// failed dial marks the backend unhealthy. After the coordinator
// closes, get refuses instead of re-dialing — an abandoned execution's
// failover wave must not leak a fresh connection (and its reader
// goroutine) past Close.
func (b *backend) get() (*railserve.Client, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, fmt.Errorf("railfleet: coordinator closed")
	}
	if b.client != nil {
		c := b.client
		b.mu.Unlock()
		return c, nil
	}
	dial, addr := b.dial, b.addr
	b.mu.Unlock()
	conn, err := dial(addr) // outside the lock: dials may block
	b.mu.Lock()
	defer b.mu.Unlock()
	if err != nil {
		b.healthy = false
		return nil, err
	}
	if b.closed {
		_ = conn.Close() // Close raced the dial; do not leak the conn
		return nil, fmt.Errorf("railfleet: coordinator closed")
	}
	if b.client != nil {
		_ = conn.Close() // lost a dial race; use the winner
	} else if b.addr != addr {
		_ = conn.Close() // the member re-registered elsewhere mid-dial
		return nil, fmt.Errorf("railfleet: backend %s moved to %s mid-dial", addr, b.addr)
	} else {
		b.client = railserve.NewClient(conn)
		b.healthy = true
	}
	return b.client, nil
}

// fail records a mid-request backend failure and drops its connection
// (closing it joins the client's reader, so no goroutine outlives the
// failover). Requests pipelined on the same connection fail over on
// their own — their waits end with ErrConnDown.
func (b *backend) fail(c *railserve.Client) {
	b.mu.Lock()
	if c != nil && b.client == c {
		b.client = nil
	}
	b.healthy = false
	b.failures++
	b.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// note credits executed cells to the backend.
func (b *backend) note(cells int) {
	b.mu.Lock()
	b.cells += uint64(cells)
	b.mu.Unlock()
}

// counts reports the per-backend execution counters.
func (b *backend) counts() (cells, failures uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cells, b.failures
}

// snapshot reports a static backend's health view and its live client
// (nil when disconnected).
func (b *backend) snapshot() (opusnet.BackendStatsPayload, *railserve.Client) {
	b.mu.Lock()
	defer b.mu.Unlock()
	state := ""
	switch {
	case b.dead:
		state = string(railctl.StateDead)
	case b.healthy:
		state = string(railctl.StateHealthy)
	}
	return opusnet.BackendStatsPayload{
		Addr: b.addr, ID: b.id, Static: b.static, Capacity: 1, State: state,
		Healthy: b.healthy, Cells: b.cells, Failures: b.failures,
	}, b.client
}

// close drops the backend's connection (joining its reader), marks the
// backend unhealthy, and refuses future dials.
func (b *backend) close() {
	b.mu.Lock()
	b.closed = true
	b.healthy = false
	c := b.client
	b.client = nil
	b.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// noteStaticUp emits the join event for a static backend that just
// probed alive (first connect or a recovery from dead).
func (f *Coordinator) noteStaticUp(b *backend) {
	if b.revive() {
		f.Telemetry().Events.Emit(telemetry.Event{Type: "join", Member: b.id, Backend: b.address(), Capacity: 1})
	}
}

// noteStaticDown marks a static backend dead — later requests skip its
// dial probe until the reprobe loop (or an empty-fleet rescue probe)
// revives it — and emits the leave event if it had been announced live.
func (f *Coordinator) noteStaticDown(b *backend, reason string) {
	if b.markDead() {
		f.Telemetry().Events.Emit(telemetry.Event{Type: "leave", Member: b.id, Backend: b.address(), Reason: reason})
	}
}

// dynamicBackend returns (creating on first use) the connection record
// for a registered member, repointing it if the member re-registered
// from a new address. Membership state itself lives in the registry;
// this record only carries the data-plane connection and counters.
func (f *Coordinator) dynamicBackend(id, addr string) *backend {
	f.mu.Lock()
	b, ok := f.dynamic[id]
	if !ok {
		b = &backend{index: -1, id: id, addr: addr, dial: f.dial}
		if f.closed {
			b.closed = true
		}
		f.dynamic[id] = b
	}
	f.mu.Unlock()
	b.setAddr(addr)
	return b
}

// lookupDynamic returns the member's connection record, if any exists.
func (f *Coordinator) lookupDynamic(id string) *backend {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dynamic[id]
}

// probeStatics dials the given disconnected statics concurrently — one
// dead host must not stall the others behind its dial timeout — adding
// the reachable ones to byID and marking the rest dead.
func (f *Coordinator) probeStatics(probe []*backend, mu *sync.Mutex, byID map[string]*backend) {
	var wg sync.WaitGroup
	for _, b := range probe {
		b := b
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.get(); err == nil {
				f.noteStaticUp(b)
				mu.Lock()
				byID[b.id] = b
				mu.Unlock()
			} else {
				if f.logf != nil {
					f.logf("railfleet: backend %s unreachable: %v", b.address(), err)
				}
				f.noteStaticDown(b, "unreachable")
			}
		}()
	}
	wg.Wait()
}

// waveTargets assembles one wave's assignable backends: connected
// statics join immediately, disconnected non-dead statics get one
// concurrent probe, and known-dead statics are skipped — the reprobe
// loop owns their revival, so a request never pays a dial timeout for
// a backend that already failed one (the old per-request re-probe).
// Dynamic members come from the registry's heartbeat state with their
// advertised capacity as rendezvous weight — no dialing at all; their
// connections open lazily when a batch lands. If nothing is assignable
// the dead statics get a rescue probe, so a fully-restarted static
// fleet still serves rather than failing the request.
func (f *Coordinator) waveTargets(excluded map[string]bool) ([]Target, map[string]*backend) {
	var mu sync.Mutex
	byID := make(map[string]*backend, len(f.static))
	weights := make(map[string]int, len(f.static))
	var probe []*backend
	for _, b := range f.static {
		if excluded[b.id] {
			continue
		}
		weights[b.id] = 1
		connected, dead := b.connected()
		switch {
		case connected:
			byID[b.id] = b
		case dead:
			// skip: the reprobe loop owns revival
		default:
			probe = append(probe, b)
		}
	}
	f.probeStatics(probe, &mu, byID)
	if f.registry != nil {
		for _, m := range f.registry.Assignable() {
			if excluded[m.ID] {
				continue
			}
			byID[m.ID] = f.dynamicBackend(m.ID, m.Addr)
			weights[m.ID] = m.Capacity
		}
	}
	if len(byID) == 0 {
		var rescue []*backend
		for _, b := range f.static {
			if !excluded[b.id] && b.isDead() {
				rescue = append(rescue, b)
			}
		}
		f.probeStatics(rescue, &mu, byID)
	}
	targets := make([]Target, 0, len(byID))
	for id := range byID { //lint:allow maporder sorted below
		targets = append(targets, Target{ID: id, Weight: weights[id]})
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ID < targets[j].ID })
	return targets, byID
}

// DefaultReprobeInterval is the cadence at which the coordinator
// re-probes dead static backends in the background when Config leaves
// it zero: fast enough that a restarted daemon rejoins within a couple
// of seconds, slow enough that a down host costs one dial attempt per
// tick instead of one per request.
const DefaultReprobeInterval = 2 * time.Second

// reprobeLoop revives dead static backends in the background — the
// request path skips them entirely, so this loop is the only thing
// (besides the empty-fleet rescue probe) that brings a restarted
// static daemon back into the rotation.
func (f *Coordinator) reprobeLoop(ctx context.Context, interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		var wg sync.WaitGroup
		for _, b := range f.static {
			if !b.isDead() {
				continue
			}
			b := b
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := b.get(); err == nil {
					f.noteStaticUp(b)
				}
			}()
		}
		wg.Wait()
	}
}
