package railfleet

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"photonrail/internal/railctl"
	"photonrail/internal/railserve"
)

// backend is the data-plane record of one fleet member, static or
// registered alike: where to dial it, its connection, and the cells
// and failures the coordinator credits it. Membership state (healthy,
// draining, dead) and retained stats live in the railctl registry.
type backend struct {
	id   string
	dial func(addr string) (net.Conn, error)

	mu sync.Mutex
	// addr is the serving address; a registered member that
	// re-registers from a new listener moves it.
	addr     string
	client   *railserve.Client
	closed   bool // coordinator shut down: no more dials
	cells    uint64
	failures uint64
}

// address returns the current serving address.
func (b *backend) address() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.addr
}

// setAddr points the member at a new serving address, dropping the
// stale connection.
func (b *backend) setAddr(addr string) {
	b.mu.Lock()
	if b.addr == addr {
		b.mu.Unlock()
		return
	}
	b.addr = addr
	c := b.client
	b.client = nil
	b.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// conn returns the live client without dialing (nil when disconnected).
func (b *backend) conn() *railserve.Client {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.client
}

// get returns the backend's client, dialing if none is connected.
// After the coordinator closes, get refuses instead of re-dialing — an
// abandoned execution's failover wave must not leak a fresh connection
// (and its reader goroutine) past Close.
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
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.closed:
		_ = conn.Close() // Close raced the dial; do not leak the conn
		return nil, fmt.Errorf("railfleet: coordinator closed")
	case b.client != nil:
		_ = conn.Close() // lost a dial race; use the winner
	case b.addr != addr:
		_ = conn.Close() // the member re-registered elsewhere mid-dial
		return nil, fmt.Errorf("railfleet: backend %s moved to %s mid-dial", addr, b.addr)
	default:
		b.client = railserve.NewClient(conn)
	}
	return b.client, nil
}

// drop closes c if it is still the backend's connection (closing it
// joins the client's reader, so no goroutine outlives the failure).
// Requests pipelined on the same connection fail over on their own —
// their waits end with ErrConnDown.
func (b *backend) drop(c *railserve.Client) {
	b.mu.Lock()
	if b.client == c {
		b.client = nil
	}
	b.mu.Unlock()
	_ = c.Close()
}

// fail records a mid-request backend failure and drops its connection.
func (b *backend) fail(c *railserve.Client) {
	b.mu.Lock()
	b.failures++
	b.mu.Unlock()
	b.drop(c)
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

// close drops the backend's connection (joining its reader) and
// refuses future dials.
func (b *backend) close() {
	b.mu.Lock()
	b.closed = true
	c := b.client
	b.client = nil
	b.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// backendFor returns (creating on first use) the data-plane record of
// a member, repointing it if the member re-registered from a new
// address.
func (f *Coordinator) backendFor(id, addr string) *backend {
	f.mu.Lock()
	b, ok := f.backends[id]
	if !ok {
		b = &backend{id: id, addr: addr, dial: f.dial, closed: f.closed}
		f.backends[id] = b
	}
	f.mu.Unlock()
	b.setAddr(addr)
	return b
}

// probe dials the dead static members concurrently — one dead host
// must not stall the others behind its dial timeout — and marks the
// reachable ones alive. Requests never pay for it: it runs on the
// ReprobeInterval loop, and as a rescue when a wave finds nothing
// assignable, so a fully-restarted static fleet still serves. Members
// in excluded (failed during the asking request) are skipped.
func (f *Coordinator) probe(excluded map[string]bool) {
	var wg sync.WaitGroup
	for _, m := range f.registry.DeadStatics() {
		if excluded[m.ID] {
			continue
		}
		b := f.backendFor(m.ID, m.Addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.get(); err == nil {
				f.registry.MarkAlive(b.id, nil)
			}
		}()
	}
	wg.Wait()
}

// live returns the registry's assignable members minus excluded (the
// members that failed during the asking request), sorted by ID. When
// none is left, the dead statics get one rescue probe first, so a
// fully-restarted static fleet still serves rather than failing.
func (f *Coordinator) live(excluded map[string]bool) []railctl.Member {
	assignable := func() []railctl.Member {
		ms := f.registry.Assignable()
		out := ms[:0]
		for _, m := range ms {
			if !excluded[m.ID] {
				out = append(out, m)
			}
		}
		return out
	}
	if out := assignable(); len(out) > 0 {
		return out
	}
	f.probe(excluded)
	return assignable()
}

// waveTargets assembles one wave's targets, weighted by capacity (a
// static member weighs 1). No member is dialed here: connections open
// lazily when a batch lands, and a failed contact marks a static
// member dead so later waves and requests skip it.
func (f *Coordinator) waveTargets(excluded map[string]bool) ([]Target, map[string]*backend) {
	members := f.live(excluded)
	targets := make([]Target, len(members))
	byID := make(map[string]*backend, len(members))
	for i, m := range members {
		targets[i] = Target{ID: m.ID, Weight: m.Capacity}
		byID[m.ID] = f.backendFor(m.ID, m.Addr)
	}
	return targets, byID
}

// DefaultReprobeInterval is the cadence at which the coordinator
// re-probes dead static backends in the background when Config leaves
// it zero: fast enough that a restarted daemon rejoins within a couple
// of seconds, slow enough that a down host costs one dial attempt per
// tick instead of one per request.
const DefaultReprobeInterval = 2 * time.Second

// reprobeLoop probes the dead static members every interval — the
// request path skips them, so this loop (besides the empty-fleet
// rescue) is what brings a restarted static daemon back.
func (f *Coordinator) reprobeLoop(ctx context.Context, interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			f.probe(nil)
		}
	}
}
