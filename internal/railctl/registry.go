// Package railctl is the fleet control plane: the one membership table
// a coordinator embeds and the agent a raild daemon runs to join it.
//
// The shape follows the related control planes: like zos nodes, a
// backend dials in and registers identity + capacity, then keeps
// itself alive with heartbeats that piggyback its serving stats; like
// doublezero's controller, the coordinator owns membership state and
// the data plane (cell sharding) reads it.
//
// The table holds two kinds of member under one state machine.
// Registered members are heartbeat-kept: one whose heartbeats stop
// past the TTL is marked dead without any per-request dial probing,
// and departure is graceful — a drain marks the member unassignable
// without counting as a failure. Static members (a coordinator's
// -backends list, added with AddStatic) are probe-kept: they never
// expire by TTL, the wire frames cannot claim or drain their ids, and
// their liveness moves only on the coordinator's contact edges
// (MarkDead on a failed dial, batch or stats query; MarkAlive on a
// successful one). Every transition of either kind emits through
// Config.OnEvent.
package railctl

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"photonrail/internal/opusnet"
)

// State is one member's membership state.
type State string

const (
	// StateHealthy members receive cell assignments.
	StateHealthy State = "healthy"
	// StateDraining members finish in-flight batches but receive no new
	// assignments; set by a drain frame, sticky until re-registration.
	StateDraining State = "draining"
	// StateDrained members completed a graceful departure (their
	// heartbeats stopped while draining). Terminal until rejoin.
	StateDrained State = "drained"
	// StateDead members missed heartbeats without draining first.
	StateDead State = "dead"
)

// DefaultHeartbeatTTL marks a member dead when its newest heartbeat is
// older than this; three DefaultHeartbeatInterval periods, so one lost
// frame does not flap membership.
const DefaultHeartbeatTTL = 3 * DefaultHeartbeatInterval

// DefaultHeartbeatInterval is the agent-side heartbeat cadence.
const DefaultHeartbeatInterval = 2 * time.Second

// Event is one membership lifecycle transition: "join" (registration,
// including a rejoin after death), "drain" (graceful-departure mark),
// "leave" (heartbeats stopped — Reason distinguishes a completed drain
// from a death).
type Event struct {
	Type     string
	ID       string
	Addr     string
	Capacity int
	Reason   string
}

// Config parameterizes NewRegistry.
type Config struct {
	// TTL is the heartbeat staleness bound; 0 means DefaultHeartbeatTTL.
	TTL time.Duration
	// Now replaces the clock for tests; nil means time.Now.
	Now func() time.Time
	// OnEvent, when non-nil, receives lifecycle events. Called without
	// the registry lock held and must not block.
	OnEvent func(Event)
}

// member is the registry's record of one backend.
type member struct {
	id            string
	addr          string
	capacity      int
	static        bool
	state         State
	lastHeartbeat time.Time
	stats         opusnet.CacheStatsPayload
	hasStats      bool
}

// Member is one member's state snapshot as Members reports it.
type Member struct {
	ID       string
	Addr     string
	Capacity int
	State    State
	// Static marks a probe-kept member added with AddStatic; its
	// LastHeartbeat stays zero.
	Static        bool
	LastHeartbeat time.Time
	// Stats is the newest serving snapshot — heartbeat-carried, or
	// recorded by MarkAlive for a static member; HasStats distinguishes
	// "reported zeros" from "never reported".
	Stats    opusnet.CacheStatsPayload
	HasStats bool
}

// ErrUnknownMember reports an operation on an identity the registry
// has never seen (or forgot): the sender must re-register.
var ErrUnknownMember = fmt.Errorf("railctl: unknown member")

// staticErr refuses a wire frame aimed at a static member's id: a
// registrant must not take a -backends entry's place (and its shard).
func staticErr(m *member) error {
	return fmt.Errorf("railctl: id %q is held by static backend %s", m.id, m.addr)
}

// Registry is the coordinator-side membership table. All methods are
// safe for concurrent use; state transitions driven by the clock
// (death, drain completion) are applied lazily on every read, so a
// snapshot is always consistent with the injected Now.
type Registry struct {
	ttl     time.Duration
	now     func() time.Time
	onEvent func(Event)

	mu      sync.Mutex
	members map[string]*member
}

// NewRegistry builds an empty registry.
func NewRegistry(cfg Config) *Registry {
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultHeartbeatTTL
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Registry{
		ttl:     cfg.TTL,
		now:     cfg.Now,
		onEvent: cfg.OnEvent,
		members: make(map[string]*member),
	}
}

// emit delivers events collected under the lock; call unlocked.
func (r *Registry) emit(events []Event) {
	if r.onEvent == nil {
		return
	}
	for _, ev := range events {
		r.onEvent(ev)
	}
}

// sweepLocked applies clock-driven transitions: a healthy or draining
// registered member whose newest heartbeat is older than the TTL
// leaves — dead if it was healthy, drained if it was already draining
// (its graceful departure simply completed). Static members do not
// heartbeat and are exempt. Returns the leave events to emit.
func (r *Registry) sweepLocked() []Event {
	cutoff := r.now().Add(-r.ttl)
	var stale []*member
	for _, m := range r.members {
		if !m.static && m.lastHeartbeat.Before(cutoff) && (m.state == StateHealthy || m.state == StateDraining) {
			stale = append(stale, m)
		}
	}
	// One sweep can expire several members; sort so their leave events
	// emit in a deterministic order.
	sort.Slice(stale, func(i, j int) bool { return stale[i].id < stale[j].id })
	var events []Event
	for _, m := range stale {
		switch m.state {
		case StateHealthy:
			m.state = StateDead
			events = append(events, Event{Type: "leave", ID: m.id, Addr: m.addr, Capacity: m.capacity, Reason: "heartbeat timeout"})
		case StateDraining:
			m.state = StateDrained
			events = append(events, Event{Type: "leave", ID: m.id, Addr: m.addr, Capacity: m.capacity, Reason: "drained"})
		}
	}
	return events
}

// Register upserts a member as healthy. A known identity re-registers
// in place — a restarted daemon rejoins under its old identity and
// keeps its rendezvous shard, whatever address its new listener got.
// Capacity below 1 clamps to 1. An id held by a static member is
// refused.
func (r *Registry) Register(id, addr string, capacity int) error {
	if id == "" {
		return fmt.Errorf("railctl: register without an id")
	}
	if addr == "" {
		return fmt.Errorf("railctl: register %q without an address", id)
	}
	if capacity < 1 {
		capacity = 1
	}
	r.mu.Lock()
	events := r.sweepLocked()
	m, ok := r.members[id]
	if ok && m.static {
		r.mu.Unlock()
		r.emit(events)
		return staticErr(m)
	}
	if !ok {
		m = &member{id: id}
		r.members[id] = m
	}
	m.addr = addr
	m.capacity = capacity
	m.state = StateHealthy
	m.lastHeartbeat = r.now()
	r.mu.Unlock()
	events = append(events, Event{Type: "join", ID: id, Addr: addr, Capacity: capacity})
	r.emit(events)
	return nil
}

// Heartbeat refreshes a member's liveness, capacity, and stats. An
// unknown identity errors (ErrUnknownMember) so the sender
// re-registers — the registry never resurrects state it does not have.
// A heartbeat revives a dead member (the agent outlived a too-tight
// TTL), emitting a rejoin; a draining member stays draining — drain is
// sticky until re-registration.
func (r *Registry) Heartbeat(id string, capacity int, stats *opusnet.CacheStatsPayload) error {
	r.mu.Lock()
	events := r.sweepLocked()
	m, err := r.wireLocked(id)
	if err != nil {
		r.mu.Unlock()
		r.emit(events)
		return err
	}
	if capacity >= 1 {
		m.capacity = capacity
	}
	m.lastHeartbeat = r.now()
	if stats != nil {
		m.stats = *stats
		m.hasStats = true
	}
	switch m.state {
	case StateDead:
		m.state = StateHealthy
		events = append(events, Event{Type: "join", ID: m.id, Addr: m.addr, Capacity: m.capacity, Reason: "heartbeat revival"})
	case StateDrained:
		m.state = StateDraining // still around, still departing
	}
	r.mu.Unlock()
	r.emit(events)
	return nil
}

// Drain marks a member draining: it keeps its in-flight work but
// receives no new assignments, and its eventual silence counts as a
// completed departure, not a death. Unknown identities error
// (ErrUnknownMember) — already not a member, so callers may treat that
// as success. A static member's id is refused: only its own probe
// outcome moves it.
func (r *Registry) Drain(id, reason string) error {
	r.mu.Lock()
	events := r.sweepLocked()
	m, err := r.wireLocked(id)
	if err != nil {
		r.mu.Unlock()
		r.emit(events)
		return err
	}
	if m.state == StateHealthy || m.state == StateDead {
		m.state = StateDraining
		m.lastHeartbeat = r.now() // a drain is proof of life
		events = append(events, Event{Type: "drain", ID: m.id, Addr: m.addr, Capacity: m.capacity, Reason: reason})
	}
	r.mu.Unlock()
	r.emit(events)
	return nil
}

// wireLocked resolves the target of a heartbeat or drain frame: a
// registered member, never a static one.
func (r *Registry) wireLocked(id string) (*member, error) {
	m, ok := r.members[id]
	switch {
	case !ok:
		return nil, fmt.Errorf("%w %q", ErrUnknownMember, id)
	case m.static:
		return nil, staticErr(m)
	}
	return m, nil
}

// AddStatic adds (or replaces) a probe-kept static member: healthy,
// capacity 1, exempt from the TTL sweep. It emits the member's join.
func (r *Registry) AddStatic(id, addr string) {
	r.mu.Lock()
	r.members[id] = &member{id: id, addr: addr, capacity: 1, static: true, state: StateHealthy}
	r.mu.Unlock()
	r.emit([]Event{{Type: "join", ID: id, Addr: addr, Capacity: 1}})
}

// MarkDead records a failed coordinator contact (dial, batch or stats
// query) with a static member: a healthy one turns dead and leaves with
// the given reason. Registered members ignore it — their liveness is
// their heartbeats'.
func (r *Registry) MarkDead(id, reason string) {
	r.mu.Lock()
	var events []Event
	if m, ok := r.members[id]; ok && m.static && m.state == StateHealthy {
		m.state = StateDead
		events = append(events, Event{Type: "leave", ID: id, Addr: m.addr, Capacity: m.capacity, Reason: reason})
	}
	r.mu.Unlock()
	r.emit(events)
}

// MarkAlive records a successful coordinator contact with a static
// member: a dead one rejoins, and stats, when non-nil, become its
// retained serving snapshot. Registered members ignore it.
func (r *Registry) MarkAlive(id string, stats *opusnet.CacheStatsPayload) {
	r.mu.Lock()
	var events []Event
	if m, ok := r.members[id]; ok && m.static {
		if stats != nil {
			m.stats = *stats
			m.hasStats = true
		}
		if m.state == StateDead {
			m.state = StateHealthy
			events = append(events, Event{Type: "join", ID: id, Addr: m.addr, Capacity: m.capacity, Reason: "probe revival"})
		}
	}
	r.mu.Unlock()
	r.emit(events)
}

// Draining reports whether the member is departing (draining or
// drained) — the coordinator's batch loop checks this between batches
// to hand off a drainer's unsubmitted cells.
func (r *Registry) Draining(id string) bool {
	r.mu.Lock()
	m, ok := r.members[id]
	st := StateDead
	if ok {
		st = m.state
	}
	r.mu.Unlock()
	return ok && (st == StateDraining || st == StateDrained)
}

// Members returns every known member, sorted by ID, after applying
// clock-driven transitions.
func (r *Registry) Members() []Member {
	return r.filter(func(*member) bool { return true })
}

// Assignable returns the members eligible for new work — healthy (and,
// for registered members, with a fresh heartbeat) — sorted by ID.
func (r *Registry) Assignable() []Member {
	return r.filter(func(m *member) bool { return m.state == StateHealthy })
}

// DeadStatics returns the static members marked dead, sorted by ID:
// the ones only a coordinator-side probe can bring back.
func (r *Registry) DeadStatics() []Member {
	return r.filter(func(m *member) bool { return m.static && m.state == StateDead })
}

// filter snapshots the members keep accepts, after applying
// clock-driven transitions, sorted by ID.
func (r *Registry) filter(keep func(*member) bool) []Member {
	r.mu.Lock()
	events := r.sweepLocked()
	out := make([]Member, 0, len(r.members))
	for _, m := range r.members { //lint:allow maporder sorted below
		if keep(m) {
			out = append(out, Member{
				ID: m.id, Addr: m.addr, Capacity: m.capacity, State: m.state, Static: m.static,
				LastHeartbeat: m.lastHeartbeat, Stats: m.stats, HasStats: m.hasStats,
			})
		}
	}
	r.mu.Unlock()
	r.emit(events)
	slices.SortFunc(out, func(a, b Member) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// Len reports how many members the registry knows (any state).
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.members)
}
