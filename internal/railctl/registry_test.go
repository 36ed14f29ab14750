package railctl

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"photonrail/internal/opusnet"
)

// clock is a manually advanced test clock.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *clock { return &clock{t: time.Unix(1000, 0)} }

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// recorder collects lifecycle events.
type recorder struct {
	mu     sync.Mutex
	events []Event
}

func (r *recorder) on(ev Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

func (r *recorder) types() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.events))
	for i, ev := range r.events {
		out[i] = ev.Type + ":" + ev.ID
	}
	return out
}

func newTestRegistry(t *testing.T) (*Registry, *clock, *recorder) {
	t.Helper()
	ck := newClock()
	rec := &recorder{}
	return NewRegistry(Config{TTL: 10 * time.Second, Now: ck.now, OnEvent: rec.on}), ck, rec
}

func memberByID(t *testing.T, r *Registry, id string) Member {
	t.Helper()
	for _, m := range r.Members() {
		if m.ID == id {
			return m
		}
	}
	t.Fatalf("member %q not found", id)
	return Member{}
}

func TestRegistryRegisterHeartbeatLifecycle(t *testing.T) {
	r, ck, rec := newTestRegistry(t)
	if err := r.Register("a", "addr-a", 4); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("b", "addr-b", 0); err != nil { // capacity clamps to 1
		t.Fatal(err)
	}
	if got := len(r.Assignable()); got != 2 {
		t.Fatalf("assignable = %d, want 2", got)
	}
	if m := memberByID(t, r, "b"); m.Capacity != 1 {
		t.Errorf("capacity = %d, want clamped 1", m.Capacity)
	}

	// Heartbeats keep a alive across the TTL; b starves and dies.
	for i := 0; i < 3; i++ {
		ck.advance(6 * time.Second)
		st := opusnet.CacheStatsPayload{CellsExecuted: uint64(i + 1)}
		if err := r.Heartbeat("a", 8, &st); err != nil {
			t.Fatal(err)
		}
	}
	a := memberByID(t, r, "a")
	if a.State != StateHealthy || a.Capacity != 8 || !a.HasStats || a.Stats.CellsExecuted != 3 {
		t.Errorf("a = %+v, want healthy capacity-8 with stats", a)
	}
	if b := memberByID(t, r, "b"); b.State != StateDead {
		t.Errorf("b state = %s, want dead", b.State)
	}
	if got := len(r.Assignable()); got != 1 {
		t.Fatalf("assignable after death = %d, want 1", got)
	}

	// A dead member's heartbeat revives it; a re-registration also works.
	if err := r.Heartbeat("b", 2, nil); err != nil {
		t.Fatal(err)
	}
	if b := memberByID(t, r, "b"); b.State != StateHealthy || b.Capacity != 2 {
		t.Errorf("revived b = %+v", b)
	}

	want := []string{"join:a", "join:b", "leave:b", "join:b"}
	if got := rec.types(); len(got) != len(want) {
		t.Fatalf("events = %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("events = %v, want %v", got, want)
			}
		}
	}
}

func TestRegistryDrainLifecycle(t *testing.T) {
	r, ck, rec := newTestRegistry(t)
	if err := r.Register("a", "addr-a", 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Drain("a", "sigterm"); err != nil {
		t.Fatal(err)
	}
	if !r.Draining("a") {
		t.Fatal("a not draining after Drain")
	}
	if got := len(r.Assignable()); got != 0 {
		t.Fatalf("assignable = %d, want 0 (draining members get no new work)", got)
	}
	// Heartbeats while draining refresh liveness but do not undrain.
	ck.advance(6 * time.Second)
	if err := r.Heartbeat("a", 1, nil); err != nil {
		t.Fatal(err)
	}
	if m := memberByID(t, r, "a"); m.State != StateDraining {
		t.Errorf("state = %s, want draining after heartbeat", m.State)
	}
	// Silence past the TTL completes the departure: drained, not dead.
	ck.advance(11 * time.Second)
	if m := memberByID(t, r, "a"); m.State != StateDrained {
		t.Errorf("state = %s, want drained", m.State)
	}
	if r.Len() != 1 {
		t.Errorf("len = %d, want the drained member retained", r.Len())
	}
	// Re-registration rejoins fresh.
	if err := r.Register("a", "addr-a2", 3); err != nil {
		t.Fatal(err)
	}
	if m := memberByID(t, r, "a"); m.State != StateHealthy || m.Addr != "addr-a2" {
		t.Errorf("rejoined a = %+v", m)
	}

	var leaveReason string
	for _, ev := range rec.events {
		if ev.Type == "leave" {
			leaveReason = ev.Reason
		}
	}
	if leaveReason != "drained" {
		t.Errorf("leave reason = %q, want drained (graceful, not a death)", leaveReason)
	}
}

func TestRegistryUnknownMember(t *testing.T) {
	r, _, _ := newTestRegistry(t)
	if err := r.Heartbeat("ghost", 1, nil); !errors.Is(err, ErrUnknownMember) {
		t.Errorf("heartbeat err = %v, want ErrUnknownMember", err)
	}
	if err := r.Drain("ghost", "x"); !errors.Is(err, ErrUnknownMember) {
		t.Errorf("drain err = %v, want ErrUnknownMember", err)
	}
	if r.Draining("ghost") {
		t.Error("unknown member reported draining")
	}
}

func TestRegistryRejectsIncompleteRegistration(t *testing.T) {
	r, _, _ := newTestRegistry(t)
	if err := r.Register("", "addr", 1); err == nil {
		t.Error("empty id accepted")
	}
	if err := r.Register("id", "", 1); err == nil {
		t.Error("empty addr accepted")
	}
	if r.Len() != 0 {
		t.Errorf("len = %d after rejected registrations", r.Len())
	}
}

func TestRegistryMembersSortedAndSnapshotted(t *testing.T) {
	r, _, _ := newTestRegistry(t)
	for _, id := range []string{"zeta", "alpha", "mid"} {
		if err := r.Register(id, "addr-"+id, 1); err != nil {
			t.Fatal(err)
		}
	}
	ms := r.Members()
	if len(ms) != 3 || ms[0].ID != "alpha" || ms[1].ID != "mid" || ms[2].ID != "zeta" {
		t.Fatalf("members = %+v, want sorted by id", ms)
	}
}

// log renders the recorded events as "type:id:reason".
func (r *recorder) log() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.events))
	for i, ev := range r.events {
		out[i] = ev.Type + ":" + ev.ID + ":" + ev.Reason
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStaticMemberNeverExpires: a static member does not heartbeat, so
// the TTL sweep must leave it alone however far the clock moves, while
// a registered member beside it dies on schedule.
func TestStaticMemberNeverExpires(t *testing.T) {
	r, ck, rec := newTestRegistry(t)
	r.AddStatic("s0", "b0")
	if err := r.Register("n0", "addr-n0", 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ck.advance(time.Hour)
		if m := memberByID(t, r, "s0"); m.State != StateHealthy || !m.Static || m.Capacity != 1 || !m.LastHeartbeat.IsZero() {
			t.Fatalf("after %dh s0 = %+v, want healthy static capacity 1 with no heartbeat", i+1, m)
		}
	}
	if got := r.Assignable(); len(got) != 1 || got[0].ID != "s0" {
		t.Errorf("assignable = %+v, want only s0", got)
	}
	if got := r.DeadStatics(); len(got) != 0 {
		t.Errorf("dead statics = %+v, want none", got)
	}
	want := []string{"join:s0:", "join:n0:", "leave:n0:heartbeat timeout"}
	if got := rec.log(); !equalStrings(got, want) {
		t.Errorf("events = %v, want %v", got, want)
	}
}

// TestStaticMemberDeadAndReviveEdges: a static member's liveness moves
// only on the coordinator's contact edges, each edge emits exactly one
// event, and the same calls leave a registered member untouched.
func TestStaticMemberDeadAndReviveEdges(t *testing.T) {
	r, ck, rec := newTestRegistry(t)
	r.AddStatic("s0", "b0")
	if err := r.Register("n0", "addr-n0", 1); err != nil {
		t.Fatal(err)
	}

	r.MarkDead("s0", "unreachable")
	r.MarkDead("s0", "unreachable") // already dead: no second leave
	if m := memberByID(t, r, "s0"); m.State != StateDead {
		t.Fatalf("s0 state = %s after a failed contact, want dead", m.State)
	}
	if got := r.DeadStatics(); len(got) != 1 || got[0].ID != "s0" {
		t.Fatalf("dead statics = %+v, want s0", got)
	}
	if got := r.Assignable(); len(got) != 1 || got[0].ID != "n0" {
		t.Fatalf("assignable = %+v, want only n0", got)
	}
	ck.advance(time.Hour) // the sweep does not revive a dead static either
	if m := memberByID(t, r, "s0"); m.State != StateDead {
		t.Fatalf("s0 state = %s after the sweep, want still dead", m.State)
	}

	st := opusnet.CacheStatsPayload{CellsExecuted: 9, Misses: 4}
	r.MarkAlive("s0", &st)
	r.MarkAlive("s0", nil) // already healthy: no second join, stats kept
	m := memberByID(t, r, "s0")
	if m.State != StateHealthy || !m.HasStats || m.Stats.CellsExecuted != 9 || m.Stats.Misses != 4 {
		t.Fatalf("revived s0 = %+v, want healthy with the recorded stats", m)
	}
	if got := r.DeadStatics(); len(got) != 0 {
		t.Errorf("dead statics after revival = %+v, want none", got)
	}

	// Contact edges belong to static members only.
	r.MarkDead("n0", "failover")
	r.MarkAlive("n0", &st)
	if n := memberByID(t, r, "n0"); n.State != StateDead || n.HasStats {
		t.Errorf("n0 = %+v, want dead by TTL only and no probe-recorded stats", n)
	}

	want := []string{"join:s0:", "join:n0:", "leave:s0:unreachable", "leave:n0:heartbeat timeout", "join:s0:probe revival"}
	if got := rec.log(); !equalStrings(got, want) {
		t.Errorf("events = %v, want %v", got, want)
	}
}

// TestStaticMemberRefusesWireFrames: no registration, heartbeat or
// drain frame may claim or move a static member's id; the refusal
// names the static backend, and the member is left as it was.
func TestStaticMemberRefusesWireFrames(t *testing.T) {
	r, _, rec := newTestRegistry(t)
	r.AddStatic("s0", "b0")
	for name, err := range map[string]error{
		"register":  r.Register("s0", "elsewhere", 4),
		"heartbeat": r.Heartbeat("s0", 4, &opusnet.CacheStatsPayload{Misses: 1}),
		"drain":     r.Drain("s0", "sigterm"),
	} {
		if err == nil || !strings.Contains(err.Error(), "static backend b0") {
			t.Errorf("%s of s0 = %v, want a refusal naming static backend b0", name, err)
		}
		if errors.Is(err, ErrUnknownMember) {
			t.Errorf("%s of s0 reported unknown member; a drain would ack it", name)
		}
	}
	m := memberByID(t, r, "s0")
	if m.State != StateHealthy || !m.Static || m.Addr != "b0" || m.Capacity != 1 || m.HasStats {
		t.Errorf("s0 = %+v after refused frames, want untouched", m)
	}
	if r.Draining("s0") {
		t.Error("refused drain left s0 draining")
	}
	if got := rec.log(); !equalStrings(got, []string{"join:s0:"}) {
		t.Errorf("events = %v, want only the startup join", got)
	}
}
