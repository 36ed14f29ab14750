package railctl

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"photonrail/internal/opusnet"
)

// fakeCoord is a scripted coordinator: it acks every control-plane
// frame and records what it saw, so the agent's dial/register/
// heartbeat/reconnect/drain behavior is observable without a real
// fleet.
type fakeCoord struct {
	ln   net.Listener
	seen chan *opusnet.Message
	// onRegister scripts the reply to fleet_register: regAck (default),
	// regRefuse (MsgErr, as a coordinator refusing the id), or regHangUp
	// (close the connection without a reply).
	onRegister atomic.Int32

	mu    sync.Mutex
	conns []net.Conn
	done  bool
}

func startFakeCoord(t *testing.T) *fakeCoord {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fc := &fakeCoord{ln: ln, seen: make(chan *opusnet.Message, 64)}
	go fc.accept()
	t.Cleanup(fc.stop)
	return fc
}

func (fc *fakeCoord) accept() {
	for {
		conn, err := fc.ln.Accept()
		if err != nil {
			return
		}
		fc.mu.Lock()
		if fc.done {
			fc.mu.Unlock()
			_ = conn.Close()
			return
		}
		fc.conns = append(fc.conns, conn)
		fc.mu.Unlock()
		go fc.serve(conn)
	}
}

func (fc *fakeCoord) serve(conn net.Conn) {
	for {
		msg, err := opusnet.ReadMessage(conn)
		if err != nil {
			return
		}
		select {
		case fc.seen <- msg:
		default:
		}
		reply := &opusnet.Message{Type: opusnet.MsgAck, Seq: msg.Seq}
		if msg.Type == opusnet.MsgFleetRegister {
			switch fc.onRegister.Load() {
			case regRefuse:
				reply = &opusnet.Message{Type: opusnet.MsgErr, Seq: msg.Seq, Error: `member id "s0" is held by static backend b0`}
			case regHangUp:
				_ = conn.Close()
				return
			}
		}
		if err := opusnet.WriteMessage(conn, reply); err != nil {
			return
		}
	}
}

// fakeCoord.onRegister scripts.
const (
	regAck int32 = iota
	regRefuse
	regHangUp
)

// dropConns severs every live connection, forcing the agent to redial.
func (fc *fakeCoord) dropConns() {
	fc.mu.Lock()
	conns := fc.conns
	fc.conns = nil
	fc.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

func (fc *fakeCoord) stop() {
	fc.mu.Lock()
	fc.done = true
	fc.mu.Unlock()
	_ = fc.ln.Close()
	fc.dropConns()
}

// await blocks for the next frame of the wanted type, failing the test
// after a generous bound.
func (fc *fakeCoord) await(t *testing.T, want opusnet.MsgType) *opusnet.Message {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case msg := <-fc.seen:
			if msg.Type == want {
				return msg
			}
		case <-deadline:
			t.Fatalf("fake coordinator never saw a %s frame", want)
		}
	}
}

func TestAgentRegistersHeartbeatsReconnects(t *testing.T) {
	fc := startFakeCoord(t)
	a, err := StartAgent(AgentConfig{
		Coordinator: fc.ln.Addr().String(),
		ID:          "node-a",
		Addr:        "serve-addr",
		Capacity:    7,
		Interval:    20 * time.Millisecond,
		Stats:       func() opusnet.CacheStatsPayload { return opusnet.CacheStatsPayload{CellsExecuted: 42} },
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	reg := fc.await(t, opusnet.MsgFleetRegister)
	if reg.FleetReg == nil || reg.FleetReg.ID != "node-a" || reg.FleetReg.Addr != "serve-addr" || reg.FleetReg.Capacity != 7 {
		t.Fatalf("registration payload = %+v", reg.FleetReg)
	}
	hb := fc.await(t, opusnet.MsgHeartbeat)
	if hb.Heartbeat == nil || hb.Heartbeat.ID != "node-a" || hb.Heartbeat.Capacity != 7 {
		t.Fatalf("heartbeat payload = %+v", hb.Heartbeat)
	}
	if hb.Heartbeat.Stats == nil || hb.Heartbeat.Stats.CellsExecuted != 42 {
		t.Fatalf("heartbeat did not piggyback stats: %+v", hb.Heartbeat.Stats)
	}

	// A dropped connection re-registers on its own.
	fc.dropConns()
	if again := fc.await(t, opusnet.MsgFleetRegister); again.FleetReg.ID != "node-a" {
		t.Fatalf("re-registration payload = %+v", again.FleetReg)
	}
}

func TestAgentDrain(t *testing.T) {
	fc := startFakeCoord(t)
	a, err := StartAgent(AgentConfig{
		Coordinator: fc.ln.Addr().String(),
		ID:          "node-d",
		Addr:        "serve-addr",
		Interval:    20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	fc.await(t, opusnet.MsgFleetRegister)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.Drain(ctx, "test"); err != nil {
		t.Fatal(err)
	}
	d := fc.await(t, opusnet.MsgDrain)
	if d.DrainReq == nil || d.DrainReq.ID != "node-d" || d.DrainReq.Reason != "test" {
		t.Fatalf("drain payload = %+v", d.DrainReq)
	}
}

// TestAgentDrainWithoutConnection: a drain with no live registration
// connection dials a fresh one rather than failing.
func TestAgentDrainWithoutConnection(t *testing.T) {
	fc := startFakeCoord(t)
	a, err := StartAgent(AgentConfig{
		Coordinator: fc.ln.Addr().String(),
		ID:          "node-x",
		Addr:        "serve-addr",
		Interval:    time.Hour, // no redial before the drain
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	fc.await(t, opusnet.MsgFleetRegister)
	fc.dropConns()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.Drain(ctx, "late"); err != nil {
		t.Fatal(err)
	}
	if d := fc.await(t, opusnet.MsgDrain); d.DrainReq.ID != "node-x" {
		t.Fatalf("drain payload = %+v", d.DrainReq)
	}
}

// stopSteppedAgent stops an agent whose sleepFn parks on the test:
// closing testDone first releases a sleep the test no longer steps,
// so Close can join the loop.
func stopSteppedAgent(a *Agent, testDone chan struct{}) {
	close(testDone)
	a.Close()
}

// TestAgentRedialBackoffResets pins the redial backoff contract with a
// stepped (never actually sleeping) clock: consecutive failed redials
// double the wait from Interval up to MaxBackoff, and a successful
// re-registration resets the next failure's wait to the base Interval —
// a healed-then-reoutaged coordinator must not inherit the previous
// outage's ceiling.
func TestAgentRedialBackoffResets(t *testing.T) {
	fc := startFakeCoord(t)
	var failDial atomic.Bool
	failDial.Store(true)

	testDone := make(chan struct{})
	sleeps := make(chan time.Duration)
	proceed := make(chan struct{})
	const interval = 10 * time.Millisecond

	a, err := StartAgent(AgentConfig{
		Coordinator: fc.ln.Addr().String(),
		ID:          "node-b",
		Addr:        "serve-addr",
		Interval:    interval,
		MaxBackoff:  4 * interval,
		Dial: func(addr string) (net.Conn, error) {
			if failDial.Load() {
				return nil, fmt.Errorf("injected dial failure")
			}
			return net.DialTimeout("tcp", addr, 5*time.Second)
		},
		sleepFn: func(d time.Duration) {
			select {
			case sleeps <- d:
			case <-testDone:
				return
			}
			select {
			case <-proceed:
			case <-testDone:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stopSteppedAgent(a, testDone)

	nextSleep := func() time.Duration {
		t.Helper()
		select {
		case d := <-sleeps:
			return d
		case <-time.After(30 * time.Second):
			t.Fatal("agent never slept")
			return 0
		}
	}
	step := func() {
		select {
		case proceed <- struct{}{}:
		case <-time.After(30 * time.Second):
			t.Fatal("agent never resumed")
		}
	}

	// Outage one: the backoff doubles and caps.
	for i, want := range []time.Duration{interval, 2 * interval, 4 * interval, 4 * interval} {
		if got := nextSleep(); got != want {
			t.Fatalf("redial sleep %d = %v, want %v", i+1, got, want)
		}
		if i == 3 {
			failDial.Store(false) // coordinator heals before the last retry fires
		}
		step()
	}

	fc.await(t, opusnet.MsgFleetRegister)
	// A heartbeat proves the agent took the registration's ack: dropping
	// the connection before that would fail the registration itself.
	fc.await(t, opusnet.MsgHeartbeat)

	// Outage two: the connection drops and dialing fails again. The
	// successful registration in between must have reset the backoff.
	failDial.Store(true)
	fc.dropConns()
	if got := nextSleep(); got != interval {
		t.Fatalf("first redial sleep after re-registration = %v, want base %v (backoff not reset)", got, interval)
	}
	step()
}

func TestAgentConfigValidation(t *testing.T) {
	bad := []AgentConfig{
		{ID: "a", Addr: "b"},          // no coordinator
		{Coordinator: "c", Addr: "b"}, // no id
		{Coordinator: "c", ID: "a"},   // no serving address
	}
	for _, cfg := range bad {
		if _, err := StartAgent(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// TestAgentRefusedRegistrationStops pins the refusal path with a frozen
// clock: a fleet_register answered with MsgErr is reported as a
// refusal, never retried (the agent dials once and never sleeps), and
// a later Drain has no membership to end.
func TestAgentRefusedRegistrationStops(t *testing.T) {
	fc := startFakeCoord(t)
	fc.onRegister.Store(regRefuse)
	var dials, sleeps atomic.Int32
	var logMu sync.Mutex
	var logs []string
	a, err := StartAgent(AgentConfig{
		Coordinator: fc.ln.Addr().String(),
		ID:          "s0",
		Addr:        "serve-addr",
		Interval:    10 * time.Millisecond,
		Dial: func(addr string) (net.Conn, error) {
			dials.Add(1)
			return net.DialTimeout("tcp", addr, 5*time.Second)
		},
		sleepFn: func(time.Duration) { sleeps.Add(1) },
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	stopped := make(chan struct{})
	go func() { a.wg.Wait(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(30 * time.Second):
		t.Fatal("agent kept running after a refused registration")
	}
	if d, s := dials.Load(), sleeps.Load(); d != 1 || s != 0 {
		t.Fatalf("dials/sleeps = %d/%d, want 1/0 (a refusal is not retried)", d, s)
	}
	logMu.Lock()
	joined := strings.Join(logs, "\n")
	logMu.Unlock()
	if !strings.Contains(joined, "registration refused") || !strings.Contains(joined, "held by static backend") ||
		strings.Contains(joined, "unreachable") {
		t.Fatalf("agent log = %q, want the refusal reported as a refusal", joined)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.Drain(ctx, "sigterm"); err != nil {
		t.Fatalf("drain after refusal = %v, want nil", err)
	}
	if d := dials.Load(); d != 1 {
		t.Fatalf("drain after refusal dialed the coordinator (%d dials)", d)
	}
}

// TestAgentConnectionFailureRetries pins the other side with a frozen
// clock: a registration whose connection drops before any reply is a
// connection failure, so the agent backs off (Interval, then doubling)
// and registers again.
func TestAgentConnectionFailureRetries(t *testing.T) {
	fc := startFakeCoord(t)
	fc.onRegister.Store(regHangUp)
	testDone := make(chan struct{})
	sleeps := make(chan time.Duration)
	proceed := make(chan struct{})
	const interval = 10 * time.Millisecond
	a, err := StartAgent(AgentConfig{
		Coordinator: fc.ln.Addr().String(),
		ID:          "node-c",
		Addr:        "serve-addr",
		Interval:    interval,
		MaxBackoff:  8 * interval,
		sleepFn: func(d time.Duration) {
			select {
			case sleeps <- d:
			case <-testDone:
				return
			}
			select {
			case <-proceed:
			case <-testDone:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stopSteppedAgent(a, testDone)

	for i, want := range []time.Duration{interval, 2 * interval} {
		fc.await(t, opusnet.MsgFleetRegister)
		select {
		case got := <-sleeps:
			if got != want {
				t.Fatalf("backoff %d = %v, want %v", i+1, got, want)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("agent did not back off after connection failure %d", i+1)
		}
		if i == 1 {
			fc.onRegister.Store(regAck) // the coordinator heals before the next retry
		}
		select {
		case proceed <- struct{}{}:
		case <-time.After(30 * time.Second):
			t.Fatal("agent never resumed")
		}
	}
	fc.await(t, opusnet.MsgFleetRegister)
	fc.await(t, opusnet.MsgHeartbeat) // registered: heartbeating
}
