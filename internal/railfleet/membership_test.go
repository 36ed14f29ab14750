package railfleet

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"photonrail/internal/faultnet"
	"photonrail/internal/opusnet"
	"photonrail/internal/railctl"
	"photonrail/internal/railserve"
	"photonrail/internal/scenario"
)

// TestStaticIDRegistrationRefused is the regression test for the
// mixed-fleet id collision: in a `-backends b0,b1 -register` fleet, a
// daemon registering as "s0" must not take static s0's place. The
// registration (and any heartbeat or drain under that id) is refused
// with an error naming the static backend, b0 keeps its shard of the
// grid, and the membership view lists s0 exactly once.
func TestStaticIDRegistrationRefused(t *testing.T) {
	wantRows, _ := fig8Ref(t)
	fn := faultnet.New()
	t.Cleanup(fn.Close)
	var servers []*railserve.Server
	for i := 0; i < 3; i++ { // b0, b1 static; b2 the would-be impostor
		s, err := railserve.NewServer(railserve.Config{Listener: fn.Listen(fmt.Sprintf("b%d", i)), Workers: 2, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
		t.Cleanup(func() { _ = s.Close(); s.Drain() })
	}
	coord, err := New(Config{
		Listener:          fn.Listen("coord"),
		Backends:          []string{"b0", "b1"},
		AllowRegistration: true,
		InFlight:          8,
		Dial:              fn.Dial,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coord.Close(); coord.Drain() })
	conn, err := fn.Dial("coord")
	if err != nil {
		t.Fatal(err)
	}
	c := railserve.NewClient(conn)
	t.Cleanup(func() { _ = c.Close() })

	ctx := context.Background()
	id := StaticID(0)
	refused := func(frame string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "static backend b0") {
			t.Errorf("%s as %s = %v, want a refusal naming static backend b0", frame, id, err)
		}
	}
	refused("register", c.FleetRegister(ctx, opusnet.FleetRegisterPayload{ID: id, Addr: "b2", Capacity: 1}))
	refused("heartbeat", c.FleetHeartbeat(ctx, opusnet.HeartbeatPayload{ID: id, Capacity: 1}))

	cells := scenario.Fig8Grid5D().Expand()
	all := make([]int, len(cells))
	for i := range all {
		all[i] = i
	}
	share := len(Assign(cells, all, []int{0, 1})[0])
	if share == 0 {
		t.Fatal("static position 0 owns no fig8-5d cells; pick a grid that splits")
	}
	run, err := runGrid(c, scenario.SpecOf(scenario.Fig8Grid5D()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsJSON(t, run.Rows); got != wantRows {
		t.Fatal("rows diverged from the local engine's")
	}
	if got := servers[0].Stats().CellsExecuted; got != uint64(share) {
		t.Errorf("b0 executed %d cells, want its static share of %d", got, share)
	}
	if got := servers[2].Stats().CellsExecuted; got != 0 {
		t.Errorf("the refused registrant executed %d cells, want 0", got)
	}

	refused("drain", c.FleetDrain(ctx, opusnet.DrainPayload{ID: id, Reason: "impostor"}))

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var held []opusnet.BackendStatsPayload
	for _, b := range st.Backends {
		if b.ID == id {
			held = append(held, b)
		}
	}
	if len(held) != 1 || held[0].Addr != "b0" || !held[0].Static || held[0].State != string(railctl.StateHealthy) {
		t.Errorf("membership view entries for %s = %+v, want exactly one: static b0, healthy", id, held)
	}
	if len(st.Backends) != 2 {
		t.Errorf("membership view has %d entries, want the 2 statics", len(st.Backends))
	}
}

// TestFleetMembershipViewsAgree pins the two membership views to one
// table: the railfleet_members{state} gauge and the per-state counts
// in stats_resp must be equal, and every stats_resp entry must report
// Healthy exactly when its State is healthy — on a fresh static fleet,
// after a grid, and after a backend dies and a Stats call notices.
func TestFleetMembershipViewsAgree(t *testing.T) {
	fl := startFleet(t, 2, 8)
	c := fl.dialCoord(t)

	check := func(moment string, want map[string]int) {
		t.Helper()
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		byState := map[string]int{}
		for _, b := range st.Backends {
			byState[b.State]++
			if b.Healthy != (b.State == string(railctl.StateHealthy)) {
				t.Errorf("%s: member %s reports state %q but healthy %v", moment, b.ID, b.State, b.Healthy)
			}
		}
		samples := coordCounters(t, fl.coord)
		for _, state := range []railctl.State{railctl.StateHealthy, railctl.StateDraining, railctl.StateDrained, railctl.StateDead} {
			gauge := samples[fmt.Sprintf("railfleet_members{state=%q}", state)]
			if int(gauge) != byState[string(state)] || byState[string(state)] != want[string(state)] {
				t.Errorf("%s: %s members: gauge %g, stats_resp %d, want %d",
					moment, state, gauge, byState[string(state)], want[string(state)])
			}
		}
		if len(st.Backends) != 2 {
			t.Errorf("%s: stats_resp lists %d members, want 2", moment, len(st.Backends))
		}
	}

	check("fresh fleet", map[string]int{"healthy": 2})
	if _, err := runGrid(c, scenario.SpecOf(scenario.Fig8Grid5D()), nil); err != nil {
		t.Fatal(err)
	}
	check("after one grid", map[string]int{"healthy": 2})
	fl.net.Endpoint("b1").Kill()
	check("after killing b1", map[string]int{"healthy": 1, "dead": 1})
}
