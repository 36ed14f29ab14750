package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"photonrail"
	"photonrail/internal/gridcli"
	"photonrail/internal/opusnet"
	"photonrail/internal/railfleet"
	"photonrail/internal/railserve"
)

func startDaemon(t *testing.T) string {
	t.Helper()
	s, err := railserve.NewServer(railserve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s.Addr()
}

func TestRemoteSweepCSV(t *testing.T) {
	addr := startDaemon(t)
	var out, errb bytes.Buffer
	err := run(t.Context(), []string{"-addr", addr, "-par", "4:2:2", "-latencies", "5", "-iters", "1", "-format", "csv"},
		&out, &errb)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 { // header + electrical + photonic@5
		t.Fatalf("csv lines = %d:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], "cell,model,gpu,fabric,latency_ms") {
		t.Errorf("header = %q", lines[0])
	}
}

func TestRemoteStats(t *testing.T) {
	addr := startDaemon(t)
	var out, errb bytes.Buffer
	if err := run(t.Context(), []string{"-addr", addr, "-par", "4:2:2", "-latencies", "5", "-iters", "1",
		"-format", "csv", "-stats", "-progress"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errb.String(), "exps 1 executed") {
		t.Errorf("stats = %q", errb.String())
	}
	if !strings.Contains(errb.String(), "railclient: ") {
		t.Errorf("no progress lines in %q", errb.String())
	}
	var so, se bytes.Buffer
	if err := run(t.Context(), []string{"-addr", addr, "-daemon-stats"}, &so, &se); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(so.String(), "daemon: cache") {
		t.Errorf("daemon-stats = %q", so.String())
	}
}

func TestRemoteExperimentMatchesLocal(t *testing.T) {
	addr := startDaemon(t)
	var out, errb bytes.Buffer
	if err := run(t.Context(), []string{"-addr", addr, "-exp", "table3", "-timeout", "1m"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	e, ok := photonrail.Lookup("table3")
	if !ok {
		t.Fatal("table3 not registered")
	}
	res, err := e.Run(context.Background(), photonrail.NewEngine(1), photonrail.Params{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.RenderText(&want); err != nil {
		t.Fatal(err)
	}
	if out.String() != want.String() {
		t.Errorf("remote table3 diverged from local:\n got: %q\nwant: %q", out.String(), want.String())
	}
}

func TestRejectsBadInput(t *testing.T) {
	addr := startDaemon(t)
	cases := [][]string{
		{"-addr", addr, "-models", "GPT-17"},
		{"-addr", addr, "-format", "yaml"},
		{"-addr", "127.0.0.1:1", "-par", "4:2:2"}, // nothing listening
		{"positional"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if err := run(t.Context(), args, &out, &errb); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestListCatalog(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(t.Context(), []string{"-list"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fig8-5d") {
		t.Errorf("catalog = %q", out.String())
	}
}

func TestPrintMemberFormatting(t *testing.T) {
	var b strings.Builder
	if err := printMember(&b, opusnet.BackendStatsPayload{
		Addr: "10.0.0.1:9090", ID: "s0", Static: true, Capacity: 1,
		Healthy: true, State: "healthy", Cells: 48,
	}); err != nil {
		t.Fatal(err)
	}
	if err := printMember(&b, opusnet.BackendStatsPayload{
		Addr: "10.0.0.2:9090", ID: "node-a", Capacity: 4, State: "draining",
		LastHeartbeatAgeMS: 1500, Cells: 7, Failures: 1,
	}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("printed %d lines, want 2:\n%s", len(lines), b.String())
	}
	if want := "  s0 (10.0.0.1:9090): static healthy, capacity 1, cells 48, failures 0"; lines[0] != want {
		t.Errorf("static line = %q, want %q", lines[0], want)
	}
	if want := "  node-a (10.0.0.2:9090): dynamic draining, capacity 4, cells 7, failures 1, heartbeat 1.5s ago"; lines[1] != want {
		t.Errorf("dynamic line = %q, want %q", lines[1], want)
	}
	if strings.Contains(lines[0], "heartbeat") {
		t.Error("static members have no heartbeat; the line must not claim one")
	}
}

// TestDaemonStatsFleetMembership: -daemon-stats against a railfleet
// coordinator prints the per-backend membership view; against a plain
// daemon (TestRemoteStats) it prints none.
func TestDaemonStatsFleetMembership(t *testing.T) {
	backendAddr := startDaemon(t)
	f, err := railfleet.New(railfleet.Config{Addr: "127.0.0.1:0", Backends: []string{backendAddr}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close(); f.Drain() })
	// Run a sweep through the coordinator so the static member has been
	// probed healthy and credited cells.
	var out, errb bytes.Buffer
	if err := run(t.Context(), []string{"-addr", f.Addr(), "-par", "4:2:2", "-latencies", "5", "-iters", "1",
		"-format", "csv"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	var so, se bytes.Buffer
	if err := run(t.Context(), []string{"-addr", f.Addr(), "-daemon-stats"}, &so, &se); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(so.String(), "fleet: 1 members") {
		t.Fatalf("daemon-stats = %q, want a fleet membership section", so.String())
	}
	if !strings.Contains(so.String(), "s0 ("+backendAddr+"): static healthy") {
		t.Errorf("daemon-stats = %q, want the static member's line", so.String())
	}
}

// TestGridSweepSendsTimeoutToServer: a sweep without -exp goes out as
// exp_req "grid" carrying the dimension flags' grid, the -timeout
// deadline, so the server bounds the sweep (and a cancel frame can
// stop it) instead of simulating it to completion, and the -format
// the server renders. A stub server on opusnet.ServeConn records the
// request frame.
func TestGridSweepSendsTimeoutToServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan *opusnet.Message, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		opusnet.ServeConn(conn, func(msg *opusnet.Message, reply func(*opusnet.Message, bool), _ *opusnet.ConnState) {
			select {
			case got <- msg:
			default:
			}
			reply(&opusnet.Message{Type: opusnet.MsgExpResult, Seq: msg.Seq,
				ExpResult: &opusnet.ExpResultPayload{Name: "grid", Rendered: "stub\n"}}, true)
		})
	}()
	t.Cleanup(func() { _ = ln.Close(); wg.Wait() })

	dimArgs := []string{"-models", "Llama3-8B", "-par", "4:2:2", "-latencies", "5", "-iters", "1"}
	var out, errb bytes.Buffer
	args := append([]string{"-addr", ln.Addr().String(), "-timeout", "1500ms"}, dimArgs...)
	if err := run(t.Context(), args, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, errb.String())
	}
	if out.String() != "stub\n" {
		t.Errorf("stdout = %q, want the server's rendering verbatim", out.String())
	}
	msg := <-got
	if msg.Type != opusnet.MsgExpReq || msg.Exp == nil || msg.Exp.Name != "grid" {
		t.Fatalf("request frame = %+v, want exp_req named \"grid\"", msg)
	}
	if msg.Exp.TimeoutMS != 1500 {
		t.Errorf("TimeoutMS = %d, want 1500 (the -timeout value)", msg.Exp.TimeoutMS)
	}
	if msg.Exp.Format != opusnet.FormatTable {
		t.Errorf("Format = %q, want %q (the -format default): the server renders only what railclient prints", msg.Exp.Format, opusnet.FormatTable)
	}
	fs := flag.NewFlagSet("dims", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	dims := gridcli.Register(fs)
	if err := fs.Parse(dimArgs); err != nil {
		t.Fatal(err)
	}
	spec, _, err := dims.Spec()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(spec)
	sent, _ := json.Marshal(msg.Exp.Grid)
	if string(sent) != string(want) {
		t.Errorf("request grid = %s, want dims.Spec() = %s", sent, want)
	}
}
