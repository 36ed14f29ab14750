// Command railfleet is the sharded-fleet coordinator: it speaks the
// same opusnet protocol raild does — point railclient (or any existing
// client) at it unchanged — but executes each scenario grid across a
// fleet of backend raild daemons, sharding cells by workload so no
// simulation is duplicated, merging rows back into canonical order,
// and re-sharding a dead backend's cells to the survivors mid-grid.
// Non-grid experiments are proxied to a backend.
//
// Usage:
//
//	railfleet -backends 10.0.0.1:9090,10.0.0.2:9090     # listen on 127.0.0.1:9091
//	railfleet -addr :7071 -backends host:9090 -inflight 32
//	railfleet -backends ... -verbose                     # log requests and failovers
//	railfleet -backends ... -metrics-addr :9191          # serve /metrics and /events over HTTP
//	railfleet -register                                  # elastic fleet: backends join themselves
//	railfleet -register -backends host:9090              # mixed: statics plus self-registered
//
// Every backend is a member of one membership table. Static -backends
// entries are members s0, s1, … in flag order: dialed lazily, marked
// dead by a failed contact, and revived by a background probe, so the
// fleet may come up (and restart) in any order. With -register the
// fleet is elastic: raild daemons started with -coordinator register
// themselves (weighting the cell shard by their advertised capacity),
// keep alive via heartbeats bounded by -heartbeat-ttl, and drain
// gracefully on SIGTERM — joining and leaving even mid-request. A
// registration may not claim a static member's id.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"photonrail/internal/railctl"
	"photonrail/internal/railfleet"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, os.Stderr, stop); err != nil {
		fmt.Fprintf(os.Stderr, "railfleet: %v\n", err)
		os.Exit(1)
	}
}

// run starts the coordinator and serves until stop delivers. It is the
// testable core: main wires OS signals in, tests feed the channel
// directly.
func run(args []string, stdout, stderr io.Writer, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("railfleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:9091", "TCP listen address")
		backends = fs.String("backends", "", "comma-separated static raild backend addresses")
		register = fs.Bool("register", false, "accept self-registering backends (raild -coordinator)")
		hbTTL    = fs.Duration("heartbeat-ttl", railctl.DefaultHeartbeatTTL, "mark a registered backend dead when its newest heartbeat is older than this")
		inflight = fs.Int("inflight", railfleet.DefaultInFlight, "max cells in flight per backend per request")
		batchTO  = fs.Duration("batch-timeout", railfleet.DefaultBatchTimeout, "per-batch wedge bound before a backend's cells re-shard (<0 = unbounded)")
		metrics  = fs.String("metrics-addr", "", "HTTP address for /metrics and /events (empty = disabled)")
		verbose  = fs.Bool("verbose", false, "log served requests, failovers, and membership events to stderr")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; -h is not a failure
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q (railfleet takes flags only)", fs.Args())
	}
	var addrs []string
	for _, a := range strings.Split(*backends, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 && !*register {
		return fmt.Errorf("no backends: pass -backends host:port[,host:port...] or enable -register")
	}
	if *inflight <= 0 {
		return fmt.Errorf("-inflight must be > 0, got %d", *inflight)
	}
	if *hbTTL <= 0 {
		return fmt.Errorf("-heartbeat-ttl must be > 0, got %v", *hbTTL)
	}
	cfg := railfleet.Config{
		Addr:              *addr,
		Backends:          addrs,
		AllowRegistration: *register,
		HeartbeatTTL:      *hbTTL,
		InFlight:          *inflight,
		BatchTimeout:      *batchTO,
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	f, err := railfleet.New(cfg)
	if err != nil {
		return err
	}
	if *metrics != "" {
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			_ = f.Close()
			return fmt.Errorf("metrics listener: %w", err)
		}
		hs := &http.Server{Handler: f.Telemetry().Handler()}
		go func() { _ = hs.Serve(ln) }() // Serve returns once hs is closed below
		defer func() { _ = hs.Close() }()
		fmt.Fprintf(stdout, "railfleet: metrics on http://%s/metrics\n", ln.Addr())
	}
	switch {
	case *register && len(addrs) > 0:
		fmt.Fprintf(stdout, "railfleet: listening on %s, %d backends (%s) + registration open\n",
			f.Addr(), len(addrs), strings.Join(addrs, ", "))
	case *register:
		fmt.Fprintf(stdout, "railfleet: listening on %s, registration open (no static backends)\n", f.Addr())
	default:
		fmt.Fprintf(stdout, "railfleet: listening on %s, %d backends: %s\n", f.Addr(), len(addrs), strings.Join(addrs, ", "))
	}
	<-stop
	fmt.Fprintf(stdout, "railfleet: shutting down\n")
	return f.Close()
}
