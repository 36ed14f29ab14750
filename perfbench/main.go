// Command perfbench is photonrail's end-to-end benchmark: it brings up
// the whole serving stack in one process — railgate HTTP with a
// resultstore, a railfleet coordinator, two raild daemons with one
// engine worker each, every hop over loopback TCP — and drives it with
// seeded closed-loop workloads:
//
//	cold-5d    one client, default fig8-5d grids, each on a stack never
//	           used before (fresh engines, empty store)
//	warm-mix   one client, distinct fig8 / fig8-5d requests whose
//	           simulations set-up already ran (memo hits; no store)
//	store-hit  one client, requests whose results set-up stored
//	           (answered by railgate from the store)
//
// Every response is compared byte for byte with its expected rendering
// and each workload's defining property is checked from the layers'
// own counters. With -trace 0 it prints the end-to-end metrics; with
// -trace 1 it also replays fresh ops rung by rung, one layer's public
// entry point per rung, and prints per-layer metrics, a self-time
// table and the span file's path. The last stdout line is the JSON
// result.
//
// Run it from the repository root (perfbench/run.py builds and runs
// it):
//
//	python3 perfbench/run.py --workload warm-mix --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A -trace 0 run sets its workload up at least minSetupReps times and
// until minSetupTime has gone into set-up; setup_s is the median.
const (
	minSetupReps = 3
	minSetupTime = 3 * time.Second
)

// warmUp is the untimed closed-loop phase between set-up and the timed
// phase: the same ops, so the timed phase starts on a grown heap and
// open connections rather than paying for them in its first seconds.
const warmUp = 2 * time.Second

// warmUpPhase runs s's ops for warmUp with a meter of its own and
// discards the numbers; any failed op fails the run.
func warmUpPhase(ctx context.Context, s trial) error {
	m := newMeter()
	ph, _, err := s.timed(ctx, warmUp, m)
	m.close()
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if ph.firstErr != nil {
		return fmt.Errorf("warm-up: %d of %d ops failed; first: %w", ph.failed, ph.attempted, ph.firstErr)
	}
	return nil
}

// outDir holds span files and each run's scratch stores; it is
// relative to the repository root, where perfbench runs.
var outDir = filepath.Join(".bench_build", "perfbench")

// runTimeout bounds a whole run; a wedged stack fails it instead of
// hanging the caller.
const runTimeout = 170 * time.Second

// replayOps bounds the ops a traced run replays per workload.
var replayOps = map[string]int{"cold-5d": 6, "warm-mix": warmReplayOps, "store-hit": storeReplayOps}

type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	dir      string // this run's scratch directory (stores)
	golden   map[string][]byte
	stacks   int
}

// newStack starts a stack in a directory of its own.
func (b *bench) newStack(withStore bool) (*stack, error) {
	b.stacks++
	return startStack(filepath.Join(b.dir, fmt.Sprintf("stack%d", b.stacks)), withStore)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	b := &bench{}
	var seconds float64
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&b.workload, "workload", "", "cold-5d, warm-mix or store-hit")
	fs.Int64Var(&b.seed, "seed", 1, "seed of the generated ops")
	fs.Float64Var(&seconds, "seconds", 10, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1: replay ops rung by rung and print per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	b.seconds = time.Duration(seconds * float64(time.Second))
	b.trace = trace == 1
	if _, ok := workloads[b.workload]; !ok || b.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload %s, -seconds > 0, -trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	timer := time.AfterFunc(runTimeout+5*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run timed out")
		os.Exit(3)
	})
	res, err := b.run(ctx)
	timer.Stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (b *bench) run(ctx context.Context) (*result, error) {
	var err error
	if b.golden, err = loadGolden(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if b.dir, err = os.MkdirTemp(outDir, "run-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.dir)
	host := hostInfo()
	fmt.Printf("perfbench host: %s\n", host)

	t0 := time.Now()
	p, err := workloads[b.workload](ctx, b)
	if err != nil {
		return nil, fmt.Errorf("prepare %s: %w", b.workload, err)
	}
	fmt.Printf("perfbench %s: ops and references prepared in %.3fs\n", b.workload, time.Since(t0).Seconds())
	var s trial
	var setups []float64
	var spent time.Duration
	for len(setups) < minSetupReps || spent < minSetupTime {
		if b.trace && len(setups) == 1 {
			break
		}
		if s != nil {
			s.close()
		}
		runtime.GC()
		t0 := time.Now()
		if s, err = p.setup(ctx); err != nil {
			return nil, fmt.Errorf("set up %s: %w", b.workload, err)
		}
		spent += time.Since(t0)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Printf("perfbench %s: live heap after set-up %.1f MiB\n", b.workload, float64(ms.HeapAlloc)/(1<<20))

	if err := warmUpPhase(ctx, s); err != nil {
		return nil, err
	}
	m := newMeter()
	ph, c, err := s.timed(ctx, b.seconds, m)
	m.close()
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metric{}}
	if ph.firstErr != nil {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed; first: %v\n", ph.failed, ph.attempted, ph.firstErr)
	}
	if err := s.check(c); err != nil {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: workload property broken: %v\n", err)
	}
	if ph.exhausted {
		fmt.Fprintf(os.Stderr, "perfbench: the op pool ran out after %s of %s; metrics cover that part\n", ph.busy.Round(time.Millisecond), b.seconds)
	}
	if len(ph.latMS) == 0 {
		return nil, fmt.Errorf("%s completed no op: %v", b.workload, ph.firstErr)
	}
	e2e := endToEnd(ph, median(setups))
	fmt.Printf("perfbench %s seed=%d: %d ops (%d failed) over %s; %d set-ups, %s in all\n",
		b.workload, b.seed, ph.attempted, ph.failed, ph.busy.Round(time.Millisecond), len(setups), spent.Round(time.Millisecond))
	printMetrics(os.Stdout, e2e)
	// p99 is printed but is not a BENCHMARK.json metric: from run to
	// run it follows the host's worst seconds more than the program
	// (over repeated 25 s runs its quartile spread reached 0.35 of the
	// median on warm-mix and 0.96 on store-hit).
	fmt.Printf("  %-32s %14.6g ms (%d ops; not gated)\n", "op_p99_ms", quantile(append([]float64(nil), ph.latMS...), 0.99), len(ph.latMS))
	if !b.trace {
		res.Metrics = e2e
		return res, nil
	}

	tr := newTracer()
	if err := s.replay(ctx, tr, b.seconds, replayOps[b.workload]); err != nil {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: traced replay: %v\n", err)
	}
	spans := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.workload, b.seed))
	if err := tr.writeSpans(spans); err != nil {
		return nil, err
	}
	res.Metrics = perLayer(ph, c, tr, e2e["op_p50_ms"].Value)
	printLadder(os.Stdout, b.workload, tr, res.Metrics, e2e["op_p50_ms"].Value, spans)
	printMetrics(os.Stdout, res.Metrics)
	return res, nil
}

// endToEnd derives the metrics a user of the stack sees.
func endToEnd(ph *phase, setup float64) map[string]metric {
	ok := float64(len(ph.latMS))
	lat := append([]float64(nil), ph.latMS...)
	m := ph.mem
	return map[string]metric{
		"setup_s":         {setup, "s"},
		"op_p50_ms":       {quantile(lat, 0.50), "ms"},
		"op_p90_ms":       {quantile(lat, 0.90), "ms"},
		"ops_per_s":       {ok / ph.busy.Seconds(), "1/s"},
		"ok_frac":         {ok / float64(ph.attempted), "frac"},
		"alloc_kb_per_op": {m.delta[mAllocBytes] / 1024 / ok, "KiB"},
		"allocs_per_op":   {m.delta[mAllocObjects] / ok, "count"},
		"heap_peak_mb":    {float64(m.peakHeap.Load()) / (1 << 20), "MiB"},
	}
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// hostInfo describes the machine next to every result.
func hostInfo() string {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	info, _ := json.Marshal(map[string]any{
		"godebug":    os.Getenv("GODEBUG"),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"gogc":       gogc,
		"go":         runtime.Version(),
		"cpu":        cpu,
		"transport":  "loopback TCP (127.0.0.1) between every layer",
	})
	return string(info)
}
