package main

import (
	"fmt"
	"io"
	"slices"
	"time"
)

// notSeparable lists what the rung ladder cannot split from outside
// the program; in-program spans are a later change.
var notSeparable = []string{
	"the sim event core (event queue, OCS controller, collectives) runs inside netsim.Run: only whole Build/Time/Provision stage calls are timed",
	"railgate's net/http and fair-queue work versus its handler: only the queue wait is read, from the gateway's event log",
	"for grids, railfleet's cells_req framing versus its merge and rendering",
	"railserve's self time on a grid op is the daemons' cells_req shards minus a local RunGrid of the same grid: on cold-5d both are cold 48-cell simulations (two 1-worker daemons against a fresh 2-worker engine), so it carries the spread of two independent ~400 ms runs, not railserve's own few ms",
	"resultstore lock wait versus file I/O inside one Get or Put",
	"opusnet framing on the live sockets: frames are replayed on memory buffers",
	"GC and scheduler time, which lands in whichever rung is running",
}

// perLayer derives the per-layer metrics: rung medians and self times
// from the traced replay, counters and runtime figures from the
// untraced timed phase.
func perLayer(ph *phase, c counters, tr *tracer, untracedP50 float64) map[string]metric {
	ops := float64(len(ph.latMS))
	R := tr.med
	cnt := func(name string) float64 { return median(tr.counts[name]) }
	lad := ladderOf(tr)
	e := c.eng
	hit := func(h, m uint64) float64 { return ratio(float64(h), float64(h+m)) }
	maxCells, sumCells := 0.0, 0.0
	for _, v := range c.fleetCells {
		maxCells = max(maxCells, v)
		sumCells += v
	}
	var perEntry float64
	if c.store.Entries > 0 {
		perEntry = float64(c.store.Bytes) / float64(c.store.Entries)
	}
	return map[string]metric{
		"workload.build_ms":     {R(rBuild), "ms"},
		"workload.programs":     {cnt(nPrograms), "count"},
		"workload.tasks":        {cnt(nTasks), "count"},
		"netsim.time_ms":        {R(rTime), "ms"},
		"netsim.time_runs":      {cnt(nTimeRuns), "count"},
		"netsim.provision_ms":   {R(rProvision), "ms"},
		"netsim.provision_runs": {cnt(nProvisionRun), "count"},
		"netsim.ns_per_task":    {ratio(R(rTime)*1e6, cnt(nTimeTasks)), "ns"},

		"exp.hit_ratio":           {hit(e.Hits, e.Misses), "ratio"},
		"exp.build_hit_ratio":     {hit(e.BuildHits, e.BuildMisses), "ratio"},
		"exp.time_hit_ratio":      {hit(e.TimeHits, e.TimeMisses), "ratio"},
		"exp.provision_hit_ratio": {hit(e.ProvisionHits, e.ProvisionMisses), "ratio"},
		"exp.seed_hit_ratio":      {hit(e.SeedHits, e.SeedMisses), "ratio"},
		"exp.evictions":           {float64(e.Evictions), "count"},
		"exp.self_ms":             {lad.exp, "ms"},

		"photonrail.key_us":         {R(rKey) * 1e3, "us"},
		"photonrail.run_ms":         {R(rRun), "ms"},
		"photonrail.render_text_ms": {R(rRenderText), "ms"},
		"photonrail.render_csv_ms":  {R(rRenderCSV), "ms"},
		"photonrail.render_json_ms": {R(rRenderJSON), "ms"},
		"photonrail.self_ms":        {lad.photonrail, "ms"},

		"opusnet.encode_us": {R(rEncode) * 1e3, "us"},
		"opusnet.decode_us": {R(rDecode) * 1e3, "us"},
		"opusnet.frame_kb":  {cnt(nFrameBytes) / 1024, "KiB"},

		"railserve.rtt_ms":        {R(rRailserve), "ms"},
		"railserve.self_ms":       {lad.railserve, "ms"},
		"railserve.exps_executed": {float64(e.ExpsExecuted) / ops, "1/op"},
		"railserve.exps_deduped":  {float64(e.ExpsDeduped) / ops, "1/op"},

		"railfleet.rtt_ms":                {R(rRailfleet), "ms"},
		"railfleet.self_ms":               {lad.railfleet, "ms"},
		"railfleet.max_backend_cell_frac": {ratio(maxCells, sumCells), "ratio"},
		"railfleet.failovers":             {c.failovers, "count"},

		"railgate.rtt_ms":        {R(rRailgate), "ms"},
		"railgate.self_ms":       {lad.railgate, "ms"},
		"railgate.queue_wait_ms": {median(c.queueWait), "ms"},
		"railgate.rejected":      {c.rejected, "count"},

		"resultstore.get_us":    {R(rStoreGet) * 1e3, "us"},
		"resultstore.put_us":    {R(rStorePut) * 1e3, "us"},
		"resultstore.hit_ratio": {hit(c.store.Hits, c.store.Misses), "ratio"},
		"resultstore.bytes":     {perEntry, "B/entry"},

		"go.gc_cycles_per_op": {ph.mem.delta[mGCCycles] / ops, "1/op"},
		"go.gc_cpu_frac":      {ratio(ph.mem.delta[mGCCPU], ph.mem.delta[mTotalCPU]), "frac"},
		"go.gc_pause_ms":      {float64(ph.mem.medianPause()) / float64(time.Millisecond), "ms"},

		"trace.ops":           {float64(tr.ops), "count"},
		"trace.overhead_frac": {ratio(R(rRailgate)-untracedP50, untracedP50), "frac"},
	}
}

// ladder holds each layer's self time: the median over replayed ops
// of the op's own rung minus the rungs directly inside it for that kind
// of op. A layer the workload never crosses reads 0.
type ladder struct {
	railgate, railfleet, railserve, photonrail, exp float64
}

func ladderOf(tr *tracer) ladder {
	// self sums an op's outer rungs and takes away its inner ones; ops
	// that crossed none of the outer rungs are left out.
	self := func(outer []string, inner func(grid bool) []string) float64 {
		var v []float64
		for id, d := range tr.byOp {
			x, crossed := 0.0, false
			for _, n := range outer {
				if ms, ok := d[n]; ok {
					x, crossed = x+ms, true
				}
			}
			if !crossed {
				continue
			}
			for _, n := range inner(tr.grid[id]) {
				x -= d[n]
			}
			v = append(v, x)
		}
		return median(v)
	}
	fixed := func(names ...string) func(bool) []string { return func(bool) []string { return names } }
	photon := []string{rKey, rRun, rRenderText, rRenderCSV, rRenderJSON}
	return ladder{
		// railgate ⊃ railfleet + resultstore + its own key derivation
		railgate:  self([]string{rRailgate}, fixed(rRailfleet, rStoreGet, rStorePut, rKey)),
		railfleet: self([]string{rRailfleet}, fixed(rRailserve)),
		// a daemon serves a non-grid op through opusnet framing and
		// photonrail (key, run, three renders); a grid's cells_req
		// shards reach only the exp memo, never the registry or a renderer
		railserve: self([]string{rRailserve}, func(grid bool) []string {
			if grid {
				return []string{rExp}
			}
			return append([]string{rEncode, rDecode}, photon...)
		}),
		photonrail: self(photon, fixed(rExp)),
		exp:        self([]string{rExp}, fixed(rBuild, rTime, rProvision)),
	}
}

// printLadder writes the traced run's report: each rung's median, each
// layer's self time, the tracing overhead, what stays inseparable.
func printLadder(w io.Writer, workload string, tr *tracer, pl map[string]metric, untracedP50 float64, spans string) {
	fmt.Fprintf(w, "perfbench %s traced replay: %d ops, spans in %s\n", workload, tr.ops, spans)
	fmt.Fprintf(w, "  %-24s %6s %12s\n", "rung", "n", "median_ms")
	names := make([]string, 0, len(tr.rungs))
	for n := range tr.rungs {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-24s %6d %12.4f\n", n, len(tr.rungs[n]), tr.med(n))
	}
	lad := ladderOf(tr)
	fmt.Fprintf(w, "  self time (ms): railgate %.4f  railfleet %.4f  railserve %.4f  photonrail %.4f  exp %.4f  workload %.4f  netsim %.4f\n",
		lad.railgate, lad.railfleet, lad.railserve, lad.photonrail, lad.exp, tr.med(rBuild), tr.med(rTime)+tr.med(rProvision))
	fmt.Fprintf(w, "  tracing overhead: traced railgate median %.4f ms vs untraced op_p50 %.4f ms (%+.2f%%)\n",
		tr.med(rRailgate), untracedP50, 100*pl["trace.overhead_frac"].Value)
	fmt.Fprintln(w, "  not separable from outside:")
	for _, s := range notSeparable {
		fmt.Fprintf(w, "    - %s\n", s)
	}
}
