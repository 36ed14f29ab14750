package opusnet

import (
	"photonrail/internal/telemetry"
)

// RegisterStatsMetrics mirrors a CacheStatsPayload producer into reg
// as sampled Prometheus metrics under the given prefix ("raild",
// "railfleet"). One OnScrape hook calls stats() per scrape and copies
// the payload into the registered series, so a `/metrics` scrape and a
// `stats_resp` frame taken from the same quiescent process report
// exactly the same numbers — the endpoint is a second view of the
// existing telemetry, not a second bookkeeping of it, and the framed
// stats protocol keeps working unchanged.
//
// Registered families (the backend ones render only when the payload
// carries per-backend health, i.e. on a fleet coordinator):
//
//	{prefix}_cache_hits_total / _misses_total / _evictions_total
//	{prefix}_cache_inflight
//	{prefix}_exps_executed_total / _deduped_total
//	{prefix}_cells_executed_total / _deduped_total
//	{prefix}_stage_hits_total{stage=...} / _stage_misses_total{stage=...}
//	{prefix}_backend_cells_total{backend=...}
//	{prefix}_backend_failures_total{backend=...}
//	{prefix}_backend_healthy{backend=...}
func RegisterStatsMetrics(reg *telemetry.Registry, prefix string, stats func() CacheStatsPayload) {
	cacheHits := reg.Counter(prefix+"_cache_hits_total", "Memo-cache hits, as reported in stats_resp.")
	cacheMisses := reg.Counter(prefix+"_cache_misses_total", "Memo-cache misses (computations run), as reported in stats_resp.")
	cacheEvictions := reg.Counter(prefix+"_cache_evictions_total", "Memo-cache LRU evictions, as reported in stats_resp.")
	cacheInflight := reg.Gauge(prefix+"_cache_inflight", "Simulations currently computing, as reported in stats_resp.")
	expsExecuted := reg.Counter(prefix+"_exps_executed_total", "Experiment executions started.")
	expsDeduped := reg.Counter(prefix+"_exps_deduped_total", "Experiment requests coalesced onto an identical in-flight execution.")
	cellsExecuted := reg.Counter(prefix+"_cells_executed_total", "Grid cells executed through the cells_req subset path.")
	cellsDeduped := reg.Counter(prefix+"_cells_deduped_total", "Cell-subset requests coalesced onto an identical in-flight execution.")
	stageHits := reg.CounterVec(prefix+"_stage_hits_total", "Staged-pipeline cache hits by stage.", "stage")
	stageMisses := reg.CounterVec(prefix+"_stage_misses_total", "Staged-pipeline cache misses by stage.", "stage")
	backendCells := reg.CounterVec(prefix+"_backend_cells_total", "Grid cells executed per fleet backend (coordinator view).", "backend")
	backendFailures := reg.CounterVec(prefix+"_backend_failures_total", "Mid-request failures per fleet backend (coordinator view).", "backend")
	backendHealthy := reg.GaugeVec(prefix+"_backend_healthy", "Fleet backend health: 1 healthy, 0 unreachable or failed.", "backend")
	reg.OnScrape(func() {
		st := stats()
		cacheHits.Set(st.Hits)
		cacheMisses.Set(st.Misses)
		cacheEvictions.Set(st.Evictions)
		cacheInflight.Set(float64(st.InFlight))
		expsExecuted.Set(st.ExpsExecuted)
		expsDeduped.Set(st.ExpsDeduped)
		cellsExecuted.Set(st.CellsExecuted)
		cellsDeduped.Set(st.CellsDeduped)
		stageHits.With("build").Set(st.BuildHits)
		stageMisses.With("build").Set(st.BuildMisses)
		stageHits.With("provision").Set(st.ProvisionHits)
		stageMisses.With("provision").Set(st.ProvisionMisses)
		stageHits.With("time").Set(st.TimeHits)
		stageMisses.With("time").Set(st.TimeMisses)
		stageHits.With("seed").Set(st.SeedHits)
		stageMisses.With("seed").Set(st.SeedMisses)
		for _, b := range st.Backends {
			backendCells.With(b.Addr).Set(b.Cells)
			backendFailures.With(b.Addr).Set(b.Failures)
			healthy := 0.0
			if b.Healthy {
				healthy = 1
			}
			backendHealthy.With(b.Addr).Set(healthy)
		}
	})
}
