package main

import (
	"bytes"
	"fmt"
	"strings"

	"photonrail/internal/opusnet"
	"photonrail/internal/resultstore"
	"photonrail/internal/telemetry"
)

// counters are the layers' own counters (Server.Stats,
// Coordinator.Stats, Store.Stats, the gateway's and coordinator's
// /metrics) over an interval: totals as deltas, sizes as of its end.
type counters struct {
	eng        opusnet.CacheStatsPayload // the raild daemons, summed
	fleetExps  uint64                    // exp_req the coordinator executed
	fleetDedup uint64                    // exp_req it coalesced
	fleetCells []float64                 // cells the coordinator sent each backend
	failovers  float64
	rejected   float64
	store      resultstore.Stats
	queueWait  []float64 // ms from admission to slot grant, per slotted gateway request
}

// engineFields lists the summable counters of a stats payload.
func engineFields(p *opusnet.CacheStatsPayload) []*uint64 {
	return []*uint64{
		&p.Hits, &p.Misses, &p.Evictions, &p.GridsExecuted, &p.GridsDeduped,
		&p.ExpsExecuted, &p.ExpsDeduped, &p.CellsExecuted, &p.CellsDeduped,
		&p.BuildHits, &p.BuildMisses, &p.ProvisionHits, &p.ProvisionMisses,
		&p.TimeHits, &p.TimeMisses, &p.SeedHits, &p.SeedMisses,
	}
}

// snapshot reads every layer's counters now.
func snapshot(st *stack) counters {
	var c counters
	dst := engineFields(&c.eng)
	for _, b := range st.backends {
		s := b.Stats()
		for i, f := range engineFields(&s) {
			*dst[i] += *f
		}
	}
	fs := st.fleet.Stats()
	c.fleetExps, c.fleetDedup = fs.ExpsExecuted, fs.ExpsDeduped
	for _, b := range fs.Backends {
		c.fleetCells = append(c.fleetCells, float64(b.Cells))
	}
	c.failovers = scrape(st.fleet.Telemetry(), "railfleet_failovers_total")
	c.rejected = scrape(st.gate.Telemetry(), "railgate_rejected_total")
	if st.store != nil {
		c.store = st.store.Stats()
	}
	return c
}

// scrape sums every series of one metric family from a /metrics
// rendering.
func scrape(set *telemetry.Set, family string) float64 {
	var buf bytes.Buffer
	if err := set.Metrics.Render(&buf); err != nil {
		return 0
	}
	samples, err := telemetry.ParseSamples(&buf)
	if err != nil {
		return 0
	}
	var sum float64
	for name, v := range samples {
		if name == family || strings.HasPrefix(name, family+"{") {
			sum += v
		}
	}
	return sum
}

// since returns the counters accumulated from prev to c.
func (c counters) since(prev counters) counters {
	d := c
	cur, old := engineFields(&d.eng), engineFields(&prev.eng)
	for i := range cur {
		*cur[i] -= *old[i]
	}
	d.fleetExps -= prev.fleetExps
	d.fleetDedup -= prev.fleetDedup
	d.fleetCells = append([]float64(nil), c.fleetCells...)
	for i := range d.fleetCells {
		if i < len(prev.fleetCells) {
			d.fleetCells[i] -= prev.fleetCells[i]
		}
	}
	d.failovers -= prev.failovers
	d.rejected -= prev.rejected
	d.store.Hits -= prev.store.Hits
	d.store.Misses -= prev.store.Misses
	d.store.Puts -= prev.store.Puts
	d.store.Evictions -= prev.store.Evictions
	d.store.Errors -= prev.store.Errors
	return d
}

// add folds another interval's counters into c (sizes take d's).
func (c *counters) add(d counters) {
	dst, src := engineFields(&c.eng), engineFields(&d.eng)
	for i := range dst {
		*dst[i] += *src[i]
	}
	c.fleetExps += d.fleetExps
	c.fleetDedup += d.fleetDedup
	for i, v := range d.fleetCells {
		if i >= len(c.fleetCells) {
			c.fleetCells = append(c.fleetCells, 0)
		}
		c.fleetCells[i] += v
	}
	c.failovers += d.failovers
	c.rejected += d.rejected
	c.store.Hits += d.store.Hits
	c.store.Misses += d.store.Misses
	c.store.Puts += d.store.Puts
	c.store.Evictions += d.store.Evictions
	c.store.Errors += d.store.Errors
	c.store.Entries, c.store.Bytes = d.store.Entries, d.store.Bytes
	c.queueWait = append(c.queueWait, d.queueWait...)
}

// queueWatchBuffer is the event backlog a queue watch may fall behind
// by before it misses events.
const queueWatchBuffer = 4096

// queueWatch follows the gateway's event log live over an interval and
// records every request's wait from "submitted" to "started" (slot
// granted), in ms. Store hits take no slot and record no wait.
type queueWatch struct {
	sub   *telemetry.Subscription
	stop  chan struct{}
	done  chan struct{}
	waits []float64
}

func watchQueue(st *stack) *queueWatch {
	q := &queueWatch{sub: st.gate.Telemetry().Events.Subscribe(queueWatchBuffer), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		submitted := make(map[string]int64)
		take := func(ev telemetry.Event) {
			switch ev.Type {
			case "submitted":
				submitted[ev.Req] = ev.Time
			case "started":
				if t0, ok := submitted[ev.Req]; ok {
					q.waits = append(q.waits, float64(ev.Time-t0)/1e6)
					delete(submitted, ev.Req)
				}
			}
		}
		for {
			select {
			case ev := <-q.sub.C():
				take(ev)
			case <-q.stop:
				q.sub.Close()
				for {
					select {
					case ev := <-q.sub.C():
						take(ev)
					default:
						return
					}
				}
			}
		}
	}()
	return q
}

// end stops the watch and returns the waits it saw; it fails if the
// watch fell behind the gateway and missed events.
func (q *queueWatch) end() ([]float64, error) {
	close(q.stop)
	<-q.done
	if n := q.sub.Dropped(); n > 0 {
		return nil, fmt.Errorf("queue-wait watch missed %d gateway events", n)
	}
	return q.waits, nil
}
