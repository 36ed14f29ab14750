package main

import (
	"context"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Runtime metrics the meter accumulates while it is on.
const (
	mAllocBytes = iota
	mAllocObjects
	mGCCycles
	mGCCPU
	mTotalCPU
	mPauses
	mCount
)

var meterNames = [mCount]string{
	mAllocBytes:   "/gc/heap/allocs:bytes",
	mAllocObjects: "/gc/heap/allocs:objects",
	mGCCycles:     "/gc/cycles/total:gc-cycles",
	mGCCPU:        "/cpu/classes/gc/total:cpu-seconds",
	mTotalCPU:     "/cpu/classes/total:cpu-seconds",
	mPauses:       "/sched/pauses/total/gc:seconds",
}

const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

// heapSampleEvery is the peak-heap sampling period while the meter is
// on: short next to one GC cycle of the warm workloads, cheap next to
// one op.
const heapSampleEvery = 5 * time.Millisecond

// meter measures the whole process (stack and load generator alike) over the
// intervals between on and off: heap allocation, GC work and pauses,
// busy wall time, and the peak heap in use, sampled.
type meter struct {
	samples  []metrics.Sample
	since    time.Time
	busy     time.Duration
	delta    [mCount]float64
	pauses   []uint64  // GC pause histogram counts accumulated
	buckets  []float64 // its bucket boundaries
	active   atomic.Bool
	peakHeap atomic.Uint64

	stop chan struct{}
	done chan struct{}
}

func newMeter() *meter {
	m := &meter{samples: make([]metrics.Sample, mCount), stop: make(chan struct{}), done: make(chan struct{})}
	for i, name := range meterNames {
		m.samples[i].Name = name
	}
	go m.sampleHeap()
	return m
}

// sampleHeap records the largest heap-in-use reading taken while the
// meter is on, until close.
func (m *meter) sampleHeap() {
	defer close(m.done)
	s := []metrics.Sample{{Name: heapObjectsMetric}}
	t := time.NewTicker(heapSampleEvery)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			if !m.active.Load() {
				continue
			}
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > m.peakHeap.Load() {
				m.peakHeap.Store(v)
			}
		}
	}
}

func (m *meter) close() {
	close(m.stop)
	<-m.done
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

func (m *meter) on() {
	metrics.Read(m.samples)
	m.active.Store(true)
	m.since = time.Now()
}

func (m *meter) off() {
	m.busy += time.Since(m.since)
	m.active.Store(false)
	before := make([]metrics.Sample, len(m.samples))
	copy(before, m.samples)
	h0 := before[mPauses].Value.Float64Histogram()
	counts0 := append([]uint64(nil), h0.Counts...)
	metrics.Read(m.samples)
	for i := range m.samples {
		if i == mPauses {
			continue
		}
		m.delta[i] += sampleValue(m.samples[i]) - sampleValue(before[i])
	}
	h := m.samples[mPauses].Value.Float64Histogram()
	if m.pauses == nil {
		m.pauses = make([]uint64, len(h.Counts))
		m.buckets = append([]float64(nil), h.Buckets...)
	}
	for i := range h.Counts {
		m.pauses[i] += h.Counts[i] - counts0[i]
	}
}

// medianPause is the median GC stop-the-world pause over the metered
// intervals, from the runtime's pause histogram (bucket midpoints).
func (m *meter) medianPause() time.Duration {
	var n uint64
	for _, c := range m.pauses {
		n += c
	}
	if n == 0 {
		return 0
	}
	var seen uint64
	for i, c := range m.pauses {
		seen += c
		if seen*2 >= n {
			lo, hi := m.buckets[i], m.buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			return time.Duration((lo + hi) / 2 * float64(time.Second))
		}
	}
	return 0
}

// phase is one timed closed-loop phase's outcome.
type phase struct {
	latMS     []float64 // completed, correct ops
	attempted int
	failed    int
	busy      time.Duration // metered wall time
	mem       *meter
	firstErr  error
	exhausted bool // the pre-generated op pool ran out before time did
}

func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// closedLoop runs clients concurrent closed-loop clients for d: each
// sends its next op only when the previous one completed. next
// returns the client's next op, or nil when the op pool is exhausted.
// The meter is on for the whole loop.
func closedLoop(ctx context.Context, st *stack, hcs []*httpClient, d time.Duration, m *meter, next func(client int) *op) *phase {
	ph := &phase{mem: m}
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	m.on()
	for c := range hcs {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat := make([]float64, 0, 1<<14)
			var errs []error
			exhausted := false
			for time.Now().Before(deadline) {
				o := next(c)
				if o == nil {
					exhausted = true
					break
				}
				dur, err := hcs[c].do(ctx, st.url, o)
				if err != nil {
					errs = append(errs, err)
					continue
				}
				lat = append(lat, float64(dur)/float64(time.Millisecond))
			}
			mu.Lock()
			ph.latMS = append(ph.latMS, lat...)
			ph.attempted += len(lat) + len(errs)
			for _, err := range errs {
				ph.fail(err)
			}
			ph.exhausted = ph.exhausted || exhausted
			mu.Unlock()
		}()
	}
	wg.Wait()
	m.off()
	ph.busy = m.busy
	return ph
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
