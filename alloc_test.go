package photonrail

import (
	"context"
	"testing"
)

// Allocation guards: the ceilings sit about 20% over the measured
// counts, so a cache-key path that starts formatting or reflecting
// again fails here rather than only in the benchmark.
const (
	maxExperimentKeyAllocs = 1
	maxWarmFig8RunAllocs   = 390
)

func TestExperimentKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	p := Params{LatenciesMS: PaperLatenciesMS()}
	n := testing.AllocsPerRun(100, func() { _ = ExperimentKey("fig8", p) })
	t.Logf("ExperimentKey(fig8): %.1f allocs/op", n)
	if n > maxExperimentKeyAllocs {
		t.Fatalf("ExperimentKey(fig8) = %.1f allocs/op, ceiling %d", n, maxExperimentKeyAllocs)
	}
}

func TestWarmFig8RunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	e, _ := Lookup("fig8")
	en := NewEngine(1)
	ctx := context.Background()
	run := func() {
		if _, err := e.Run(ctx, en, Params{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // fill the simulation memo
	n := testing.AllocsPerRun(20, run)
	t.Logf("warm fig8 Experiment.Run: %.1f allocs/op", n)
	if n > maxWarmFig8RunAllocs {
		t.Fatalf("warm fig8 Experiment.Run = %.1f allocs/op, ceiling %d", n, maxWarmFig8RunAllocs)
	}
}
