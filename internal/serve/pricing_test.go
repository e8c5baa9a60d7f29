package serve

import (
	"math"
	"testing"
	"time"

	"rtmap/internal/sim"
)

// An unsharded model runs as a one-stage pipeline, and that stage's
// price must be the whole-model batch cost model's: every result of an
// n-item batch reports sim.AnalyzeBatch(report, n) and no stage count or
// device path.
func TestUnshardedBatchPricedByAnalyzeBatch(t *testing.T) {
	s := New(Options{Devices: 2, MaxBatch: 8, Window: time.Millisecond, Logf: t.Logf})
	defer func() {
		if err := s.Shutdown(t.Context()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	e, err := s.Registry().Get(Spec{Model: "tinycnn", ActBits: 4, Sparsity: 0.8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Abs(want) }
	for _, n := range []int{1, 3, 8} {
		want := sim.AnalyzeBatch(e.report, n)
		items := makeItems(t, "tinycnn", n, uint64(300+n))
		s.fleet.Submit(newAPBatch(e, items))
		for i, it := range items {
			res := <-it.res
			if res.err != nil {
				t.Fatalf("n=%d item %d: %v", n, i, res.err)
			}
			info := res.info
			if info.Size != n {
				t.Errorf("n=%d item %d: batch size %d", n, i, info.Size)
			}
			if !near(info.SimLatencyNS, want.LatencyNS) {
				t.Errorf("n=%d item %d: SimLatencyNS %g, AnalyzeBatch %g", n, i, info.SimLatencyNS, want.LatencyNS)
			}
			if !near(info.SimEnergyPJ, want.EnergyPJ) {
				t.Errorf("n=%d item %d: SimEnergyPJ %g, AnalyzeBatch %g", n, i, info.SimEnergyPJ, want.EnergyPJ)
			}
			if info.Stages != 0 || info.Path != nil {
				t.Errorf("n=%d item %d: unsharded result reports stages %d, path %v", n, i, info.Stages, info.Path)
			}
		}
	}
}
