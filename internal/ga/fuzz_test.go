package ga

import (
	"testing"

	"nautilus/internal/dataset"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
)

// FuzzResumeSnapshot throws arbitrary resume state at the engine: whatever
// a decoded checkpoint claims, RunContext must either reject it with an
// error or resume into a clean, deterministic run - never panic, never
// hang replaying a fabricated RNG draw count, never produce impossible
// accounting.
func FuzzResumeSnapshot(f *testing.F) {
	f.Add(int64(3), 2, int64(50), []byte{0, 1, 2, 0, 3, 1, 1, 2}, true)
	f.Add(int64(9), 0, int64(0), []byte{0, 0, 0, 0, 0, 0, 0, 0}, false)    // wrong seed
	f.Add(int64(3), 99, int64(50), []byte{0, 1, 2, 0, 3, 1, 1, 2}, true)   // generation out of range
	f.Add(int64(3), 2, int64(-5), []byte{0, 1, 2, 0, 3, 1, 1, 2}, true)    // negative draws
	f.Add(int64(3), 2, int64(1<<60), []byte{0, 1, 2, 0, 3, 1, 1, 2}, true) // fabricated draw count
	f.Add(int64(3), 2, int64(50), []byte{0, 99, 2, 0, 3, 1, 1, 2}, true)   // out-of-range gene
	f.Add(int64(3), 2, int64(50), []byte{0, 1}, true)                      // short population

	f.Fuzz(func(t *testing.T, seed int64, gen int, draws int64, popBytes []byte, withBest bool) {
		space, err := param.NewSpace(
			param.Int("a", 0, 3, 1),
			param.Choice("b", "x", "y", "z"),
		)
		if err != nil {
			t.Fatal(err)
		}
		eval := func(pt param.Point) (metrics.Metrics, error) {
			return metrics.Metrics{metrics.LUTs: float64(pt[0]*3 + pt[1] + 1)}, nil
		}
		cfg := Config{PopulationSize: 4, Generations: 6, Seed: 3}

		// Rebuild a population from the raw bytes without sanitizing - the
		// engine's validation is exactly what is under test.
		pop := make([]param.Point, len(popBytes)/2)
		for i := range pop {
			pop[i] = param.Point{int(popBytes[2*i]), int(popBytes[2*i+1])}
		}
		snap := &Snapshot{
			Seed:       seed,
			Generation: gen,
			Draws:      draws,
			Population: pop,
			Stale:      0,
			PrevBest:   -1,
		}
		if withBest && len(pop) > 0 {
			snap.Best = pop[0]
			snap.BestFitness = -5
			snap.BestValue = 5
		}

		run := func() (Result, error) {
			c := cfg
			c.Resume = snap
			eng, err := NewContext(space, metrics.MinimizeMetric(metrics.LUTs), dataset.AdaptContext(eval), c, nil)
			if err != nil {
				t.Fatalf("engine construction failed: %v", err)
			}
			return eng.RunContext(t.Context())
		}
		res, err := run()
		if err != nil {
			return // rejected resume state: the safe outcome
		}
		// Accepted: the run must have completed with coherent accounting.
		if res.Interrupted {
			t.Fatal("uncanceled resumed run reported interruption")
		}
		if res.DistinctEvals < 0 || res.Cache.Distinct < 0 || res.Cache.Total < res.Cache.Distinct {
			t.Fatalf("impossible accounting after resume: %+v", res.Cache)
		}
		if len(res.Trajectory) == 0 {
			t.Fatal("resumed run produced no trajectory")
		}
		if res.BestPoint != nil {
			if verr := space.Validate(res.BestPoint); verr != nil {
				t.Fatalf("resumed run returned invalid best point: %v", verr)
			}
		}
		// And deterministically: resuming the same snapshot twice is
		// byte-identical (a resume that silently depends on hidden state
		// would diverge here).
		res2, err := run()
		if err != nil {
			t.Fatalf("second resume of accepted snapshot failed: %v", err)
		}
		if res2.BestValue != res.BestValue || res2.DistinctEvals != res.DistinctEvals ||
			len(res2.Trajectory) != len(res.Trajectory) {
			t.Fatalf("resume not deterministic: %v/%d vs %v/%d",
				res.BestValue, res.DistinctEvals, res2.BestValue, res2.DistinctEvals)
		}
	})
}
