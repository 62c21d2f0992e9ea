package core_test

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"nautilus/internal/catalog"
	"nautilus/internal/core"
	"nautilus/internal/ga"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
)

// TestSharedGuidanceConcurrentSearches shares one compiled Guidance across
// concurrent scalar, pareto and portfolio searches. Each engine steers
// with its own copy, so every result equals its solo run and the shared
// guidance is never written (CI runs this under -race).
func TestSharedGuidanceConcurrentSearches(t *testing.T) {
	luts, err := catalog.Lookup("fft", "min-luts")
	if err != nil {
		t.Fatal(err)
	}
	tput, err := catalog.Lookup("fft", "max-throughput")
	if err != nil {
		t.Fatal(err)
	}
	g, err := luts.Guidance(catalog.GuidanceStrong, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := g.Describe()
	cfg := ga.Config{PopulationSize: 10, Generations: 20, Seed: 4}
	reqs := []core.SearchRequest{
		{Space: luts.Space, Mode: core.ModeScalar, Objective: luts.Objective, Evaluate: luts.Eval, Config: cfg},
		{Space: luts.Space, Mode: core.ModePareto, Objectives: []metrics.Objective{luts.Objective, tput.Objective}, Evaluate: luts.Eval, Config: cfg},
		{Space: luts.Space, Mode: core.ModePortfolio, Objective: luts.Objective, Evaluate: luts.Eval, Config: cfg},
	}
	search := func(req core.SearchRequest) (ga.Result, error) {
		return core.Search(context.Background(), req, core.WithGuidance(g))
	}
	solo := make([]ga.Result, len(reqs))
	for i, req := range reqs {
		if solo[i], err = search(req); err != nil {
			t.Fatal(err)
		}
	}

	got := make([]ga.Result, 2*len(reqs))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = search(reqs[i%len(reqs)])
		}(i)
	}
	wg.Wait()
	for i := range got {
		req := reqs[i%len(reqs)]
		if errs[i] != nil {
			t.Fatalf("%s search: %v", req.Mode, errs[i])
		}
		if !reflect.DeepEqual(got[i], solo[i%len(reqs)]) {
			t.Errorf("%s search under a shared guidance differs from its solo run", req.Mode)
		}
	}
	if after := g.Describe(); after != before {
		t.Errorf("shared guidance changed:\n%s\nwant\n%s", after, before)
	}
}

// TestGuidedMutationGenesAllocs pins the per-engine scratch: within a
// generation, an engine's guidance copy picks genes into the engine's
// buffer without allocating.
func TestGuidedMutationGenesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts only hold in non-race builds")
	}
	e, err := catalog.Lookup("fft", "min-luts")
	if err != nil {
		t.Fatal(err)
	}
	g, err := e.Guidance(catalog.GuidanceStrong, nil)
	if err != nil {
		t.Fatal(err)
	}
	engine := g.WithTracer(nil)
	r := rand.New(rand.NewSource(1))
	genome := make(param.Point, e.Space.Len())
	buf := engine.MutationGenes(r, 3, genome, 1, nil)
	if avg := testing.AllocsPerRun(200, func() {
		buf = engine.MutationGenes(r, 3, genome, 0.5, buf[:0])
	}); avg != 0 {
		t.Errorf("warm guided MutationGenes allocates %.1f times per call, want 0", avg)
	}
}
