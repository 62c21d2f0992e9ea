package ga

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nautilus/internal/dataset"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
)

// mustRun runs e to completion under a background context, failing the
// test on a run error.
func mustRun(tb testing.TB, e *Engine) Result {
	tb.Helper()
	res, err := e.RunContext(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// quadSpace is a 4-parameter space whose cost has a unique global minimum
// at a known point, with gentle curvature - easy for a GA, good for tests.
func quadSpace() (*param.Space, func(param.Point) (metrics.Metrics, error)) {
	s := param.MustSpace(
		param.Int("w", 0, 15, 1),
		param.Int("x", 0, 15, 1),
		param.Int("y", 0, 15, 1),
		param.Int("z", 0, 15, 1),
	)
	target := []int{3, 12, 7, 9}
	eval := func(pt param.Point) (metrics.Metrics, error) {
		cost := 1.0
		for i, tv := range target {
			d := float64(pt[i] - tv)
			cost += d * d
		}
		return metrics.Metrics{"cost": cost}, nil
	}
	return s, eval
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.PopulationSize != 10 || c.Generations != 80 || c.MutationRate != 0.1 {
		t.Errorf("paper defaults wrong: %+v", c)
	}
	if c.Elitism != 1 || c.TournamentSize != 2 || c.Parallelism != 1 {
		t.Errorf("defaults wrong: %+v", c)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{PopulationSize: 1, Generations: 5, MutationRate: 0.1, CrossoverRate: 0.5, TournamentSize: 1, Elitism: 0, Parallelism: 1},
		{PopulationSize: 10, Generations: -1, MutationRate: 0.1, CrossoverRate: 0.5, TournamentSize: 1, Elitism: 0, Parallelism: 1},
		{PopulationSize: 10, Generations: 5, MutationRate: 1.5, CrossoverRate: 0.5, TournamentSize: 1, Elitism: 0, Parallelism: 1},
		{PopulationSize: 10, Generations: 5, MutationRate: 0.1, CrossoverRate: -0.2, TournamentSize: 1, Elitism: 0, Parallelism: 1},
		{PopulationSize: 10, Generations: 5, MutationRate: 0.1, CrossoverRate: 0.5, TournamentSize: 11, Elitism: 0, Parallelism: 1},
		{PopulationSize: 10, Generations: 5, MutationRate: 0.1, CrossoverRate: 0.5, TournamentSize: 2, Elitism: 10, Parallelism: 1},
	}
	for i, c := range bad {
		if err := c.validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, c)
		}
	}
	s, eval := quadSpace()
	if _, err := NewContext(nil, metrics.MinimizeMetric("cost"), dataset.AdaptContext(eval), Config{}, nil); err == nil {
		t.Error("NewContext(nil space) should fail")
	}
	if _, err := NewContext(s, metrics.MinimizeMetric("cost"), nil, Config{}, nil); err == nil {
		t.Error("NewContext(nil evaluator) should fail")
	}
}

func TestRunFindsOptimum(t *testing.T) {
	s, eval := quadSpace()
	e, err := NewContext(s, metrics.MinimizeMetric("cost"), dataset.AdaptContext(eval), Config{Seed: 42, Generations: 120}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, e)
	if res.BestPoint == nil {
		t.Fatal("no feasible point found")
	}
	if res.BestValue > 3 {
		t.Errorf("best cost %v, want near-optimal (1)", res.BestValue)
	}
}

func TestRunDeterministic(t *testing.T) {
	s, eval := quadSpace()
	mk := func() Result {
		e, _ := NewContext(s, metrics.MinimizeMetric("cost"), dataset.AdaptContext(eval), Config{Seed: 7}, nil)
		return mustRun(t, e)
	}
	a, b := mk(), mk()
	if a.BestValue != b.BestValue || a.DistinctEvals != b.DistinctEvals {
		t.Fatalf("same seed diverged: %v/%d vs %v/%d", a.BestValue, a.DistinctEvals, b.BestValue, b.DistinctEvals)
	}
	if len(a.Trajectory) != len(b.Trajectory) {
		t.Fatal("trajectory lengths differ")
	}
	for i := range a.Trajectory {
		if a.Trajectory[i] != b.Trajectory[i] {
			t.Fatalf("trajectory diverges at %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	s, eval := quadSpace()
	run := func(seed int64) Result {
		e, _ := NewContext(s, metrics.MinimizeMetric("cost"), dataset.AdaptContext(eval), Config{Seed: seed, Generations: 3}, nil)
		return mustRun(t, e)
	}
	a, b := run(1), run(2)
	// Initial populations differ, so early trajectories should differ.
	same := true
	for i := range a.Trajectory {
		if i < len(b.Trajectory) && a.Trajectory[i] != b.Trajectory[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical trajectories")
	}
}

func TestTrajectoryShape(t *testing.T) {
	s, eval := quadSpace()
	e, _ := NewContext(s, metrics.MinimizeMetric("cost"), dataset.AdaptContext(eval), Config{Seed: 3, Generations: 20}, nil)
	res := mustRun(t, e)
	if len(res.Trajectory) != 21 {
		t.Fatalf("trajectory has %d points, want 21 (gen 0..20)", len(res.Trajectory))
	}
	prevEvals, prevVal := 0, math.Inf(1)
	for i, gp := range res.Trajectory {
		if gp.Generation != i {
			t.Fatalf("trajectory[%d].Generation = %d", i, gp.Generation)
		}
		if gp.DistinctEvals < prevEvals {
			t.Fatal("distinct evals decreased")
		}
		if gp.BestValue > prevVal {
			t.Fatal("best-so-far got worse (minimization)")
		}
		prevEvals, prevVal = gp.DistinctEvals, gp.BestValue
	}
	if res.Trajectory[0].DistinctEvals > e.Config().PopulationSize {
		t.Error("generation 0 should cost at most PopulationSize evals")
	}
	if res.DistinctEvals != res.Trajectory[len(res.Trajectory)-1].DistinctEvals {
		t.Error("final DistinctEvals mismatch")
	}
}

func TestDistinctEvalsLessThanTotalWork(t *testing.T) {
	// As the GA converges it revisits genomes; distinct evals must be well
	// below PopulationSize * Generations (the paper relies on this).
	s, eval := quadSpace()
	e, _ := NewContext(s, metrics.MinimizeMetric("cost"), dataset.AdaptContext(eval), Config{Seed: 5, Generations: 80}, nil)
	res := mustRun(t, e)
	totalWork := e.Config().PopulationSize * (e.Config().Generations + 1)
	if res.DistinctEvals >= totalWork/2 {
		t.Errorf("distinct evals %d vs total work %d: cache not reducing cost", res.DistinctEvals, totalWork)
	}
}

func TestInfeasibleRegionsSurvivable(t *testing.T) {
	// Half the space infeasible: GA must still find the optimum.
	s, eval := quadSpace()
	spiky := func(pt param.Point) (metrics.Metrics, error) {
		if pt[0]%2 == 1 {
			return nil, errors.New("infeasible stripe")
		}
		return eval(pt)
	}
	e, _ := NewContext(s, metrics.MinimizeMetric("cost"), dataset.AdaptContext(spiky), Config{Seed: 9, Generations: 100}, nil)
	res := mustRun(t, e)
	if res.BestPoint == nil {
		t.Fatal("no feasible point found in striped space")
	}
	// Optimum with even w: w=2 or 4 (|d|=1), cost 2.
	if res.BestValue > 5 {
		t.Errorf("best cost %v, want <= 5", res.BestValue)
	}
}

func TestAllInfeasibleYieldsNoBest(t *testing.T) {
	s, _ := quadSpace()
	e, _ := NewContext(s, metrics.MinimizeMetric("cost"),
		dataset.AdaptContext(func(param.Point) (metrics.Metrics, error) { return nil, errors.New("nope") }),
		Config{Seed: 1, Generations: 3}, nil)
	res := mustRun(t, e)
	if res.BestPoint != nil {
		t.Error("BestPoint should be nil when nothing is feasible")
	}
	if !math.IsInf(res.BestValue, 1) {
		t.Errorf("BestValue = %v, want +Inf (worst for minimization)", res.BestValue)
	}
}

func TestParallelEvaluationMatchesSerial(t *testing.T) {
	s, eval := quadSpace()
	serial, _ := NewContext(s, metrics.MinimizeMetric("cost"), dataset.AdaptContext(eval), Config{Seed: 11, Parallelism: 1}, nil)
	parallel, _ := NewContext(s, metrics.MinimizeMetric("cost"), dataset.AdaptContext(eval), Config{Seed: 11, Parallelism: 8}, nil)
	a, b := mustRun(t, serial), mustRun(t, parallel)
	if a.BestValue != b.BestValue || a.DistinctEvals != b.DistinctEvals {
		t.Errorf("parallel run diverged: %v/%d vs %v/%d", a.BestValue, a.DistinctEvals, b.BestValue, b.DistinctEvals)
	}
}

func TestMaximizationWorks(t *testing.T) {
	s, eval := quadSpace()
	// Maximize cost: optimum is a corner far from the target.
	e, _ := NewContext(s, metrics.MaximizeMetric("cost"), dataset.AdaptContext(eval), Config{Seed: 13, Generations: 120}, nil)
	res := mustRun(t, e)
	// Max cost = 1 + sum of max squared distances: 12^2+12^2+8^2... compute:
	// w: max(3,12) dist 12 -> 144; x: max(12,3) 12 -> 144; y: 8 -> 64 wait
	// y target 7: max dist = max(7, 15-7=8) = 8 -> 64; z target 9: max(9,6)=9 -> 81.
	want := 1.0 + 144 + 144 + 64 + 81
	if res.BestValue < want*0.9 {
		t.Errorf("max cost %v, want near %v", res.BestValue, want)
	}
}

func TestEvalsToReach(t *testing.T) {
	obj := metrics.MinimizeMetric("cost")
	res := Result{Trajectory: []GenPoint{
		{Generation: 0, DistinctEvals: 10, BestValue: 50},
		{Generation: 1, DistinctEvals: 15, BestValue: 20},
		{Generation: 2, DistinctEvals: 18, BestValue: 5},
	}}
	if got := res.EvalsToReach(obj, 25); got != 15 {
		t.Errorf("EvalsToReach(25) = %d, want 15", got)
	}
	if got := res.EvalsToReach(obj, 5); got != 18 {
		t.Errorf("EvalsToReach(5) = %d, want 18", got)
	}
	if got := res.EvalsToReach(obj, 1); got != -1 {
		t.Errorf("EvalsToReach(1) = %d, want -1", got)
	}
	// Worst-sentinel entries are skipped.
	res2 := Result{Trajectory: []GenPoint{
		{Generation: 0, DistinctEvals: 4, BestValue: math.Inf(1)},
		{Generation: 1, DistinctEvals: 8, BestValue: 30},
	}}
	if got := res2.EvalsToReach(obj, 40); got != 8 {
		t.Errorf("EvalsToReach over sentinel = %d, want 8", got)
	}
}

func TestBaselineMutationGenesRate(t *testing.T) {
	s, _ := quadSpace()
	b := Baseline{Space: s}
	r := rand.New(rand.NewSource(1))
	genome := make(param.Point, s.Len())
	total := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		total += len(b.MutationGenes(r, 0, genome, 0.1, nil))
	}
	mean := float64(total) / trials // expect 0.4 genes per genome
	if mean < 0.35 || mean > 0.45 {
		t.Errorf("mean mutations %v, want ~0.4", mean)
	}
	// rate 0 -> never; rate 1 -> all genes.
	if len(b.MutationGenes(r, 0, genome, 0, nil)) != 0 {
		t.Error("rate 0 should mutate nothing")
	}
	if len(b.MutationGenes(r, 0, genome, 1, nil)) != s.Len() {
		t.Error("rate 1 should mutate every gene")
	}
}

// TestBaselineMutationGenesAllocs pins the engine-owned pick buffer: with
// a warm buffer passed as dst, baseline gene picking allocates nothing.
func TestBaselineMutationGenesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts only hold in non-race builds")
	}
	s, _ := quadSpace()
	b := Baseline{Space: s}
	r := rand.New(rand.NewSource(1))
	genome := make(param.Point, s.Len())
	buf := b.MutationGenes(r, 0, genome, 1, nil)
	if avg := testing.AllocsPerRun(200, func() {
		buf = b.MutationGenes(r, 0, genome, 0.5, buf[:0])
	}); avg != 0 {
		t.Errorf("warm MutationGenes allocates %.1f times per call, want 0", avg)
	}
}

func TestBaselineMutateValueNeverReturnsCurrent(t *testing.T) {
	s, _ := quadSpace()
	b := Baseline{Space: s}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		cur := r.Intn(16)
		if v := b.MutateValue(r, 0, 0, cur); v == cur {
			t.Fatal("mutation returned the current value")
		}
	}
}

func TestBaselineMutateValueUniform(t *testing.T) {
	s, _ := quadSpace()
	b := Baseline{Space: s}
	r := rand.New(rand.NewSource(3))
	counts := make([]int, 16)
	const trials = 30000
	for i := 0; i < trials; i++ {
		counts[b.MutateValue(r, 0, 1, 7)]++
	}
	if counts[7] != 0 {
		t.Fatal("current value drawn")
	}
	for v, c := range counts {
		if v == 7 {
			continue
		}
		frac := float64(c) / trials
		if frac < 0.045 || frac > 0.09 { // expect 1/15 = 0.0667
			t.Errorf("value %d drawn with freq %v, want ~0.067", v, frac)
		}
	}
}

// Property: the GA never produces an invalid genome, for arbitrary seeds.
func TestQuickGenomesAlwaysValid(t *testing.T) {
	s, eval := quadSpace()
	f := func(seed int64) bool {
		valid := true
		checked := func(pt param.Point) (metrics.Metrics, error) {
			if err := s.Validate(pt); err != nil {
				valid = false
			}
			return eval(pt)
		}
		e, err := NewContext(s, metrics.MinimizeMetric("cost"), dataset.AdaptContext(checked), Config{Seed: seed, Generations: 5}, nil)
		if err != nil {
			return false
		}
		mustRun(t, e)
		return valid
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: best-so-far trajectories are monotone under any seed.
func TestQuickTrajectoryMonotone(t *testing.T) {
	s, eval := quadSpace()
	obj := metrics.MinimizeMetric("cost")
	f := func(seed int64) bool {
		e, err := NewContext(s, obj, dataset.AdaptContext(eval), Config{Seed: seed, Generations: 10}, nil)
		if err != nil {
			return false
		}
		res := mustRun(t, e)
		prev := math.Inf(1)
		for _, gp := range res.Trajectory {
			if gp.BestValue > prev {
				return false
			}
			prev = gp.BestValue
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestUniqueGenomesTracked(t *testing.T) {
	s, eval := quadSpace()
	e, _ := NewContext(s, metrics.MinimizeMetric("cost"), dataset.AdaptContext(eval), Config{Seed: 21, Generations: 60}, nil)
	res := mustRun(t, e)
	first := res.Trajectory[0].UniqueGenomes
	if first < 2 || first > e.Config().PopulationSize {
		t.Errorf("initial diversity %d implausible for population %d", first, e.Config().PopulationSize)
	}
	for _, gp := range res.Trajectory {
		if gp.UniqueGenomes < 1 || gp.UniqueGenomes > e.Config().PopulationSize {
			t.Fatalf("diversity %d out of range at gen %d", gp.UniqueGenomes, gp.Generation)
		}
	}
}

func TestConvergenceWindowStopsEarly(t *testing.T) {
	// A constant-fitness landscape: the population homogenizes fast under
	// elitism + selection; the run must stop well before 300 generations.
	s := param.MustSpace(param.Int("x", 0, 3, 1))
	flat := func(pt param.Point) (metrics.Metrics, error) {
		return metrics.Metrics{"cost": 1}, nil
	}
	e, err := NewContext(s, metrics.MinimizeMetric("cost"), dataset.AdaptContext(flat),
		Config{Seed: 2, Generations: 300, ConvergenceWindow: 5, MutationRate: 0.0001}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, e)
	if !res.Converged {
		t.Fatal("run did not report convergence")
	}
	if last := res.Trajectory[len(res.Trajectory)-1].Generation; last >= 300 {
		t.Errorf("ran all %d generations despite convergence window", last)
	}
}

func TestConvergenceWindowDisabledByDefault(t *testing.T) {
	s, eval := quadSpace()
	e, _ := NewContext(s, metrics.MinimizeMetric("cost"), dataset.AdaptContext(eval), Config{Seed: 3, Generations: 25}, nil)
	res := mustRun(t, e)
	if res.Converged {
		t.Error("Converged set without a convergence window")
	}
	if len(res.Trajectory) != 26 {
		t.Errorf("trajectory length %d, want full 26", len(res.Trajectory))
	}
}

func TestConvergenceWindowFiresAtExactlyWindow(t *testing.T) {
	// A cardinality-1 space is homogeneous and stagnant from generation 0:
	// every genome is identical and the best can never move. The staleness
	// counter starts after the first generation establishes a baseline, so
	// the run must stop at exactly generation `window`.
	s := param.MustSpace(param.Int("x", 5, 5, 1))
	pinned := func(pt param.Point) (metrics.Metrics, error) {
		return metrics.Metrics{"cost": 7}, nil
	}
	const window = 4
	e, err := NewContext(s, metrics.MinimizeMetric("cost"), dataset.AdaptContext(pinned),
		Config{Seed: 1, Generations: 100, ConvergenceWindow: window}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, e)
	if !res.Converged {
		t.Fatal("fully homogeneous run did not report convergence")
	}
	if last := res.Trajectory[len(res.Trajectory)-1].Generation; last != window {
		t.Errorf("converged at generation %d, want exactly %d", last, window)
	}
}

func TestConvergenceWindowZeroNeverFires(t *testing.T) {
	// Window 0 disables early stopping even on a population that is
	// homogeneous and stagnant for the entire run.
	s := param.MustSpace(param.Int("x", 5, 5, 1))
	pinned := func(pt param.Point) (metrics.Metrics, error) {
		return metrics.Metrics{"cost": 7}, nil
	}
	e, err := NewContext(s, metrics.MinimizeMetric("cost"), dataset.AdaptContext(pinned),
		Config{Seed: 1, Generations: 30, ConvergenceWindow: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, e)
	if res.Converged {
		t.Error("Converged set with ConvergenceWindow 0")
	}
	if got := len(res.Trajectory); got != 31 {
		t.Errorf("trajectory length %d, want full 31", got)
	}
}
