package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"nautilus/internal/dataset"
	"nautilus/internal/ga"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
)

// runSearch runs one scalar Search over eval under cfg, guided by g (nil runs
// the unguided baseline).
func runSearch(s *param.Space, obj metrics.Objective, eval dataset.Evaluator, cfg ga.Config, g *Guidance) (ga.Result, error) {
	return Search(context.Background(), SearchRequest{Space: s, Objective: obj, Evaluate: eval, Config: cfg}, WithGuidance(g))
}

// monotoneEval builds an evaluator where "cost" increases with every
// parameter's numeric axis - the friendliest possible case for bias hints.
func monotoneEval(s *param.Space) func(param.Point) (metrics.Metrics, error) {
	return func(pt param.Point) (metrics.Metrics, error) {
		cost := 0.0
		for i := range pt {
			cost += float64(pt[i]) * float64(i+1)
		}
		return metrics.Metrics{"cost": cost + 1}, nil
	}
}

func bigSpace() *param.Space {
	ps := make([]*param.Param, 8)
	for i := range ps {
		ps[i] = param.Int(string(rune('a'+i)), 0, 15, 1)
	}
	return param.MustSpace(ps...)
}

func TestMutationGenesCountMatchesBaselineRate(t *testing.T) {
	s := bigSpace()
	l := NewLibrary(s)
	l.Metric("cost").SetImportance("a", 100, 0)
	g, _ := l.GuidanceForObjective(metrics.MinimizeMetric("cost"), 1)
	r := rand.New(rand.NewSource(1))
	genome := make(param.Point, s.Len())
	total := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		total += len(g.MutationGenes(r, 0, genome, 0.1, nil))
	}
	mean := float64(total) / trials // expect 8 * 0.1 = 0.8
	if mean < 0.72 || mean > 0.88 {
		t.Errorf("mean mutation count %v, want ~0.8 (baseline-preserving)", mean)
	}
}

func TestMutationGenesSkewedByImportance(t *testing.T) {
	s := bigSpace()
	l := NewLibrary(s)
	l.Metric("cost").SetImportance("a", 100, 0)
	l.Metric("cost").SetImportance("b", 10, 0)
	g, _ := l.GuidanceForObjective(metrics.MinimizeMetric("cost"), 1)
	r := rand.New(rand.NewSource(2))
	genome := make(param.Point, s.Len())
	counts := make([]int, s.Len())
	// Low rate so operations mostly mutate a single gene: the pick
	// distribution then reflects the importance weights directly (at higher
	// rates without-replacement sampling deliberately spreads picks, to
	// keep the per-operation mutation count baseline-equivalent).
	for i := 0; i < 120000; i++ {
		for _, gi := range g.MutationGenes(r, 0, genome, 0.05, nil) {
			counts[gi]++
		}
	}
	// importance 100 vs 10 vs 1 (neutral): a should dominate.
	if counts[0] < 4*counts[1] {
		t.Errorf("importance skew too weak: a=%d b=%d", counts[0], counts[1])
	}
	if counts[1] < 2*counts[2] {
		t.Errorf("importance skew missing for b: b=%d c=%d", counts[1], counts[2])
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("gene %d never mutated - stochasticity lost", i)
		}
	}
}

func TestMutationGenesUniformAtZeroConfidence(t *testing.T) {
	s := bigSpace()
	l := NewLibrary(s)
	l.Metric("cost").SetImportance("a", 100, 0)
	g, _ := l.GuidanceForObjective(metrics.MinimizeMetric("cost"), 0)
	r := rand.New(rand.NewSource(3))
	genome := make(param.Point, s.Len())
	counts := make([]int, s.Len())
	total := 0
	for i := 0; i < 40000; i++ {
		for _, gi := range g.MutationGenes(r, 0, genome, 0.25, nil) {
			counts[gi]++
			total++
		}
	}
	for i, c := range counts {
		frac := float64(c) / float64(total)
		if frac < 0.10 || frac > 0.15 { // uniform = 1/8 = 0.125
			t.Errorf("gene %d frequency %v, want ~0.125 at confidence 0", i, frac)
		}
	}
}

func TestMutationGenesNoDuplicates(t *testing.T) {
	s := bigSpace()
	l := NewLibrary(s)
	g, _ := l.GuidanceForObjective(metrics.MinimizeMetric("cost"), 0.8)
	r := rand.New(rand.NewSource(4))
	genome := make(param.Point, s.Len())
	for i := 0; i < 2000; i++ {
		picked := g.MutationGenes(r, 0, genome, 0.9, nil)
		seen := map[int]bool{}
		for _, gi := range picked {
			if seen[gi] {
				t.Fatal("duplicate gene picked in one operation")
			}
			seen[gi] = true
		}
	}
}

func TestMutateValueBiasDirection(t *testing.T) {
	s := bigSpace()
	l := NewLibrary(s)
	l.Metric("cost").SetBias("a", 1.0) // cost grows with a
	g, _ := l.GuidanceForObjective(metrics.MinimizeMetric("cost"), 1)
	r := rand.New(rand.NewSource(5))
	down, up := 0, 0
	for i := 0; i < 5000; i++ {
		v := g.MutateValue(r, 0, 0, 8)
		if v < 8 {
			down++
		} else if v > 8 {
			up++
		} else {
			t.Fatal("mutation returned current value")
		}
	}
	// Minimizing with positive correlation: moves should be overwhelmingly
	// downward at confidence 1, bias 1.
	if down < 9*up {
		t.Errorf("bias not directing: down=%d up=%d", down, up)
	}
}

func TestMutateValueWeakBiasMostlyUniform(t *testing.T) {
	s := bigSpace()
	l := NewLibrary(s)
	l.Metric("cost").SetBias("a", 0.2)
	g, _ := l.GuidanceForObjective(metrics.MinimizeMetric("cost"), 1)
	r := rand.New(rand.NewSource(6))
	down, up := 0, 0
	for i := 0; i < 10000; i++ {
		v := g.MutateValue(r, 0, 0, 8)
		if v < 8 {
			down++
		} else {
			up++
		}
	}
	// Bias 0.2: ~20% directed down + ~47% of uniform draws down
	// (8 of 15 alternatives are below 8): expect down ~ 0.2 + 0.8*8/15 = 0.63.
	frac := float64(down) / float64(down+up)
	if frac < 0.5 || frac > 0.75 {
		t.Errorf("weak-bias downward fraction %v, want ~0.63", frac)
	}
}

func TestMutateValueBoundaryFallsBackToUniform(t *testing.T) {
	s := bigSpace()
	l := NewLibrary(s)
	l.Metric("cost").SetBias("a", 1.0)
	g, _ := l.GuidanceForObjective(metrics.MinimizeMetric("cost"), 1)
	r := rand.New(rand.NewSource(7))
	// Gene already at 0 (the favorable boundary for minimization): guided
	// moves become minimal inward steps, so the gene explores locally
	// around its converged value instead of teleporting.
	for i := 0; i < 2000; i++ {
		v := g.MutateValue(r, 0, 0, 0)
		if v == 0 {
			t.Fatal("mutation returned current value at boundary")
		}
		if v != 1 {
			t.Fatalf("full-confidence full-bias boundary mutation moved to %d, want local step to 1", v)
		}
	}
	// At lower confidence the uniform path keeps the whole range reachable.
	gw := g.WithConfidence(0.5)
	seen := map[int]bool{}
	for i := 0; i < 4000; i++ {
		seen[gw.MutateValue(r, 0, 0, 0)] = true
	}
	if len(seen) < 10 {
		t.Errorf("half-confidence boundary mutation visited only %d values, want broad coverage", len(seen))
	}
}

func TestMutateValueTargetClusters(t *testing.T) {
	s := bigSpace()
	l := NewLibrary(s)
	l.Metric("cost").SetTarget("a", 12)
	g, _ := l.GuidanceForObjective(metrics.MinimizeMetric("cost"), 1)
	r := rand.New(rand.NewSource(8))
	hist := make([]int, 16)
	for i := 0; i < 20000; i++ {
		hist[g.MutateValue(r, 0, 0, 3)]++
	}
	// Values should cluster around 12.
	near := hist[11] + hist[12] + hist[13]
	far := hist[0] + hist[1] + hist[2]
	if near < 5*far {
		t.Errorf("target not clustering: near=%d far=%d", near, far)
	}
	peak := 0
	for v := range hist {
		if hist[v] > hist[peak] {
			peak = v
		}
	}
	if peak != 12 {
		t.Errorf("mutation mode at %d, want 12", peak)
	}
}

func TestMutateValueStepHintBoundsJumps(t *testing.T) {
	s := bigSpace()
	l := NewLibrary(s)
	l.Metric("cost").SetBias("a", 1.0)
	l.Metric("cost").SetStep("a", 1)
	g, _ := l.GuidanceForObjective(metrics.MinimizeMetric("cost"), 1)
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 3000; i++ {
		v := g.MutateValue(r, 0, 0, 8)
		if v < 8 && 8-v > 1 {
			t.Fatalf("directed move of %d exceeds step hint 1", 8-v)
		}
	}
}

func TestMutateValueUnorderedWithOrderHint(t *testing.T) {
	s := param.MustSpace(
		param.Choice("alloc", "wavefront", "sep_if", "sep_of"),
		param.Int("x", 0, 7, 1),
	)
	l := NewLibrary(s)
	// Author orders allocators by frequency: sep_if < sep_of < wavefront,
	// and says frequency rises along the order.
	l.Metric(metrics.FmaxMHz).
		SetOrder("alloc", "sep_if", "sep_of", "wavefront").
		SetBias("alloc", 1.0)
	g, _ := l.GuidanceForObjective(metrics.MaximizeMetric(metrics.FmaxMHz), 1)
	r := rand.New(rand.NewSource(10))
	// From sep_if (value index 1, rank 0), guided moves should land on
	// sep_of (rank 1) or wavefront (rank 2) - value indices 2 and 0.
	counts := map[int]int{}
	for i := 0; i < 4000; i++ {
		counts[g.MutateValue(r, 0, 0, 1)]++
	}
	if counts[1] != 0 {
		t.Error("returned current value")
	}
	// wavefront (index 0) is reachable and sep_of (index 2) likelier via
	// 1-step moves; both must appear.
	if counts[0] == 0 || counts[2] == 0 {
		t.Errorf("order-hinted mutation missing values: %v", counts)
	}
}

func TestGuidedBeatsBaselineOnMonotoneSpace(t *testing.T) {
	// The qualitative heart of the paper: with honest hints, Nautilus
	// reaches the same quality with fewer distinct evaluations.
	s := bigSpace()
	eval := monotoneEval(s)
	obj := metrics.MinimizeMetric("cost")

	l := NewLibrary(s)
	for i := 0; i < s.Len(); i++ {
		name := string(rune('a' + i))
		l.Metric("cost").SetBias(name, 0.9)
		l.Metric("cost").SetImportance(name, float64(10*(i+1)), 0.05)
	}
	g, _ := l.GuidanceForObjective(obj, 0.8)

	cfg := ga.Config{Generations: 40}
	var baseEvals, guidedEvals int
	const runs = 12
	for seed := int64(0); seed < runs; seed++ {
		cfg.Seed = seed
		b, err := runSearch(s, obj, eval, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		n, err := runSearch(s, obj, eval, cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		// Cost threshold: within 10 of optimum 1.
		if e := b.EvalsToReach(obj, 11); e >= 0 {
			baseEvals += e
		} else {
			baseEvals += b.DistinctEvals * 2 // censored: never reached
		}
		if e := n.EvalsToReach(obj, 11); e >= 0 {
			guidedEvals += e
		} else {
			guidedEvals += n.DistinctEvals * 2
		}
	}
	if guidedEvals >= baseEvals {
		t.Errorf("guided (%d evals) not faster than baseline (%d evals)", guidedEvals, baseEvals)
	}
}

func TestWrongHintsStillConverge(t *testing.T) {
	// Adversarial hints: bias points the wrong way. The stochastic core
	// must still find good solutions, just more slowly (paper: hints are
	// probabilistic so the GA can overcome regions that defy the author's
	// intuition).
	s := bigSpace()
	eval := monotoneEval(s)
	obj := metrics.MinimizeMetric("cost")
	l := NewLibrary(s)
	for i := 0; i < s.Len(); i++ {
		l.Metric("cost").SetBias(string(rune('a'+i)), -0.8) // wrong direction
	}
	g, _ := l.GuidanceForObjective(obj, 0.6)
	got := 0.0
	const runs = 8
	for seed := int64(0); seed < runs; seed++ {
		res, err := runSearch(s, obj, eval, ga.Config{Seed: seed, Generations: 120}, g)
		if err != nil {
			t.Fatal(err)
		}
		got += res.BestValue
	}
	avg := got / runs
	// Optimum is 1; the space's worst is 36*15+1 = 541. Misguided runs must
	// still end in the good tail.
	if avg > 60 {
		t.Errorf("wrong hints broke the search: avg best %v", avg)
	}
}

func TestRunValidatesConfig(t *testing.T) {
	s := bigSpace()
	if _, err := runSearch(s, metrics.MinimizeMetric("cost"), monotoneEval(s), ga.Config{PopulationSize: 1}, nil); err == nil {
		t.Error("bad config accepted")
	}
}

// Property: MutateValue never returns an out-of-range index and never the
// current value (for params with more than one value), at any confidence.
func TestQuickMutateValueAlwaysValid(t *testing.T) {
	s := bigSpace()
	l := NewLibrary(s)
	l.Metric("cost").SetBias("a", 0.7)
	l.Metric("cost").SetTarget("b", 9)
	f := func(seed int64, confRaw uint8, geneRaw, curRaw uint8) bool {
		conf := float64(confRaw%101) / 100
		g, err := l.GuidanceForObjective(metrics.MinimizeMetric("cost"), conf)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		gene := int(geneRaw) % s.Len()
		cur := int(curRaw) % 16
		v := g.MutateValue(r, int(seed%50), gene, cur)
		return v >= 0 && v < 16 && v != cur
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: MutationGenes returns sorted-unique in-range gene indices with
// count <= genome length.
func TestQuickMutationGenesValid(t *testing.T) {
	s := bigSpace()
	l := NewLibrary(s)
	l.Metric("cost").SetImportance("a", 90, 0.1)
	f := func(seed int64, confRaw, rateRaw uint8) bool {
		conf := float64(confRaw%101) / 100
		rate := float64(rateRaw%101) / 100
		g, err := l.GuidanceForObjective(metrics.MinimizeMetric("cost"), conf)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		genome := make(param.Point, s.Len())
		picked := g.MutationGenes(r, 3, genome, rate, nil)
		if len(picked) > s.Len() {
			return false
		}
		seen := map[int]bool{}
		for _, gi := range picked {
			if gi < 0 || gi >= s.Len() || seen[gi] {
				return false
			}
			seen[gi] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: at confidence 0 the guided engine's full run is
// distribution-equivalent to baseline; we verify the stronger statement
// that importance decays never drop below neutral nor rise above the
// initial setting.
func TestQuickImportanceDecayBounds(t *testing.T) {
	s := bigSpace()
	f := func(impRaw, decayRaw uint8, gen uint8) bool {
		imp := 1 + float64(impRaw%100)
		decay := float64(decayRaw%101) / 100
		l := NewLibrary(s)
		l.Metric("cost").SetImportance("a", imp, decay)
		g, err := l.GuidanceForObjective(metrics.MinimizeMetric("cost"), 1)
		if err != nil {
			return false
		}
		v := g.ImportanceAt(0, int(gen))
		return v >= 1-1e-9 && v <= imp+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGuidanceDeterministic(t *testing.T) {
	s := bigSpace()
	l := NewLibrary(s)
	l.Metric("cost").SetBias("a", 0.5).SetImportance("b", 40, 0.1).SetTarget("c", 7)
	g, _ := l.GuidanceForObjective(metrics.MinimizeMetric("cost"), 0.7)
	run := func() []int {
		r := rand.New(rand.NewSource(99))
		out := []int{}
		genome := make(param.Point, s.Len())
		for i := 0; i < 100; i++ {
			out = append(out, g.MutationGenes(r, i, genome, 0.3, nil)...)
			out = append(out, g.MutateValue(r, i, i%s.Len(), i%16))
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("guided operators not deterministic")
		}
	}
	_ = math.Pi
}

func TestGuidanceDescribe(t *testing.T) {
	s := param.MustSpace(
		param.Int("depth", 1, 8, 1),
		param.Choice("alloc", "a", "b", "c"),
	)
	l := NewLibrary(s)
	l.Metric("cost").
		SetImportance("depth", 70, 0.05).SetBias("depth", 0.8).
		SetOrder("alloc", "c", "a", "b").SetBias("alloc", 0.4).
		SetStep("depth", 2)
	g, err := l.GuidanceForObjective(metrics.MinimizeMetric("cost"), 0.75)
	if err != nil {
		t.Fatal(err)
	}
	out := g.Describe()
	for _, want := range []string{
		"confidence 0.75", "depth", "importance  70.0", "decay 0.05",
		"bias -0.80", // oriented for minimization
		"step<=2", "order c<a<b",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe missing %q:\n%s", want, out)
		}
	}
}

// referenceMutationGenes is MutationGenes without the per-engine scratch:
// every call recomputes the blended weights from ImportanceAt and
// allocates its buffers. The scratch must reproduce its picks and its RNG
// draws exactly.
func referenceMutationGenes(g *Guidance, r *rand.Rand, gen int, genome param.Point, rate float64) []int {
	n := 0
	for range genome {
		if r.Float64() < rate {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	if n > len(genome) {
		n = len(genome)
	}
	weights := make([]float64, len(genome))
	var impSum float64
	for i := range weights {
		weights[i] = g.ImportanceAt(i, gen)
		impSum += weights[i]
	}
	uniform := 1.0 / float64(len(genome))
	for i := range weights {
		weights[i] = (1-g.confidence)*uniform + g.confidence*weights[i]/impSum
	}
	picked := make([]int, 0, n)
	total := 0.0
	for _, w := range weights {
		total += w
	}
	for len(picked) < n && total > 1e-12 {
		x := r.Float64() * total
		for i, w := range weights {
			if w == 0 {
				continue
			}
			x -= w
			if x <= 0 {
				picked = append(picked, i)
				total -= w
				weights[i] = 0
				break
			}
		}
	}
	return picked
}

// scratchCase is one generated guidance and call sequence: per-gene
// importance 1-100 with optional decay, a confidence, and calls whose
// generations repeat, advance and jump backwards (as resumed runs and
// islands do), over genome lengths up to the space's.
type scratchCase struct {
	imp, decay []float64
	conf       float64
	calls      []scratchCall
	seed       int64
}

type scratchCall struct {
	gen, genes int
	rate       float64
}

func (scratchCase) Generate(r *rand.Rand, _ int) reflect.Value {
	n := 1 + r.Intn(8)
	sc := scratchCase{imp: make([]float64, n), decay: make([]float64, n), seed: r.Int63()}
	for i := range sc.imp {
		sc.imp[i] = float64(1 + r.Intn(100))
		if r.Intn(2) == 0 {
			sc.decay[i] = r.Float64()
		}
	}
	switch r.Intn(4) {
	case 0:
		sc.conf = 0
	case 1:
		sc.conf = 1
	default:
		sc.conf = r.Float64()
	}
	gen := r.Intn(20)
	for k, calls := 0, 1+r.Intn(40); k < calls; k++ {
		switch r.Intn(4) {
		case 0:
			gen = r.Intn(60)
		case 1:
			gen++
		}
		genes := n
		if r.Intn(4) == 0 {
			genes = 1 + r.Intn(n)
		}
		sc.calls = append(sc.calls, scratchCall{gen: gen, genes: genes, rate: r.Float64()})
	}
	return reflect.ValueOf(sc)
}

// Property: an engine's guidance copy, caching each generation's blend,
// returns the reference's picks (appended after whatever dst holds) and
// leaves the RNG where the reference leaves it, without writing the
// guidance it was copied from.
func TestQuickGuidanceScratchMatchesReference(t *testing.T) {
	f := func(sc scratchCase) bool {
		ps := make([]*param.Param, len(sc.imp))
		for i := range ps {
			ps[i] = param.Int(fmt.Sprintf("p%d", i), 0, 3, 1)
		}
		g := newGuidance(param.MustSpace(ps...), sc.conf)
		copy(g.importance, sc.imp)
		copy(g.decay, sc.decay)
		engine := g.WithTracer(nil)
		ra, rb := rand.New(rand.NewSource(sc.seed)), rand.New(rand.NewSource(sc.seed))
		genome := make(param.Point, len(sc.imp))
		var buf []int
		for k, c := range sc.calls {
			dst := buf[:0]
			if k%2 == 1 {
				dst = append(dst, -1)
			}
			buf = engine.MutationGenes(ra, c.gen, genome[:c.genes], c.rate, dst)
			want := referenceMutationGenes(g, rb, c.gen, genome[:c.genes], c.rate)
			if !slices.Equal(buf[:len(dst)], dst) || !slices.Equal(buf[len(dst):], want) {
				t.Logf("call %d %+v: picks %v after %v, want %v", k, c, buf[len(dst):], buf[:len(dst)], want)
				return false
			}
		}
		return ra.Int63() == rb.Int63() && g.blended == nil && g.work == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
