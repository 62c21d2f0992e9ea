package ga

import (
	"context"
	"reflect"
	"testing"

	"nautilus/internal/dataset"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
	"nautilus/internal/pareto"
)

// biSpace is a 3-parameter space with a genuine cost/quality trade-off on
// x and y (the whole (x, y) diagonal is Pareto-optimal at w=0) plus a
// pure-waste axis w that only adds cost, so only w=0 points sit on the
// front.
func biSpace() (*param.Space, func(param.Point) (metrics.Metrics, error), []metrics.Objective) {
	s := param.MustSpace(
		param.Int("x", 0, 15, 1),
		param.Int("y", 0, 7, 1),
		param.Int("w", 0, 3, 1),
	)
	eval := func(pt param.Point) (metrics.Metrics, error) {
		x, y, w := float64(pt[0]), float64(pt[1]), float64(pt[2])
		return metrics.Metrics{
			"cost":    10 + 3*x + y + 5*w,
			"quality": 1 + x + 0.25*y,
		}, nil
	}
	objs := []metrics.Objective{
		metrics.MinimizeMetric("cost"),
		metrics.MaximizeMetric("quality"),
	}
	return s, eval, objs
}

func biConfig(seed int64) Config {
	return Config{PopulationSize: 10, Generations: 25, Seed: seed, Parallelism: 1}
}

func TestNewMultiRejectsSingleObjective(t *testing.T) {
	s, eval, objs := biSpace()
	if _, err := NewMultiContext(s, objs[:1], dataset.AdaptContext(eval), biConfig(1), nil); err == nil {
		t.Fatal("NewMultiContext should reject a single objective")
	}
	if _, err := NewMultiContext(s, objs, nil, biConfig(1), nil); err == nil {
		t.Fatal("NewMultiContext should reject a nil evaluator")
	}
}

func TestMultiFrontMutuallyNonDominating(t *testing.T) {
	s, eval, objs := biSpace()
	e, err := NewMultiContext(s, objs, dataset.AdaptContext(eval), biConfig(42), nil)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, e)
	if len(res.Front) < 2 {
		t.Fatalf("front has %d members, want a real trade-off set", len(res.Front))
	}
	for i := range res.Front {
		for j := range res.Front {
			if i != j && pareto.DominatesValues(objs, res.Front[i].Values, res.Front[j].Values) {
				t.Errorf("front member %d dominates member %d: %v vs %v",
					i, j, res.Front[i].Values, res.Front[j].Values)
			}
		}
	}
	// Only w=0 points are Pareto-optimal in this space.
	for _, fp := range res.Front {
		if fp.Point[2] != 0 {
			t.Errorf("front member %v has waste w=%d, cannot be Pareto-optimal", fp.Point, fp.Point[2])
		}
	}
	// BestPoint/BestValue describe the primary-best (min cost) front member.
	if res.BestValue != res.Front[0].Values[0] {
		t.Errorf("BestValue %v != first (primary-best) front value %v", res.BestValue, res.Front[0].Values[0])
	}
	if res.Hypervolume <= 0 {
		t.Errorf("two-objective run should report positive hypervolume, got %v", res.Hypervolume)
	}
	if len(res.Nadir) != 2 {
		t.Fatalf("nadir = %v, want per-objective worst values", res.Nadir)
	}
	// Trajectory tracks the archive monotonically: the non-dominated set
	// over a growing point set can only grow in dominated area.
	prevHV := 0.0
	for _, gp := range res.Trajectory {
		if gp.FrontSize <= 0 {
			t.Fatalf("generation %d has empty front", gp.Generation)
		}
		if gp.Hypervolume < prevHV {
			t.Fatalf("hypervolume shrank at generation %d: %v -> %v", gp.Generation, prevHV, gp.Hypervolume)
		}
		prevHV = gp.Hypervolume
	}
}

// TestMultiByteIdentical pins the determinism contract for pareto mode:
// the full Result - front, hypervolume, nadir, trajectory, cache stats -
// is deeply identical across parallelism levels: misses evaluated on the
// calling goroutine (par 1) or on pool workers (par 8).
func TestMultiByteIdentical(t *testing.T) {
	s, eval, objs := biSpace()
	run := func(par int) Result {
		cfg := biConfig(7)
		cfg.Parallelism = par
		e, err := NewMultiContext(s, objs, dataset.AdaptContext(eval), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return mustRun(t, e)
	}
	ref := run(1)
	if got := run(8); !reflect.DeepEqual(got, ref) {
		t.Fatalf("par=8 diverged from the par=1 reference:\n got %+v\nwant %+v", got, ref)
	}
}

// TestMultiMigrationShipsFrontMembers proves the migration contract
// composes with pareto mode: emigrants are selected by the stable fitness
// sort, which under NSGA-II fitness means the least-crowded rank-0
// members - so a pareto island automatically ships front members.
func TestMultiMigrationShipsFrontMembers(t *testing.T) {
	s, eval, objs := biSpace()
	var shipped [][]Migrant
	cfg := biConfig(11)
	cfg.Migration = &Migration{
		Interval: 5,
		Count:    2,
		Exchange: func(ctx context.Context, gen int, out []Migrant) ([]Migrant, error) {
			cp := make([]Migrant, len(out))
			for i, m := range out {
				cp[i] = Migrant{Genome: m.Genome.Clone()}
			}
			shipped = append(shipped, cp)
			return nil, nil
		},
	}
	e, err := NewMultiContext(s, objs, dataset.AdaptContext(eval), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	if len(shipped) == 0 {
		t.Fatal("no migration rounds fired")
	}
	valsOf := func(g param.Point) []float64 {
		m, err := eval(g)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(objs))
		for i, o := range objs {
			v, ok := o.Value(m)
			if !ok {
				t.Fatalf("emigrant %v infeasible", g)
			}
			out[i] = v
		}
		return out
	}
	for round, out := range shipped {
		for i := range out {
			for j := range out {
				if i == j {
					continue
				}
				if pareto.DominatesValues(objs, valsOf(out[i].Genome), valsOf(out[j].Genome)) {
					t.Errorf("round %d: emigrant %d dominates emigrant %d - not a front pair",
						round, i, j)
				}
			}
		}
	}
}

// TestMultiResumeByteIdentical interrupts a pareto run at checkpoint
// boundaries and proves the resumed run - including the archive rebuilt
// from the restored cache - matches the uninterrupted run deeply.
func TestMultiResumeByteIdentical(t *testing.T) {
	s, eval, objs := biSpace()
	mkCfg := func() Config {
		cfg := biConfig(3)
		cfg.Parallelism = 4
		return cfg
	}
	ref, err := func() (Result, error) {
		e, err := NewMultiContext(s, objs, dataset.AdaptContext(eval), mkCfg(), nil)
		if err != nil {
			return Result{}, err
		}
		return e.RunContext(context.Background())
	}()
	if err != nil {
		t.Fatal(err)
	}

	for _, killAfter := range []int{0, 4, 12} {
		ctx, cancel := context.WithCancel(context.Background())
		var last *Snapshot
		cfg := mkCfg()
		cfg.Checkpoint = func(snap *Snapshot) error {
			last = snap
			if snap.Generation > killAfter {
				cancel()
			}
			return nil
		}
		ie, err := NewMultiContext(s, objs, dataset.AdaptContext(eval), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		partial, err := ie.RunContext(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if !partial.Interrupted {
			t.Fatalf("killAfter=%d: run was not interrupted", killAfter)
		}
		if last == nil {
			t.Fatalf("killAfter=%d: no checkpoint written", killAfter)
		}

		rcfg := mkCfg()
		rcfg.Resume = last
		re, err := NewMultiContext(s, objs, dataset.AdaptContext(eval), rcfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := re.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resumed, ref) {
			t.Fatalf("killAfter=%d: resumed result diverged:\n got %+v\nwant %+v", killAfter, resumed, ref)
		}
	}
}
