package faulty

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"nautilus/internal/dataset"
	"nautilus/internal/ga"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
	"nautilus/internal/resilience"
)

func testSpace(t *testing.T) *param.Space {
	t.Helper()
	space, err := param.NewSpace(
		param.Int("a", 0, 15, 1),
		param.Int("b", 0, 15, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// cleanEval is the fault-free evaluator the injector wraps.
var cleanEval = dataset.AdaptContext(func(pt param.Point) (metrics.Metrics, error) {
	return metrics.Metrics{"score": float64(pt[0]*pt[1] + pt[0])}, nil
})

func TestClassifyDeterministicAndOrderFree(t *testing.T) {
	space := testSpace(t)
	cfg := Config{TransientRate: 0.2, PermanentRate: 0.1, HangRate: 0.05, NaNRate: 0.05, Seed: 9}
	a, err := NewContext(space, cleanEval, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewContext(space, cleanEval, cfg)

	counts := map[Class]int{}
	total := 0
	for x := 0; x < 16; x++ {
		for y := 0; y < 16; y++ {
			pt := param.Point{x, y}
			ca := a.Classify(pt)
			// Same class from an independent instance, and again after other
			// points were classified (order independence).
			if cb := b.Classify(pt); ca != cb {
				t.Fatalf("point %v: %v vs %v across instances", pt, ca, cb)
			}
			if again := a.Classify(pt); again != ca {
				t.Fatalf("point %v: class changed on re-query: %v -> %v", pt, ca, again)
			}
			counts[ca]++
			total++
		}
	}
	// Fractions should be in the right ballpark over 256 points.
	if f := float64(counts[Transient]) / float64(total); f < 0.1 || f > 0.3 {
		t.Errorf("transient fraction %v far from configured 0.2", f)
	}
	if counts[Clean] == 0 || counts[Permanent] == 0 {
		t.Errorf("degenerate classification: %v", counts)
	}

	// A different seed reshuffles assignments.
	cfg.Seed = 10
	c, _ := NewContext(space, cleanEval, cfg)
	same := 0
	for x := 0; x < 16; x++ {
		for y := 0; y < 16; y++ {
			if a.Classify(param.Point{x, y}) == c.Classify(param.Point{x, y}) {
				same++
			}
		}
	}
	if same == total {
		t.Error("seed change did not reshuffle fault assignment")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{TransientRate: -0.1},
		{TransientRate: 1.5},
		{PermanentRate: math.NaN()},
		{HangRate: 2},
		{NaNRate: -1},
		{TransientRate: 0.6, PermanentRate: 0.6},
		{TransientFailures: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
	if err := (Config{TransientRate: 0.5, PermanentRate: 0.5}).Validate(); err != nil {
		t.Errorf("boundary config rejected: %v", err)
	}
}

func TestTransientFaultsFirstNAttempts(t *testing.T) {
	space := testSpace(t)
	in, err := NewContext(space, cleanEval, Config{TransientRate: 1, TransientFailures: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pt := param.Point{4, 5}
	for i := 1; i <= 2; i++ {
		if _, err := in.Evaluate(context.Background(), pt); !dataset.IsTransient(err) {
			t.Fatalf("attempt %d: got %v, want transient", i, err)
		}
	}
	m, err := in.Evaluate(context.Background(), pt)
	if err != nil {
		t.Fatalf("attempt 3: %v, want success", err)
	}
	want, _ := cleanEval(context.Background(), pt)
	if m["score"] != want["score"] {
		t.Errorf("score = %v, want %v", m["score"], want["score"])
	}
	if got := in.Injected(Transient); got != 3 {
		t.Errorf("Injected(Transient) = %d, want 3", got)
	}
}

func TestPermanentAndNaNModes(t *testing.T) {
	space := testSpace(t)
	pt := param.Point{2, 3}

	perm, _ := NewContext(space, cleanEval, Config{PermanentRate: 1})
	if _, err := perm.Evaluate(context.Background(), pt); err == nil || dataset.IsTransient(err) {
		t.Errorf("permanent mode: got %v, want hard error", err)
	}

	nan, _ := NewContext(space, cleanEval, Config{NaNRate: 1})
	m, err := nan.Evaluate(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(m["score"]) {
		t.Errorf("NaN mode returned finite score %v", m["score"])
	}
}

func TestHangRespectsContext(t *testing.T) {
	space := testSpace(t)
	in, _ := NewContext(space, cleanEval, Config{HangRate: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := in.Evaluate(ctx, param.Point{1, 1})
	if !dataset.IsTransient(err) {
		t.Fatalf("got %v, want transient cancellation error", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("hang ignored context cancellation")
	}
}

// TestHangThenQuarantine drives the full failure path: a hanging point
// under a supervisor with a short attempt deadline times out, exhausts
// retries, and ends up quarantined.
func TestHangThenQuarantine(t *testing.T) {
	space := testSpace(t)
	in, _ := NewContext(space, cleanEval, Config{HangRate: 1})
	sup, err := resilience.NewSupervisor(space, in.Evaluate, resilience.Policy{
		Timeout:     2 * time.Millisecond,
		MaxAttempts: 2,
		BackoffBase: time.Microsecond,
		// QuarantineAfter: 2 rounds of exhausted retries trip the breaker.
		QuarantineAfter: 2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pt := param.Point{6, 6}
	if _, err := sup.Evaluate(context.Background(), pt); !dataset.IsTransient(err) {
		t.Fatalf("round 1: got %v, want transient timeout", err)
	}
	_, err = sup.Evaluate(context.Background(), pt)
	var qe *resilience.QuarantineError
	if !errors.As(err, &qe) {
		t.Fatalf("round 2: got %v, want quarantine", err)
	}
	if got := in.Injected(Hang); got < 3 {
		t.Errorf("Injected(Hang) = %d, want >= 3 (2 attempts + 2 attempts, minus the quarantine short-circuit)", got)
	}
}

// TestTransientFaultsDoNotPerturbSearch is the headline acceptance
// property: with a retrying supervisor whose attempt budget exceeds the
// injected failure count, a heavily faulted run must produce a result
// byte-identical to the fault-free run.
func TestTransientFaultsDoNotPerturbSearch(t *testing.T) {
	space := testSpace(t)
	obj := metrics.MaximizeMetric("score")
	cfg := ga.Config{PopulationSize: 8, Generations: 15, Seed: 77, Parallelism: 4}

	clean, err := ga.NewContext(space, obj, cleanEval, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	in, err := NewContext(space, cleanEval, Config{TransientRate: 0.25, TransientFailures: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sup, err := resilience.NewSupervisor(space, in.Evaluate, resilience.Policy{
		MaxAttempts: 4, // > TransientFailures, so every transient point recovers
		BackoffBase: time.Microsecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := ga.NewContext(space, obj, sup.Evaluate, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := faulted.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if in.Injected(Transient) == 0 {
		t.Fatal("test is vacuous: no transient faults were injected")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("faulted result differs from fault-free\n got: %+v\nwant: %+v", got, want)
	}
}
