package ga

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"nautilus/internal/dataset"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
)

// TestMigrationNeverPerturbsRNG pins the core determinism contract: a run
// whose exchange returns nothing (or fails) is byte-identical to a run
// with no migration at all, because migration never draws from the run
// RNG and injects only after breeding.
func TestMigrationNeverPerturbsRNG(t *testing.T) {
	s, eval := quadSpace()
	obj := metrics.MinimizeMetric("cost")
	run := func(mig *Migration) Result {
		e, err := NewContext(s, obj, dataset.AdaptContext(eval), Config{Seed: 7, Generations: 30, Migration: mig}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return mustRun(t, e)
	}
	plain := run(nil)
	empty := run(&Migration{Interval: 3, Count: 2, Exchange: func(ctx context.Context, gen int, out []Migrant) ([]Migrant, error) {
		return nil, nil
	}})
	failing := run(&Migration{Interval: 3, Count: 2, Exchange: func(ctx context.Context, gen int, out []Migrant) ([]Migrant, error) {
		return nil, errors.New("peer unreachable")
	}})
	if !reflect.DeepEqual(plain, empty) {
		t.Errorf("empty exchange changed the run:\nplain %+v\nempty %+v", plain, empty)
	}
	if !reflect.DeepEqual(plain, failing) {
		t.Errorf("failing exchange changed the run:\nplain %+v\nfail  %+v", plain, failing)
	}
}

// TestMigrationSchedule pins the exchange cadence (generation g receives
// migrants iff g > 0 and g % Interval == 0) and the emigrant contract:
// Count genomes, best first, cloned out of the arena.
func TestMigrationSchedule(t *testing.T) {
	s, eval := quadSpace()
	obj := metrics.MinimizeMetric("cost")
	var mu sync.Mutex
	var gens []int
	var emigrants [][]Migrant
	mig := &Migration{Interval: 4, Count: 3, Exchange: func(ctx context.Context, gen int, out []Migrant) ([]Migrant, error) {
		mu.Lock()
		defer mu.Unlock()
		gens = append(gens, gen)
		emigrants = append(emigrants, out)
		return nil, nil
	}}
	e, err := NewContext(s, obj, dataset.AdaptContext(eval), Config{Seed: 11, Generations: 12, Migration: mig}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	if want := []int{4, 8, 12}; !reflect.DeepEqual(gens, want) {
		t.Fatalf("exchange generations %v, want %v", gens, want)
	}
	for i, out := range emigrants {
		if len(out) != 3 {
			t.Fatalf("exchange %d shipped %d migrants, want 3", i, len(out))
		}
		for _, m := range out {
			if len(m.Genome) != s.Len() {
				t.Fatalf("emigrant genome length %d, want %d", len(m.Genome), s.Len())
			}
		}
	}
}

// TestMigrationInjectsImmigrants proves returned genomes actually enter
// the population (the target genome is planted via migration and the
// search must lock onto it immediately) while invalid wire data is
// rejected.
func TestMigrationInjectsImmigrants(t *testing.T) {
	s, eval := quadSpace()
	obj := metrics.MinimizeMetric("cost")
	target := param.Point{3, 12, 7, 9} // quadSpace's unique optimum, cost 1
	mig := &Migration{Interval: 1, Count: 1, Exchange: func(ctx context.Context, gen int, out []Migrant) ([]Migrant, error) {
		return []Migrant{
			{Genome: param.Point{1, 2}},        // wrong arity: dropped
			{Genome: param.Point{0, 0, 0, 99}}, // out of range: dropped
			{Genome: target.Clone()},           // adopted
		}, nil
	}}
	// MutationRate tiny and crossover off so the planted optimum can only
	// come from injection, not from breeding luck within 3 generations.
	cfg := Config{Seed: 5, Generations: 3, PopulationSize: 6, MutationRate: 1e-9, CrossoverRate: 1e-9, Migration: mig}
	e, err := NewContext(s, obj, dataset.AdaptContext(eval), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, e)
	if res.BestValue != 1 {
		t.Fatalf("planted optimum not adopted: best %v, want 1", res.BestValue)
	}
}

// TestMigrationValidation pins the config errors.
func TestMigrationValidation(t *testing.T) {
	noop := func(ctx context.Context, gen int, out []Migrant) ([]Migrant, error) { return nil, nil }
	bad := []*Migration{
		{Interval: 1, Count: 1},                  // nil exchange
		{Interval: -2, Count: 1, Exchange: noop}, // bad interval
		{Interval: 1, Count: 10, Exchange: noop}, // count > population-elitism
	}
	for i, m := range bad {
		c := Config{PopulationSize: 10, Elitism: 1, Migration: m}.withDefaults()
		if err := c.validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	good := Config{PopulationSize: 10, Elitism: 1, Migration: &Migration{Exchange: noop}}.withDefaults()
	if err := good.validate(); err != nil {
		t.Errorf("defaulted migration rejected: %v", err)
	}
	if good.Migration.Interval != 5 || good.Migration.Count != 1 {
		t.Errorf("migration defaults wrong: %+v", good.Migration)
	}
}
