package ga

import (
	"context"
	"sort"

	"nautilus/internal/param"
)

// Migrant is one genome in flight between islands of an island-model
// search. Only the genome travels: the receiving island re-evaluates it
// through its own cache, which is exactly what makes cluster-wide cache
// dedup observable (the migrant's design point is already characterized
// somewhere, so the lookup is a remote hit, not a new synthesis job).
type Migrant struct {
	Genome param.Point
}

// MigrantExchange ships an island's emigrants for one scheduled exchange
// and returns its immigrants. gen is the generation the immigrants will
// join (the first generation bred after the exchange). Implementations
// must be deterministic in (gen, out) for byte-identical runs - in a
// cluster the pairing of islands per exchange is a pure function of
// (seed, generation, topology) - and must never block indefinitely: on
// timeout or transport failure they return an error and the island
// continues unaided, which is the partition-degradation contract the
// faultnet tests pin down.
type MigrantExchange func(ctx context.Context, gen int, out []Migrant) ([]Migrant, error)

// Migration configures island-model migrant exchange for a run. A run
// with a nil Migration (the default) is a plain panmictic GA; with one,
// the run becomes a single island that every Interval generations ships
// its Count best genomes to the exchange and injects whatever comes back.
//
// Determinism contract: migration never draws from the run RNG. Emigrant
// selection is a pure sort of the evaluated population (fitness
// descending, stable index tie-break), and immigrants overwrite the
// *last* bred slots of the next generation - after breeding has consumed
// its draws - so the RNG sequence is byte-identical whether an exchange
// returns migrants, returns nothing, or fails. Disabling migration
// therefore changes population contents only, never the draw stream.
type Migration struct {
	// Interval is the generation cadence: generation g receives migrants
	// iff g > 0 and g % Interval == 0 (default 5).
	Interval int
	// Count is how many emigrants each exchange ships (default 1). Must
	// leave at least the elite slots untouched: Count <= PopulationSize -
	// Elitism.
	Count int
	// Exchange performs the migrant swap. Required.
	Exchange MigrantExchange
}

// withDefaults returns a defaulted copy (the caller's struct is never
// mutated).
func (m *Migration) withDefaults() *Migration {
	d := *m
	if d.Interval == 0 {
		d.Interval = 5
	}
	if d.Count == 0 {
		d.Count = 1
	}
	return &d
}

// due reports whether generation gen is a scheduled exchange boundary.
func (m *Migration) due(gen int) bool {
	return gen > 0 && gen%m.Interval == 0
}

// migrate runs one scheduled exchange: the Count best evaluated genomes
// of pop go out, and whatever comes back overwrites the last non-elite
// slots of next (already fully bred, so no RNG draw is displaced). An
// exchange error or empty return leaves next exactly as bred - the
// island continues unaided.
func (e *Engine) migrate(ctx context.Context, gen int, pop, next []individual) {
	mig := e.cfg.Migration
	in, err := mig.Exchange(ctx, gen, e.emigrants(pop, mig.Count))
	if err != nil || len(in) == 0 {
		return
	}
	if maxIn := len(next) - e.cfg.Elitism; len(in) > maxIn {
		in = in[:maxIn]
	}
	slot := len(next) - 1
	for _, m := range in {
		// Immigrants are wire data in a cluster: validate before adoption.
		if e.space.Validate(m.Genome) != nil {
			continue
		}
		copy(next[slot].genome, m.Genome)
		next[slot].hash = e.space.Hash64(next[slot].genome)
		slot--
	}
}

// emigrants clones the count best genomes of the evaluated population,
// fitness descending with a stable index tie-break - deterministic, and
// cloned out of the generation arena so the exchange may retain them.
func (e *Engine) emigrants(pop []individual, count int) []Migrant {
	if count > len(pop) {
		count = len(pop)
	}
	idx := make([]int, len(pop))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return pop[idx[a]].fitness > pop[idx[b]].fitness
	})
	out := make([]Migrant, count)
	for k := 0; k < count; k++ {
		out[k] = Migrant{Genome: pop[idx[k]].genome.Clone()}
	}
	return out
}
