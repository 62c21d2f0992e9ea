package core

import (
	"math/rand"
	"reflect"
	"testing"

	"nautilus/internal/ga"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
	"nautilus/internal/telemetry"
	"nautilus/internal/telemetry/trace"
)

// collectorStream builds a trace stream whose one sink is col.
func collectorStream(col *telemetry.Collector) *trace.Tracer {
	return trace.New(trace.Config{Sinks: []trace.Sink{col}})
}

// hintedGuidance compiles a guidance carrying all three value mechanisms:
// importance on a, bias on b (via the monotone objective), target on c.
func hintedGuidance(t *testing.T, s *param.Space, confidence float64) *Guidance {
	t.Helper()
	l := NewLibrary(s)
	l.Metric("cost").
		SetImportance("a", 50, 0).
		SetBias("b", -1).
		SetTarget("c", 3)
	g, err := l.GuidanceForObjective(metrics.MinimizeMetric("cost"), confidence)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGuidanceHintTelemetry drives the guided operators directly and
// checks every decision is reported with a sane mechanism split.
func TestGuidanceHintTelemetry(t *testing.T) {
	s := bigSpace()
	col := telemetry.NewCollector(nil)
	g := hintedGuidance(t, s, 0.9).WithTracer(collectorStream(col))
	r := rand.New(rand.NewSource(4))
	genome := make(param.Point, s.Len())

	picks := 0
	for i := 0; i < 3000; i++ {
		picks += len(g.MutationGenes(r, 0, genome, 0.1))
	}
	const aIdx, bIdx, cIdx = 0, 1, 2
	moves := 0
	for i := 0; i < 1000; i++ {
		for _, gene := range []int{aIdx, bIdx, cIdx} {
			g.MutateValue(r, 0, gene, 8)
			moves++
		}
	}

	snap := col.Registry().Snapshot()
	genes := snap.Counters["hints.gene_importance"] + snap.Counters["hints.gene_uniform"]
	if genes != int64(picks) {
		t.Errorf("gene-pick events %d != picks %d", genes, picks)
	}
	if snap.Counters["hints.gene_importance"] == 0 {
		t.Error("importance-weighted picks never recorded despite importance hint")
	}
	values := snap.Counters["hints.value_target"] + snap.Counters["hints.value_bias"] +
		snap.Counters["hints.value_uniform"]
	if values != int64(moves) {
		t.Errorf("value-move events %d != moves %d", values, moves)
	}
	if snap.Counters["hints.value_target"] == 0 || snap.Counters["hints.value_bias"] == 0 {
		t.Errorf("target/bias mechanisms unrecorded: %v", snap.Counters)
	}
	gate := snap.Counters["hints.gate_guided"] + snap.Counters["hints.gate_unguided"]
	if gate != int64(moves) {
		t.Errorf("gate outcomes %d != moves %d", gate, moves)
	}
	// At confidence 0.9 roughly 90% of gates should land guided.
	guidedFrac := float64(snap.Counters["hints.gate_guided"]) / float64(gate)
	if guidedFrac < 0.85 || guidedFrac > 0.95 {
		t.Errorf("guided gate fraction %.3f, want ~0.9", guidedFrac)
	}
}

// TestGuidanceConfidenceZeroGate checks the confidence sweep's endpoint:
// at confidence 0 every value move is an unguided uniform fallback.
func TestGuidanceConfidenceZeroGate(t *testing.T) {
	s := bigSpace()
	col := telemetry.NewCollector(nil)
	g := hintedGuidance(t, s, 0).WithTracer(collectorStream(col))
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		g.MutateValue(r, 0, 2, 8)
	}
	snap := col.Registry().Snapshot()
	if got := snap.Counters["hints.gate_guided"]; got != 0 {
		t.Errorf("confidence 0 recorded %d guided gates", got)
	}
	if got := snap.Counters["hints.value_uniform"]; got != 500 {
		t.Errorf("uniform fallbacks = %d, want 500", got)
	}
}

// TestGuidedRunTelemetryDeterminism is the end-to-end determinism check
// for a guided search: recording hints, cache, pool, and generations must
// not change the result, and the caller's guidance must stay untouched.
func TestGuidedRunTelemetryDeterminism(t *testing.T) {
	s := bigSpace()
	eval := monotoneEval(s)
	obj := metrics.MinimizeMetric("cost")
	g := hintedGuidance(t, s, 0.9)
	cfg := ga.Config{Seed: 9, Generations: 20, PopulationSize: 8}

	plain, err := runSearch(s, obj, eval, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector(nil)
	cfgRec := cfg
	cfgRec.Tracer = collectorStream(col)
	recorded, err := runSearch(s, obj, eval, cfgRec, g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, recorded) {
		t.Errorf("telemetry changed the guided search result:\n got %+v\nwant %+v", recorded, plain)
	}
	if g.tr != nil {
		t.Error("Search mutated the caller's guidance stream")
	}
	snap := col.Registry().Snapshot()
	hintEvents := snap.Counters["hints.value_target"] + snap.Counters["hints.value_bias"] +
		snap.Counters["hints.value_uniform"]
	if hintEvents == 0 {
		t.Error("guided run recorded no hint events")
	}
	if snap.Counters[telemetry.MetricGenerations] != 21 {
		t.Errorf("generations = %d, want 21", snap.Counters[telemetry.MetricGenerations])
	}
}
