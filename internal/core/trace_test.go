package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"nautilus/internal/dataset"
	"nautilus/internal/ga"
	"nautilus/internal/metrics"
	"nautilus/internal/resilience"
	"nautilus/internal/telemetry"
	"nautilus/internal/telemetry/trace"
)

// TestTracingResultsByteIdentical is the observability layer's hard
// invariant: a search feeding every sink of the stream (flight recorder,
// duration histograms, JSONL journal, collector, supervisor spans)
// returns a Result deeply equal to the same search with the stream off,
// at parallelism 1 and 4. Span IDs come from the tracer's own seeded
// stream, so nothing here may perturb the run RNG.
func TestTracingResultsByteIdentical(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) { checkTracedRun(t, par) })
	}
}

func checkTracedRun(t *testing.T, par int) {
	s := bigSpace()
	eval := monotoneEval(s)
	obj := metrics.MinimizeMetric("cost")
	// Each run is supervised; the traced run's supervisor reports to its
	// stream.
	run := func(tr *trace.Tracer, extra ...SearchOption) ga.Result {
		t.Helper()
		sup, err := resilience.NewSupervisor(s, dataset.AdaptContext(eval), resilience.Policy{Tracer: tr}, nil)
		if err != nil {
			t.Fatal(err)
		}
		req := SearchRequest{
			Space:       s,
			Objective:   obj,
			EvaluateCtx: sup.Evaluate,
			Config: ga.Config{
				Seed:           11,
				Generations:    15,
				PopulationSize: 8,
				Parallelism:    par,
			},
		}
		res, err := Search(context.Background(), req, append([]SearchOption{WithGuidance(hintedGuidance(t, s, 0.9))}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	plain := run(nil)

	var journal bytes.Buffer
	ring := trace.NewRing(64)
	durs := trace.NewDurations()
	j := telemetry.NewJournal(&journal)
	col := telemetry.NewCollector(nil)
	tr := trace.New(trace.Config{
		Session: "determinism",
		Seed:    7,
		Sinks:   []trace.Sink{ring, durs, j},
	})
	traced := run(tr, WithTracer(tr), WithRecorder(col))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("tracing changed the search result:\n got %+v\nwant %+v", traced, plain)
	}

	// The traced run must actually have produced spans, or the invariant
	// test is vacuous: every phase of the span taxonomy shows up in the
	// duration histograms, the cache's batch phases included at every
	// parallelism.
	snap := durs.Hists.Snapshot()
	names := []string{
		"ga.generation", "ga.dispatch",
		"ga.selection", "ga.crossover", "ga.mutation",
		"cache.batch", "cache.probe", "cache.fanout",
		"resilience.evaluate", "resilience.attempt",
	}
	for _, name := range names {
		h, ok := snap[name]
		if !ok || h.Count == 0 {
			t.Errorf("span %q missing from duration histograms (got %d names)", name, len(snap))
		}
	}
	if len(ring.Snapshot()) == 0 {
		t.Error("flight recorder captured no spans")
	}
	// The sink added through WithRecorder rides the same stream.
	if got := col.Registry().Counter(telemetry.MetricGenerations).Value(); got != 16 {
		t.Errorf("collector saw %d generations, want 16", got)
	}

	// Journal lines decode as span events carrying the session label and
	// parent links that resolve within the same trace.
	ids := make(map[uint64]bool)
	type line struct {
		Event   string `json:"event"`
		Session string `json:"session"`
		Trace   uint64 `json:"trace"`
		ID      uint64 `json:"id"`
		Parent  uint64 `json:"parent"`
	}
	var spans []line
	sc := bufio.NewScanner(&journal)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad journal line %q: %v", sc.Text(), err)
		}
		if l.Event != "span" {
			continue
		}
		if l.Session != "determinism" {
			t.Fatalf("span missing session label: %+v", l)
		}
		ids[l.ID] = true
		spans = append(spans, l)
	}
	if len(spans) == 0 {
		t.Fatal("journal captured no spans")
	}
	for _, l := range spans {
		if l.Parent != 0 && !ids[l.Parent] {
			t.Errorf("span %d has dangling parent %d", l.ID, l.Parent)
		}
	}
}

// TestTracingDeterministicSpanIDs re-runs the same traced search with the
// same tracer seed and expects the exact same span-ID sequence in the
// flight recorder - seeded splitmix64, not crypto/rand or the run RNG.
func TestTracingDeterministicSpanIDs(t *testing.T) {
	s := bigSpace()
	req := SearchRequest{
		Space:     s,
		Objective: metrics.MinimizeMetric("cost"),
		Evaluate:  monotoneEval(s),
		Config:    ga.Config{Seed: 3, Generations: 6, PopulationSize: 6},
	}
	capture := func() []uint64 {
		ring := trace.NewRing(4096)
		tr := trace.New(trace.Config{Seed: 42, Sinks: []trace.Sink{ring}})
		if _, err := Search(context.Background(), req, WithTracer(tr)); err != nil {
			t.Fatal(err)
		}
		spans := ring.Snapshot()
		ids := make([]uint64, len(spans))
		for i, sp := range spans {
			ids[i] = sp.ID
		}
		return ids
	}
	a, b := capture(), capture()
	if len(a) == 0 {
		t.Fatal("no spans captured")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("span-ID sequences differ across identical runs: %d vs %d spans", len(a), len(b))
	}
}
