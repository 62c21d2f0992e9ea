package ga

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"testing"

	"nautilus/internal/dataset"
	"nautilus/internal/metrics"
	"nautilus/internal/telemetry"
	"nautilus/internal/telemetry/trace"
)

// stream builds a trace stream over sinks.
func stream(sinks ...trace.Sink) *trace.Tracer {
	return trace.New(trace.Config{Seed: 1, Sinks: sinks})
}

// TestTelemetryDoesNotPerturbSearch is the determinism half of the
// stream's contract: the same seed produces byte-identical results with
// the stream off, discarded, collected, journaled, or feeding every sink
// at once - at any parallelism.
func TestTelemetryDoesNotPerturbSearch(t *testing.T) {
	s, eval := quadSpace()
	obj := metrics.MinimizeMetric("cost")
	run := func(tr *trace.Tracer, par int) Result {
		e, err := NewContext(s, obj, dataset.AdaptContext(eval), Config{Seed: 7, Generations: 25, Parallelism: par, Tracer: tr}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return mustRun(t, e)
	}
	want := run(nil, 1)
	cases := map[string]*trace.Tracer{
		"nop":       stream(trace.NopSink{}),
		"collector": stream(telemetry.NewCollector(nil)),
		"journal":   stream(telemetry.NewJournal(io.Discard)),
		"every sink": stream(telemetry.NewCollector(nil), telemetry.NewJournal(io.Discard),
			trace.NewRing(16), trace.NewDurations()),
	}
	for name, tr := range cases {
		for _, par := range []int{1, 4} {
			if got := run(tr, par); !reflect.DeepEqual(got, want) {
				t.Errorf("stream %q at parallelism %d changed the result:\n got %+v\nwant %+v",
					name, par, got, want)
			}
		}
	}
}

// TestCollectorSeesRun checks the engine actually reports generations,
// evaluations, cache lookups (on its generation records), and pool
// events through the stream.
func TestCollectorSeesRun(t *testing.T) {
	s, eval := quadSpace()
	col := telemetry.NewCollector(nil)
	e, err := NewContext(s, metrics.MinimizeMetric("cost"), dataset.AdaptContext(eval),
		Config{Seed: 7, Generations: 10, Tracer: stream(col)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, e)

	snap := col.Registry().Snapshot()
	if got := snap.Counters[telemetry.MetricGenerations]; got != 11 {
		t.Errorf("generations counter = %d, want 11", got)
	}
	wantEvals := int64(11 * e.Config().PopulationSize)
	if got := snap.Counters[telemetry.MetricEvaluations]; got != wantEvals {
		t.Errorf("evaluations counter = %d, want %d", got, wantEvals)
	}
	misses := snap.Counters[telemetry.MetricCacheMisses]
	hits := snap.Counters[telemetry.MetricCacheHits]
	if int(misses) != res.DistinctEvals {
		t.Errorf("cache misses %d != distinct evals %d", misses, res.DistinctEvals)
	}
	if int(hits+misses) != res.Cache.Total {
		t.Errorf("cache lookups %d != total queries %d", hits+misses, res.Cache.Total)
	}
	// Each generation is one cache batch whose misses the pool evaluates
	// (on the calling goroutine at Parallelism 1): every miss is one pool
	// task, and hits never reach the pool.
	if got := snap.Counters[telemetry.MetricPoolTasks]; got != misses {
		t.Errorf("pool tasks = %d, want %d (cache misses)", got, misses)
	}
	gens := col.Generations()
	if len(gens) != 11 {
		t.Fatalf("collector retained %d generations, want 11", len(gens))
	}
	last := gens[len(gens)-1]
	if last.BestValue != res.BestValue {
		t.Errorf("last generation best %v != result best %v", last.BestValue, res.BestValue)
	}
	if last.DistinctEvals != res.DistinctEvals {
		t.Errorf("last generation distinct %d != result %d", last.DistinctEvals, res.DistinctEvals)
	}
}

// TestResultCacheStats checks the run's cache accounting: total queries
// are population * generations, and hits + distinct = total.
func TestResultCacheStats(t *testing.T) {
	s, eval := quadSpace()
	e, err := NewContext(s, metrics.MinimizeMetric("cost"), dataset.AdaptContext(eval), Config{Seed: 3, Generations: 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, e)
	st := res.Cache
	wantTotal := 21 * e.Config().PopulationSize
	if st.Total != wantTotal {
		t.Errorf("total queries = %d, want %d", st.Total, wantTotal)
	}
	if st.Distinct != res.DistinctEvals {
		t.Errorf("stats distinct %d != result distinct %d", st.Distinct, res.DistinctEvals)
	}
	if st.Hits != st.Total-st.Distinct {
		t.Errorf("hits %d != total-distinct %d", st.Hits, st.Total-st.Distinct)
	}
	wantRate := float64(st.Hits) / float64(st.Total)
	if st.HitRate != wantRate {
		t.Errorf("hit rate %v, want %v", st.HitRate, wantRate)
	}
	if st.HitRate <= 0 {
		t.Error("a converging GA should revisit designs, hit rate was 0")
	}
}

// BenchmarkRunTelemetryNop is BenchmarkRun with a stream whose only sink
// discards everything: comparing allocs/op against BenchmarkRun shows
// what a live but unconsumed stream adds to the GA hot loop.
func BenchmarkRunTelemetryNop(b *testing.B) {
	b.ReportAllocs()
	s, eval := quadSpace()
	tr := stream(trace.NopSink{})
	for i := 0; i < b.N; i++ {
		e, err := NewContext(s, metrics.MinimizeMetric("cost"), dataset.AdaptContext(eval),
			Config{Seed: int64(i), Tracer: tr}, nil)
		if err != nil {
			b.Fatal(err)
		}
		mustRun(b, e)
	}
}

// TestNopTelemetryAddsNoAllocs verifies that a live stream costs no heap
// beyond what its sinks do: an identical run allocates exactly as much
// with a stream whose only sink discards everything as with no stream at
// all - spans, generation records, and every per-evaluation and pool
// record travel by value - with misses evaluated on the calling
// goroutine (parallelism 1) and on pool workers (parallelism 4). The runtime occasionally adds
// one allocation to a measurement (pooled batch scratch dropped by a
// concurrent GC cycle) and never removes one, so each side's minimum over
// a few measurements is compared. Under the race detector, whose own
// allocations vary run to run by a few percent, the counts need only
// agree within 5% - a per-event allocation would add well over half.
func TestNopTelemetryAddsNoAllocs(t *testing.T) {
	s, eval := quadSpace()
	obj := metrics.MinimizeMetric("cost")
	nop := stream(trace.NopSink{})
	for _, par := range []int{1, 4} {
		measure := func(tr *trace.Tracer) float64 {
			least := math.Inf(1)
			for k := 0; k < 5; k++ {
				least = min(least, testing.AllocsPerRun(10, func() {
					e, err := NewContext(s, obj, dataset.AdaptContext(eval), Config{Seed: 11, Generations: 15, Parallelism: par, Tracer: tr}, nil)
					if err != nil {
						t.Fatal(err)
					}
					mustRun(t, e)
				}))
			}
			return least
		}
		base, got := measure(nil), measure(nop)
		slack := 0.0
		if raceEnabled {
			slack = base / 20
		}
		if math.Abs(got-base) > slack {
			t.Errorf("parallelism %d: discarding stream allocates %v per run, nil stream %v", par, got, base)
		}
	}
}

// TestOneStreamSinksAgree runs one search with a Collector, a Journal,
// and a Durations sink on the same stream and checks they saw the same
// events: the cache fields of the journal's generation lines sum to the
// collector's cache counters, which equal the result's own cache
// accounting (hits + misses + dedups = Total, misses = Distinct +
// Transient), and its span lines per name equal the Durations counts.
func TestOneStreamSinksAgree(t *testing.T) {
	s, eval := quadSpace()
	col := telemetry.NewCollector(nil)
	durs := trace.NewDurations()
	var buf bytes.Buffer
	j := telemetry.NewJournal(&buf)
	e, err := NewContext(s, metrics.MinimizeMetric("cost"), dataset.AdaptContext(eval),
		Config{Seed: 5, Generations: 12, Tracer: stream(col, j, durs)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, e)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var lines struct{ gens, hits, misses, dedups, transient, collisions int64 }
	spanLines := map[string]int64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var line struct {
			Event      string `json:"event"`
			Name       string `json:"name"`
			Hits       *int64 `json:"cache_hits"`
			Misses     *int64 `json:"cache_misses"`
			Dedups     *int64 `json:"cache_dedups"`
			Transient  *int64 `json:"cache_transient"`
			Collisions *int64 `json:"cache_collisions"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad journal line %q: %v", sc.Text(), err)
		}
		switch line.Event {
		case "generation":
			if line.Hits == nil || line.Misses == nil || line.Dedups == nil || line.Transient == nil || line.Collisions == nil {
				t.Fatalf("generation line lacks a cache field: %s", sc.Text())
			}
			lines.gens++
			lines.hits += *line.Hits
			lines.misses += *line.Misses
			lines.dedups += *line.Dedups
			lines.transient += *line.Transient
			lines.collisions += *line.Collisions
		case "span":
			spanLines[line.Name]++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	reg := col.Registry()
	counter := func(name string) int64 { return reg.Counter(name).Value() }
	if lines.gens != counter(telemetry.MetricGenerations) {
		t.Errorf("generations: %d journal lines, collector %d", lines.gens, counter(telemetry.MetricGenerations))
	}
	for _, c := range []struct {
		name         string
		journal, col int64
	}{
		{"hits", lines.hits, counter(telemetry.MetricCacheHits)},
		{"misses", lines.misses, counter(telemetry.MetricCacheMisses)},
		{"dedups", lines.dedups, counter(telemetry.MetricCacheDedups)},
		{"transient", lines.transient, counter(telemetry.MetricCacheTransient)},
		{"collisions", lines.collisions, counter(telemetry.MetricCacheCollisions)},
	} {
		if c.journal != c.col {
			t.Errorf("cache %s: journal lines sum to %d, collector %d", c.name, c.journal, c.col)
		}
	}
	st := res.Cache
	if lookups := lines.hits + lines.misses + lines.dedups; lookups != int64(st.Total) || lines.misses != int64(st.Distinct+st.Transient) {
		t.Errorf("journal: %d lookups and %d misses, result: %d total, %d distinct, %d transient",
			lookups, lines.misses, st.Total, st.Distinct, st.Transient)
	}
	snaps := durs.Hists.Snapshot()
	if len(spanLines) == 0 || len(spanLines) != len(snaps) {
		t.Fatalf("span names: journal %v, durations %d names", spanLines, len(snaps))
	}
	for name, n := range spanLines {
		if got := snaps[name].Count; got != n {
			t.Errorf("span %q: %d journal lines, %d in Durations", name, n, got)
		}
	}
}
