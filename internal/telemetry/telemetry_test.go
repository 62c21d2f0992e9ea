package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"nautilus/internal/telemetry/trace"
)

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if reg.Counter("c") != c {
		t.Error("re-registering a counter returned a new instance")
	}

	g := reg.Gauge("g")
	g.Set(2.5)
	g.Add(1.5)
	if g.Value() != 4 {
		t.Errorf("gauge = %v, want 4", g.Value())
	}
	g.Max(3) // lower: no change
	if g.Value() != 4 {
		t.Errorf("Max lowered the gauge to %v", g.Value())
	}
	g.Max(7)
	if g.Value() != 7 {
		t.Errorf("Max did not raise the gauge: %v", g.Value())
	}

	h := reg.Histogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 5000} {
		h.Observe(v)
	}
	s := reg.Snapshot()
	hs := s.Histograms["h"]
	wantCounts := []int64{1, 2, 1, 1}
	if len(hs.Counts) != len(wantCounts) {
		t.Fatalf("histogram has %d buckets, want %d", len(hs.Counts), len(wantCounts))
	}
	for i, want := range wantCounts {
		if hs.Counts[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, hs.Counts[i], want)
		}
	}
	if hs.Count != 5 || hs.Sum != 5060.5 {
		t.Errorf("count/sum = %d/%v, want 5/5060.5", hs.Count, hs.Sum)
	}
	if s.Counters["c"] != 5 || s.Gauges["g"] != 7 {
		t.Errorf("snapshot counters/gauges wrong: %+v", s)
	}
}

// TestSnapshotJSONSafe ensures a snapshot with non-finite gauges still
// marshals - /debug/sessions and the benchmark's metric dumps depend on
// it.
func TestSnapshotJSONSafe(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("bad").Set(math.Inf(-1))
	reg.Gauge("nan").Set(math.NaN())
	reg.Gauge("ok").Set(1)
	s := reg.Snapshot()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
	if _, bad := s.Gauges["bad"]; bad {
		t.Error("non-finite gauge leaked into snapshot")
	}
	if !strings.Contains(string(data), `"ok":1`) {
		t.Errorf("finite gauge missing from %s", data)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				reg.Counter("n").Inc()
				reg.Gauge("g").Add(1)
				reg.Histogram("h", []float64{10, 100}).Observe(float64(i))
			}
		}()
	}
	// Snapshots taken mid-stream agree with themselves: a histogram's
	// buckets add up to its count, so an exposition's +Inf bucket never
	// trails its finite ones.
	for i := 0; i < 200; i++ {
		h, ok := reg.Snapshot().Histograms["h"]
		var sum int64
		for _, n := range h.Counts {
			sum += n
		}
		if ok && sum != h.Count {
			t.Fatalf("mid-stream snapshot: buckets add up to %d, count %d", sum, h.Count)
		}
	}
	wg.Wait()
	s := reg.Snapshot()
	if s.Counters["n"] != 8000 {
		t.Errorf("counter = %d, want 8000", s.Counters["n"])
	}
	if s.Gauges["g"] != 8000 {
		t.Errorf("gauge = %v, want 8000", s.Gauges["g"])
	}
	if s.Histograms["h"].Count != 8000 {
		t.Errorf("histogram count = %d, want 8000", s.Histograms["h"].Count)
	}
}

// TestCollectorAggregation feeds every record kind into a collector and
// checks its registry: generation records add their cache fields to the
// cache counters, and the registry holds only what sums across runs -
// the two pool gauges and no per-run gauge or histogram.
func TestCollectorAggregation(t *testing.T) {
	col := NewCollector(nil)
	col.OnGeneration(trace.GenerationRecord{Generation: 0, BestValue: 10, MeanFitness: -3, UniqueGenomes: 7, DistinctEvals: 10, Elapsed: time.Millisecond,
		CacheMisses: 10, CacheTransient: 1})
	col.OnGeneration(trace.GenerationRecord{Generation: 1, BestValue: 8, MeanFitness: -2, UniqueGenomes: 5, DistinctEvals: 14, Elapsed: time.Millisecond,
		CacheHits: 3, CacheMisses: 4, CacheDedups: 2, CacheCollisions: 1})
	col.OnEvaluation(trace.EvaluationRecord{Feasible: true, Fitness: 1})
	col.OnEvaluation(trace.EvaluationRecord{Feasible: false, Fitness: math.Inf(-1)})
	col.OnHint(trace.HintRecord{Mechanism: trace.HintGeneImportance})
	col.OnHint(trace.HintRecord{Mechanism: trace.HintValueTarget, Guided: true})
	col.OnHint(trace.HintRecord{Mechanism: trace.HintValueUniform, Guided: false})
	col.OnPool(trace.PoolRecord{Event: trace.PoolWorkerBusy, Worker: 0})
	col.OnPool(trace.PoolRecord{Event: trace.PoolTask, Worker: 0})
	col.OnPool(trace.PoolRecord{Event: trace.PoolWorkerIdle, Worker: 0})

	s := col.Registry().Snapshot()
	checks := map[string]int64{
		MetricGenerations:       2,
		MetricEvaluations:       2,
		MetricEvalInfeasible:    1,
		MetricCacheHits:         3,
		MetricCacheMisses:       14,
		MetricCacheDedups:       2,
		MetricCacheTransient:    1,
		MetricCacheCollisions:   1,
		MetricPoolTasks:         1,
		"hints.gene_importance": 1,
		"hints.value_target":    1,
		"hints.value_uniform":   1,
		gateGuidedMetric:        1,
		gateUnguidedMetric:      1,
	}
	for name, want := range checks {
		if got := s.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if len(s.Counters) != len(checks)+2 { // two hint mechanisms never fired
		t.Errorf("registry holds %d counters, want %d: %v", len(s.Counters), len(checks)+2, s.Counters)
	}
	if s.Gauges[MetricPoolBusyMax] != 1 || s.Gauges[MetricPoolBusy] != 0 {
		t.Errorf("pool gauges: busy=%v max=%v", s.Gauges[MetricPoolBusy], s.Gauges[MetricPoolBusyMax])
	}
	if len(s.Gauges) != 2 || len(s.Histograms) != 0 {
		t.Errorf("registry holds gauges %v and histograms %v, want only the two pool gauges", s.Gauges, s.Histograms)
	}
	if got := len(col.Generations()); got != 2 {
		t.Errorf("retained %d generations, want 2", got)
	}

	var buf bytes.Buffer
	if err := col.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"run telemetry", "distinct-evals", "evaluations:", "hints:", "confidence:", "pool:",
		"cache:        19 lookups: 3 hits (15.8% hit ratio), 14 misses, 2 deduped waits, 1 hash collisions\n",
		"faults:       1 transient evaluation failures withdrawn from the cache\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestJournalJSONL checks every record kind emits one parseable JSON line
// with its discriminator, and that non-finite floats encode as null rather
// than breaking the encoder.
func TestJournalJSONL(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.OnGeneration(trace.GenerationRecord{Generation: 3, BestValue: math.Inf(1), BestFitness: math.Inf(-1), MeanFitness: math.NaN(), DistinctEvals: 12,
		CacheHits: 4, CacheMisses: 2, CacheDedups: 1})
	j.OnEvaluation(trace.EvaluationRecord{Generation: 3, Feasible: true, Fitness: 1.5})
	j.OnHint(trace.HintRecord{Generation: 3, Gene: 1, Mechanism: trace.HintValueBias, Guided: true})
	j.OnPool(trace.PoolRecord{Event: trace.PoolWorkerBusy, Worker: 2})
	j.OnSpan(trace.Span{Trace: 1, ID: 1, Name: "ga.generation", Duration: 1500 * time.Microsecond})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("journal has %d lines, want 5:\n%s", len(lines), buf.String())
	}
	wantEvents := []string{"generation", "eval", "hint", "pool", "span"}
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		if obj["event"] != wantEvents[i] {
			t.Errorf("line %d event = %v, want %s", i, obj["event"], wantEvents[i])
		}
		if _, ok := obj["t_ms"].(float64); !ok {
			t.Errorf("line %d lacks numeric t_ms: %s", i, line)
		}
	}
	var gen map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &gen); err != nil {
		t.Fatal(err)
	}
	if v, present := gen["best"]; present && v != nil {
		t.Errorf("non-finite best should be omitted or null, got %v", v)
	}
	if gen["distinct_evals"].(float64) != 12 {
		t.Errorf("distinct_evals = %v, want 12", gen["distinct_evals"])
	}
	// The cache fields are always present, zeros included.
	for field, want := range map[string]float64{"cache_hits": 4, "cache_misses": 2, "cache_dedups": 1, "cache_transient": 0, "cache_collisions": 0} {
		if got, ok := gen[field].(float64); !ok || got != want {
			t.Errorf("%s = %v, want %v", field, gen[field], want)
		}
	}
	var span map[string]any
	if err := json.Unmarshal([]byte(lines[4]), &span); err != nil {
		t.Fatal(err)
	}
	if span["name"] != "ga.generation" || span["dur_us"] != 1500.0 || span["dur_ns"] != 1.5e6 {
		t.Errorf("span line = %v, want name ga.generation, dur_us 1500, dur_ns 1.5e6", span)
	}
}

func TestJournalConcurrent(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				j.OnPool(trace.PoolRecord{Event: trace.PoolTask, Worker: w})
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("journal has %d lines, want 400", len(lines))
	}
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("interleaved write corrupted a line: %s", line)
		}
	}
}

// TestJournalConcurrentMixedWriters drives run-event records and spans
// from concurrent goroutines and checks that no line is torn, every line
// is valid JSON with the mandatory discriminator fields, and nothing is
// lost.
func TestJournalConcurrentMixedWriters(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				switch i % 5 {
				case 0:
					j.OnGeneration(trace.GenerationRecord{Generation: i, MeanFitness: math.NaN()})
				case 1:
					j.OnEvaluation(trace.EvaluationRecord{Generation: i, Feasible: true, Fitness: float64(i)})
				case 2:
					j.OnHint(trace.HintRecord{Generation: i, Gene: w, Mechanism: trace.HintGeneUniform})
				case 3:
					j.OnPool(trace.PoolRecord{Event: trace.PoolTask, Worker: w})
				case 4:
					j.OnSpan(trace.Span{Name: "op", ID: uint64(i + 1), Duration: time.Duration(w)})
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != workers*perWorker {
		t.Fatalf("journal has %d lines, want %d", len(lines), workers*perWorker)
	}
	counts := map[string]int{}
	for _, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("interleaved write corrupted a line: %v\n%s", err, line)
		}
		ev, _ := obj["event"].(string)
		if ev == "" {
			t.Fatalf("line lacks event discriminator: %s", line)
		}
		if _, ok := obj["t_ms"].(float64); !ok {
			t.Fatalf("line lacks numeric t_ms: %s", line)
		}
		counts[ev]++
	}
	want := workers * perWorker / 5
	for _, ev := range []string{"generation", "eval", "hint", "pool", "span"} {
		if counts[ev] != want {
			t.Errorf("event %q count = %d, want %d", ev, counts[ev], want)
		}
	}
}
