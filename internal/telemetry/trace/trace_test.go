package trace

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// collect is a test sink accumulating every span and counting records.
type collect struct {
	mu      sync.Mutex
	spans   []Span
	records int
}

func (c *collect) OnSpan(s Span) {
	c.mu.Lock()
	c.spans = append(c.spans, s)
	c.mu.Unlock()
}

func (c *collect) record() {
	c.mu.Lock()
	c.records++
	c.mu.Unlock()
}

func (c *collect) OnGeneration(GenerationRecord) { c.record() }
func (c *collect) OnEvaluation(EvaluationRecord) { c.record() }
func (c *collect) OnHint(HintRecord)             { c.record() }
func (c *collect) OnPool(PoolRecord)             { c.record() }

// recordAll sends one record of every kind through tr.
func recordAll(tr *Tracer) {
	tr.RecordGeneration(GenerationRecord{Generation: 1, BestValue: 2, MeanFitness: 3, CacheHits: 4, CacheMisses: 2})
	tr.RecordEvaluation(EvaluationRecord{Generation: 1, Feasible: true, Fitness: 4})
	tr.RecordHint(HintRecord{Generation: 1, Gene: 2, Mechanism: HintValueBias, Guided: true})
	tr.RecordPool(PoolRecord{Event: PoolTask, Worker: 1})
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports Enabled")
	}
	a := tr.Start("root")
	b := a.Child("child")
	a.Emit("phase", time.Time{}, time.Second)
	b.End()
	a.End() // must not panic, must not deliver anywhere
	tr.Event("event", time.Time{}, time.Second)
	recordAll(tr)
}

// TestNopSinkZeroAlloc pins the stream's core promise: records travel by
// value, so sending every kind through a nil stream or through one whose
// only sink discards everything allocates nothing - the GA hot loop pays
// a nil check or one empty interface call per event.
func TestNopSinkZeroAlloc(t *testing.T) {
	for name, tr := range map[string]*Tracer{
		"nil": nil,
		"nop": New(Config{Sinks: []Sink{NopSink{}}}),
	} {
		if n := testing.AllocsPerRun(200, func() { recordAll(tr) }); n != 0 {
			t.Errorf("%s stream allocates %v per record batch, want 0", name, n)
		}
	}
}

// TestRecordsFanOut checks every record kind reaches every sink, spans
// and records share one delivery order, and With extends a stream without
// disturbing the original or its span-ID sequence.
func TestRecordsFanOut(t *testing.T) {
	a, b := &collect{}, &collect{}
	tr := New(Config{Seed: 3, Sinks: []Sink{a, nil}})
	recordAll(tr)
	both := tr.With(b)
	recordAll(both)
	both.Start("op").End()
	if a.records != 8 || b.records != 4 {
		t.Errorf("records: original sink %d (want 8), added sink %d (want 4)", a.records, b.records)
	}
	if len(a.spans) != 1 || len(b.spans) != 1 {
		t.Fatalf("spans: %d and %d, want 1 each", len(a.spans), len(b.spans))
	}
	// The derived stream shares the ID sequence: the next span from the
	// original tracer does not reuse the ID the derived one minted.
	tr.Start("next").End()
	if a.spans[1].ID == a.spans[0].ID {
		t.Error("With restarted the span-ID stream")
	}
	if got := (*Tracer)(nil).With(b); !got.Enabled() {
		t.Error("With on a nil tracer should build a live stream")
	}
}

func TestParentChildLinks(t *testing.T) {
	sink := &collect{}
	tr := New(Config{Session: "s1", Seed: 42, Sinks: []Sink{sink}})
	root := tr.Start("ga.generation")
	child := root.Child("ga.dispatch")
	child.End()
	root.Emit("ga.selection", time.Time{}, 5*time.Millisecond)
	root.End()

	if len(sink.spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(sink.spans))
	}
	disp, sel, gen := sink.spans[0], sink.spans[1], sink.spans[2]
	if gen.Name != "ga.generation" || gen.Parent != 0 {
		t.Errorf("root span = %+v, want name ga.generation with no parent", gen)
	}
	if disp.Parent != gen.ID || disp.Trace != gen.Trace {
		t.Errorf("child span %+v not linked under root %+v", disp, gen)
	}
	if sel.Parent != gen.ID || sel.Duration != 5*time.Millisecond {
		t.Errorf("emitted span %+v, want parent %d dur 5ms", sel, gen.ID)
	}
	for _, s := range sink.spans {
		if s.Session != "s1" {
			t.Errorf("span %q session = %q, want s1", s.Name, s.Session)
		}
		if s.ID == 0 {
			t.Errorf("span %q has zero ID", s.Name)
		}
	}
}

func TestSeededIDsAreDeterministic(t *testing.T) {
	run := func() []uint64 {
		sink := &collect{}
		tr := New(Config{Seed: 7, Sinks: []Sink{sink}})
		a := tr.Start("a")
		a.Child("b").End()
		a.End()
		ids := make([]uint64, 0, len(sink.spans))
		for _, s := range sink.spans {
			ids = append(ids, s.ID)
		}
		return ids
	}
	first, second := run(), run()
	if len(first) != 2 {
		t.Fatalf("got %d spans, want 2", len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("span IDs differ across identical runs: %v vs %v", first, second)
		}
	}
}

func TestRingFlightRecorder(t *testing.T) {
	r := NewRing(4)
	tr := New(Config{Sinks: []Sink{r}})
	for i := 0; i < 10; i++ {
		tr.Start(fmt.Sprintf("op%d", i)).End()
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(got))
	}
	for i, s := range got {
		want := fmt.Sprintf("op%d", 6+i)
		if s.Name != want {
			t.Errorf("ring[%d] = %q, want %q (oldest first)", i, s.Name, want)
		}
	}

	if nr := NewRing(0); nr != nil {
		t.Error("NewRing(0) should return nil")
	}
	var nilRing *Ring
	nilRing.OnSpan(Span{}) // must not panic
	if s := nilRing.Snapshot(); s != nil {
		t.Errorf("nil ring snapshot = %v, want nil", s)
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing(8)
	tr := New(Config{Sinks: []Sink{r}})
	tr.Start("only").End()
	got := r.Snapshot()
	if len(got) != 1 || got[0].Name != "only" {
		t.Fatalf("partial ring snapshot = %v, want [only]", got)
	}
}

func TestDurationsSink(t *testing.T) {
	d := NewDurations()
	tr := New(Config{Sinks: []Sink{d}})
	root := tr.Start("phase.a")
	root.Emit("phase.b", time.Time{}, 2*time.Millisecond)
	root.Emit("phase.b", time.Time{}, 4*time.Millisecond)
	root.End()

	snap := d.Hists.Snapshot()
	if snap["phase.b"].Count != 2 {
		t.Errorf("phase.b count = %d, want 2", snap["phase.b"].Count)
	}
	if snap["phase.b"].Sum != int64(6*time.Millisecond) {
		t.Errorf("phase.b sum = %d, want %d", snap["phase.b"].Sum, int64(6*time.Millisecond))
	}
	if snap["phase.a"].Count != 1 {
		t.Errorf("phase.a count = %d, want 1", snap["phase.a"].Count)
	}
}

func TestConcurrentSpans(t *testing.T) {
	r := NewRing(64)
	d := NewDurations()
	tr := New(Config{Sinks: []Sink{r, d}})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := tr.Start("root")
				a.Child("leaf").End()
				a.End()
			}
		}()
	}
	wg.Wait()
	snap := d.Hists.Snapshot()
	if snap["root"].Count != 1600 || snap["leaf"].Count != 1600 {
		t.Fatalf("counts = %d/%d, want 1600/1600", snap["root"].Count, snap["leaf"].Count)
	}
	if got := len(r.Snapshot()); got != 64 {
		t.Fatalf("ring snapshot len = %d, want 64", got)
	}
}
