// Package trace is Nautilus' one observability stream: a nil-safe,
// seeded tracer that carries both latency spans and the structured run
// events of a search - generation completed (with its cache lookups by
// outcome), individual evaluated, hint applied or skipped, worker
// busy/idle. Spans say where the wall clock went on one specific request;
// the records say how the search itself behaved (the paper's
// distinct-evaluation cost and the hint mechanisms behind it).
//
// Design constraints, in order:
//
//   - A nil *Tracer is the disabled stream and costs one nil check per
//     instrumentation point. Every method is nil-safe, so instrumented
//     code threads the tracer unconditionally and never branches on a
//     separate "enabled" flag.
//   - The stream never perturbs the search. Span IDs come from a private
//     splitmix64 stream seeded at construction and advanced by an atomic
//     counter - never from the run RNG - and sinks only observe decisions
//     the engine already made, so results are byte-identical with the
//     stream on or off (enforced by test).
//   - Allocation-lean: Active handles are values and records travel by
//     value, so Start/Child/End and the Record* methods allocate nothing
//     themselves; the only per-event cost beyond the clock reads is
//     whatever each sink does.
//
// Everything flows to Sinks, one method per kind. Provided here: Ring (a
// fixed-size flight recorder of the most recent spans) and Durations
// (per-span-name latency histograms for /metrics and the end-of-run span
// table). The telemetry package adds Collector (run events aggregated
// into a metric registry) and Journal (every span and record as JSONL).
package trace

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nautilus/internal/telemetry/hist"
)

// Span is one completed timed operation. Parent links express the
// structural nesting (generation -> dispatch -> cache batch) without the
// sinks needing to keep per-trace state.
type Span struct {
	// Trace groups the spans of one root operation (one generation, one
	// HTTP request). All descendants share the root's Trace.
	Trace uint64 `json:"trace"`
	// ID identifies this span within the process.
	ID uint64 `json:"id"`
	// Parent is the enclosing span's ID (0 for roots).
	Parent uint64 `json:"parent,omitempty"`
	// Name is the span taxonomy entry, e.g. "ga.generation" (DESIGN §9).
	Name string `json:"name"`
	// Session labels which service session produced the span ("" for CLI
	// runs).
	Session string `json:"session,omitempty"`
	// Start is when the operation began.
	Start time.Time `json:"-"`
	// Duration is how long it took.
	Duration time.Duration `json:"dur_ns"`
}

// Sink consumes the stream: completed spans and run-event records.
// Implementations must be safe for concurrent use and must return
// quickly - every method runs inline at the instrumentation point, on
// concurrent evaluation workers. Records arrive by value. Embed NopSink
// to consume only some kinds.
type Sink interface {
	OnSpan(Span)
	OnGeneration(GenerationRecord)
	OnEvaluation(EvaluationRecord)
	OnHint(HintRecord)
	OnPool(PoolRecord)
}

// NopSink discards everything. Embedded in a sink type, it supplies the
// methods for the kinds that sink ignores.
type NopSink struct{}

func (NopSink) OnSpan(Span)                   {}
func (NopSink) OnGeneration(GenerationRecord) {}
func (NopSink) OnEvaluation(EvaluationRecord) {}
func (NopSink) OnHint(HintRecord)             {}
func (NopSink) OnPool(PoolRecord)             {}

// Config parameterizes a Tracer.
type Config struct {
	// Session labels every span this tracer emits.
	Session string
	// Seed seeds the span-ID stream. Unrelated to (and never mixed with)
	// any search RNG; two tracers with the same seed emit the same IDs.
	Seed int64
	// Sinks receive every span and record, in order.
	Sinks []Sink
}

// Tracer mints spans and fans them, with every run-event record, out to
// its sinks. The nil Tracer is the disabled stream: every method no-ops
// and Enabled reports false.
type Tracer struct {
	session string
	seed    uint64
	ids     *atomic.Uint64
	sinks   []Sink
}

// New builds a tracer. Sinks equal to nil are dropped.
func New(cfg Config) *Tracer {
	t := &Tracer{session: cfg.Session, seed: splitmix64(uint64(cfg.Seed)), ids: new(atomic.Uint64)}
	t.add(cfg.Sinks)
	return t
}

// With returns a tracer delivering to t's sinks and then to sinks, with
// t's session label and span-ID stream (IDs stay unique across both). On
// a nil t it returns a fresh seed-0 tracer over sinks.
func (t *Tracer) With(sinks ...Sink) *Tracer {
	if t == nil {
		return New(Config{Sinks: sinks})
	}
	out := &Tracer{session: t.session, seed: t.seed, ids: t.ids, sinks: slices.Clone(t.sinks)}
	out.add(sinks)
	return out
}

// add appends the non-nil sinks.
func (t *Tracer) add(sinks []Sink) {
	for _, s := range sinks {
		if s != nil {
			t.sinks = append(t.sinks, s)
		}
	}
}

// Enabled reports whether anything consumes the stream; instrumented code
// may skip measuring phases or building records when false.
func (t *Tracer) Enabled() bool { return t != nil }

// splitmix64 is the SplitMix64 finalizer - the same mixing construction
// param.Space.Hash64 uses, applied to a private counter stream here.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// nextID mints a process-unique-enough span ID from the seeded stream.
func (t *Tracer) nextID() uint64 {
	id := splitmix64(t.seed + t.ids.Add(1))
	if id == 0 {
		id = 1 // 0 means "no parent"
	}
	return id
}

// Active is a started span. It is a value: copying is cheap, and the
// zero Active (from a nil tracer) no-ops everywhere.
type Active struct {
	t    *Tracer
	span Span
}

// Start begins a root span (a fresh trace). On a nil tracer it returns
// the inert zero Active without reading the clock.
func (t *Tracer) Start(name string) Active {
	if t == nil {
		return Active{}
	}
	id := t.nextID()
	return Active{t: t, span: Span{
		Trace:   id,
		ID:      id,
		Name:    name,
		Session: t.session,
		Start:   time.Now(),
	}}
}

// Child begins a span nested under a. Inert when a came from a nil
// tracer.
func (a Active) Child(name string) Active {
	if a.t == nil {
		return Active{}
	}
	return Active{t: a.t, span: Span{
		Trace:   a.span.Trace,
		ID:      a.t.nextID(),
		Parent:  a.span.ID,
		Name:    name,
		Session: a.t.session,
		Start:   time.Now(),
	}}
}

// End completes the span and delivers it to the sinks. Inert on the zero
// Active; calling End twice delivers twice (don't).
func (a Active) End() {
	if a.t == nil {
		return
	}
	a.span.Duration = time.Since(a.span.Start)
	a.t.deliver(a.span)
}

// Emit records a pre-measured child span under a - for phases whose
// duration was accumulated out-of-band (the GA's per-generation operator
// phases, backoff waits) where a live child span per sample would be too
// hot or structurally awkward. start may be zero when only the duration
// is known.
func (a Active) Emit(name string, start time.Time, d time.Duration) {
	if a.t == nil {
		return
	}
	a.t.deliver(Span{
		Trace:    a.span.Trace,
		ID:       a.t.nextID(),
		Parent:   a.span.ID,
		Name:     name,
		Session:  a.t.session,
		Start:    start,
		Duration: d,
	})
}

// Event records a pre-measured root span - for one-shot occurrences
// (fault injections, external stalls) measured out-of-band that have no
// enclosing Active. start may be zero when only the duration is known.
func (t *Tracer) Event(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	id := t.nextID()
	t.deliver(Span{
		Trace:    id,
		ID:       id,
		Name:     name,
		Session:  t.session,
		Start:    start,
		Duration: d,
	})
}

// deliver fans a completed span out to the sinks.
func (t *Tracer) deliver(s Span) {
	for _, sink := range t.sinks {
		sink.OnSpan(s)
	}
}

// RecordGeneration delivers one completed-generation record.
func (t *Tracer) RecordGeneration(r GenerationRecord) {
	if t == nil {
		return
	}
	for _, sink := range t.sinks {
		sink.OnGeneration(r)
	}
}

// RecordEvaluation delivers one individual's evaluation record.
func (t *Tracer) RecordEvaluation(r EvaluationRecord) {
	if t == nil {
		return
	}
	for _, sink := range t.sinks {
		sink.OnEvaluation(r)
	}
}

// RecordHint delivers one guided-mutation decision.
func (t *Tracer) RecordHint(r HintRecord) {
	if t == nil {
		return
	}
	for _, sink := range t.sinks {
		sink.OnHint(r)
	}
}

// RecordPool delivers one worker-pool scheduling event.
func (t *Tracer) RecordPool(r PoolRecord) {
	if t == nil {
		return
	}
	for _, sink := range t.sinks {
		sink.OnPool(r)
	}
}

// Ring is a fixed-capacity flight recorder: it retains the last N
// completed spans, overwriting the oldest. Snapshot returns them oldest
// first. The zero Ring (or nil) drops everything; run-event records are
// ignored.
type Ring struct {
	NopSink
	mu   sync.Mutex
	buf  []Span
	next int
	full bool
}

// NewRing returns a flight recorder retaining the last n spans (nil when
// n <= 0, which is a valid, always-empty Ring).
func NewRing(n int) *Ring {
	if n <= 0 {
		return nil
	}
	return &Ring{buf: make([]Span, n)}
}

// OnSpan implements Sink.
func (r *Ring) OnSpan(s Span) {
	if r == nil || len(r.buf) == 0 {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Snapshot returns the retained spans, oldest first.
func (r *Ring) Snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Span(nil), r.buf[:r.next]...)
	}
	out := make([]Span, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Durations aggregates span durations into a hist.Set keyed by span
// name - the bridge from individual spans to the per-phase latency
// histograms /metrics exposes. Run-event records are ignored.
type Durations struct {
	NopSink
	Hists *hist.Set
}

// NewDurations returns a duration-aggregating sink over a fresh set.
func NewDurations() *Durations { return &Durations{Hists: hist.NewSet()} }

// OnSpan implements Sink.
func (d *Durations) OnSpan(s Span) {
	if d == nil || d.Hists == nil {
		return
	}
	d.Hists.Observe(s.Name, int64(s.Duration))
}
