// Package cliflags is the one home of the flag wiring the Nautilus command
// line tools share: evaluation parallelism (-par), evaluation supervision
// (-eval-timeout, -eval-retries, -quarantine-after), run observability
// (-summary, -journal, -debug-addr), and span tracing (-trace-out,
// -trace-buffer). Before this
// package each tool re-declared the flags and re-implemented their
// validation and the telemetry sink assembly; now there is exactly one
// usage string, one validation path, and one assembly routine per concern,
// and a new tool opts into a concern with one call.
package cliflags

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"nautilus/internal/resilience"
	"nautilus/internal/telemetry"
	"nautilus/internal/telemetry/trace"
)

// Parallelism is the shared -par flag.
type Parallelism struct {
	N *int
	// allowZero: 0 means "all cores" (harness tools) rather than invalid
	// (search tools, which need at least one evaluation worker).
	allowZero bool
}

// NewParallelism registers -par on fs with the given default. allowZero
// selects the harness convention (0 = all cores) over the search-tool
// convention (minimum 1).
func NewParallelism(fs *flag.FlagSet, def int, allowZero bool) *Parallelism {
	usage := "parallel fitness evaluations (capped by population size; results are identical at any level)"
	if allowZero {
		usage = "max parallel workers (0 = all cores, 1 = sequential; output is identical at any level)"
	}
	return &Parallelism{N: fs.Int("par", def, usage), allowZero: allowZero}
}

// Validate rejects out-of-range -par values.
func (p *Parallelism) Validate() error {
	minimum := 1
	if p.allowZero {
		minimum = 0
	}
	if *p.N < minimum {
		if p.allowZero {
			return fmt.Errorf("-par must be non-negative (0 = all cores), got %d", *p.N)
		}
		return fmt.Errorf("-par must be at least 1, got %d", *p.N)
	}
	return nil
}

// Value returns the parsed parallelism.
func (p *Parallelism) Value() int { return *p.N }

// Supervision bundles the evaluation-supervision flags: -eval-timeout,
// -eval-retries, and (for tools with a quarantine breaker) -quarantine-after.
type Supervision struct {
	Timeout *time.Duration
	Retries *int
	// Quarantine is nil when the tool did not register -quarantine-after.
	Quarantine *int
}

// NewSupervision registers the supervision flags on fs. withQuarantine adds
// -quarantine-after for tools that run searches (a one-shot enumeration has
// nothing to quarantine).
func NewSupervision(fs *flag.FlagSet, withQuarantine bool) *Supervision {
	s := &Supervision{
		Timeout: fs.Duration("eval-timeout", 0, "per-attempt evaluation deadline, e.g. 30s (0 = none)"),
		Retries: fs.Int("eval-retries", 0, "max attempts per evaluation for transient failures (0 = default 3)"),
	}
	if withQuarantine {
		s.Quarantine = fs.Int("quarantine-after", 0, "demote a point to infeasible after N exhausted retry rounds (0 = default 2)")
	}
	return s
}

// Validate rejects out-of-range supervision values.
func (s *Supervision) Validate() error {
	if *s.Timeout < 0 {
		return fmt.Errorf("-eval-timeout must be non-negative, got %v", *s.Timeout)
	}
	if *s.Retries < 0 {
		return fmt.Errorf("-eval-retries must be non-negative (0 = default), got %d", *s.Retries)
	}
	if s.Quarantine != nil && *s.Quarantine < 0 {
		return fmt.Errorf("-quarantine-after must be non-negative (0 = default), got %d", *s.Quarantine)
	}
	return nil
}

// Enabled reports whether any supervision flag asks for the supervised
// evaluation path.
func (s *Supervision) Enabled() bool {
	return *s.Timeout > 0 || *s.Retries > 0 || (s.Quarantine != nil && *s.Quarantine > 0)
}

// Policy builds the resilience policy the flags describe.
func (s *Supervision) Policy() resilience.Policy {
	p := resilience.Policy{Timeout: *s.Timeout, MaxAttempts: *s.Retries}
	if s.Quarantine != nil {
		p.QuarantineAfter = *s.Quarantine
	}
	return p
}

// Observability bundles the telemetry flags: -summary, -journal, and
// -debug-addr.
type Observability struct {
	Summary   *bool
	Journal   *string
	DebugAddr *string
}

// NewObservability registers the observability flags on fs.
func NewObservability(fs *flag.FlagSet) *Observability {
	return &Observability{
		Summary:   fs.Bool("summary", false, "print the end-of-run telemetry summary (per-generation trajectory, cache, hints, pool)"),
		Journal:   fs.String("journal", "", "append structured run events as JSON lines to this file"),
		DebugAddr: DebugAddr(fs),
	}
}

// DebugAddr registers just -debug-addr, for tools (mapspace) that serve a
// custom registry rather than the full collector stack.
func DebugAddr(fs *flag.FlagSet) *string {
	return fs.String("debug-addr", "", "serve live metrics (expvar) and pprof on this address, e.g. localhost:6060")
}

// WantSummary reports whether -summary was set.
func (o *Observability) WantSummary() bool {
	return *o.Summary
}

// Stack is the assembled telemetry sinks an Observability flag set asked
// for. The zero stack (no flags set) costs nothing: Recorder is nil and
// every method no-ops.
type Stack struct {
	// Collector aggregates run events when -summary or -debug-addr asked
	// for them; nil otherwise.
	Collector *telemetry.Collector
	// Recorder is the combined sink to hand the engine; nil when no
	// observability flag was set.
	Recorder telemetry.Recorder
	closers  []func() error
}

// Build assembles the sinks: a collector backing the summary report and
// the debug endpoint, a JSONL journal, and the debug HTTP listener. The
// debug endpoint's URL, when serving, is printed to stdout (matching the
// tools' existing contract). Call Close when the run is done.
func (o *Observability) Build() (*Stack, error) {
	st := &Stack{}
	var recorders []telemetry.Recorder
	if o.WantSummary() || *o.DebugAddr != "" {
		st.Collector = telemetry.NewCollector(nil)
		recorders = append(recorders, st.Collector)
	}
	if *o.Journal != "" {
		f, err := os.Create(*o.Journal)
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		j := telemetry.NewJournal(f)
		st.closers = append(st.closers, j.Close, f.Close)
		recorders = append(recorders, j)
	}
	if *o.DebugAddr != "" {
		addr, err := telemetry.ServeDebug(*o.DebugAddr, st.Collector.Registry())
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("debug endpoint: %w", err)
		}
		fmt.Printf("debug endpoint:  http://%s/debug/vars\n", addr)
	}
	if len(recorders) > 0 {
		st.Recorder = telemetry.Multi(recorders...)
	}
	return st, nil
}

// Tracing bundles the span-tracing flags: -trace-out streams completed
// spans as JSON lines, -trace-buffer keeps an in-memory flight recorder of
// the last N spans for post-mortems.
type Tracing struct {
	Out    *string
	Buffer *int
}

// NewTracing registers -trace-out and -trace-buffer on fs.
func NewTracing(fs *flag.FlagSet) *Tracing {
	return &Tracing{
		Out:    fs.String("trace-out", "", "append completed spans (generation, dispatch, cache, retry phases) as JSON lines to this file"),
		Buffer: fs.Int("trace-buffer", 0, "retain the last N spans in memory and dump them on interrupt or failure (0 = off)"),
	}
}

// Validate rejects out-of-range tracing values.
func (t *Tracing) Validate() error {
	if *t.Buffer < 0 {
		return fmt.Errorf("-trace-buffer must be non-negative (0 = off), got %d", *t.Buffer)
	}
	return nil
}

// Enabled reports whether any tracing flag asks for a live tracer.
func (t *Tracing) Enabled() bool { return *t.Out != "" || *t.Buffer > 0 }

// TraceStack is the assembled tracer and its sinks. The zero stack (no
// tracing flags set) costs nothing: Tracer is nil - the disabled tracer -
// and every method no-ops.
type TraceStack struct {
	// Tracer is non-nil when a tracing flag was set; hand it to the engine
	// (core.WithTracer). Tracing is observational only: span IDs come from
	// a private seeded stream, so results are byte-identical either way.
	Tracer *trace.Tracer
	// Ring is the flight recorder behind -trace-buffer; nil otherwise.
	Ring *trace.Ring
	// Durations aggregates per-span-name latency histograms for the
	// end-of-run span summary; nil when tracing is off.
	Durations *trace.Durations
	closers   []func() error
}

// Build assembles the tracer the flags describe: a JSONL journal sink for
// -trace-out, a flight-recorder ring for -trace-buffer, and a duration
// aggregator for the span summary. session labels every span ("" for CLI
// runs); seed seeds the span-ID stream (pass the search seed so traces of
// the same run are comparable). Call Close when the run is done.
func (t *Tracing) Build(session string, seed int64) (*TraceStack, error) {
	st := &TraceStack{}
	if !t.Enabled() {
		return st, nil
	}
	var sinks []trace.Sink
	if *t.Out != "" {
		f, err := os.Create(*t.Out)
		if err != nil {
			return nil, fmt.Errorf("trace-out: %w", err)
		}
		j := telemetry.NewJournal(f)
		st.closers = append(st.closers, j.Close, f.Close)
		sinks = append(sinks, trace.JournalSink{J: j})
	}
	if *t.Buffer > 0 {
		st.Ring = trace.NewRing(*t.Buffer)
		sinks = append(sinks, st.Ring)
	}
	st.Durations = trace.NewDurations()
	sinks = append(sinks, st.Durations)
	st.Tracer = trace.New(trace.Config{Session: session, Seed: seed, Sinks: sinks})
	return st, nil
}

// DumpRing writes the flight recorder's retained spans as JSON lines,
// oldest first - the post-mortem view of where the final moments of an
// interrupted or failed run went. No-op without -trace-buffer.
func (ts *TraceStack) DumpRing(w io.Writer) error {
	if ts.Ring == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, sp := range ts.Ring.Snapshot() {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return nil
}

// WriteSummary prints the per-span-name latency table (count, p50, p99,
// mean) the Durations sink aggregated. No-op when tracing is off.
func (ts *TraceStack) WriteSummary(w io.Writer) error {
	if ts.Durations == nil {
		return nil
	}
	snaps := ts.Durations.Hists.Snapshot()
	names := make([]string, 0, len(snaps))
	for name := range snaps {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "span latency (count, p50, p99, mean):\n"); err != nil {
		return err
	}
	for _, name := range names {
		s := snaps[name]
		us := func(ns float64) float64 { return ns / 1e3 }
		if _, err := fmt.Fprintf(w, "  %-20s %7d  %10.1fµs %10.1fµs %10.1fµs\n",
			name, s.Count, us(s.P50()), us(s.P99()), us(s.Mean())); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and closes the trace-out sink. Safe on the zero stack.
func (ts *TraceStack) Close() error {
	var first error
	for _, c := range ts.closers {
		if err := c(); err != nil && first == nil {
			first = err
		}
	}
	ts.closers = nil
	return first
}

// Registry returns the collector's metric registry, or nil when no
// collector was assembled - ready to pass where a *telemetry.Registry is
// optional (resilience supervisors, checkpoint savers).
func (s *Stack) Registry() *telemetry.Registry {
	if s.Collector == nil {
		return nil
	}
	return s.Collector.Registry()
}

// Close flushes and closes the journal sinks. Safe on the zero stack.
func (s *Stack) Close() error {
	var first error
	for _, c := range s.closers {
		if err := c(); err != nil && first == nil {
			first = err
		}
	}
	s.closers = nil
	return first
}
