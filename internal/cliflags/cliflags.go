// Package cliflags is the one home of the flag wiring the Nautilus command
// line tools share: evaluation parallelism (-par), evaluation supervision
// (-eval-timeout, -eval-retries, -quarantine-after), and run observability
// (-summary, -journal, -debug-addr, -trace-buffer). Before this package
// each tool re-declared the flags and re-implemented their validation and
// the telemetry sink assembly; now there is exactly one usage string, one
// validation path, and one assembly routine per concern, and a new tool
// opts into a concern with one call.
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

// Observability bundles the telemetry flags: -summary, -journal,
// -debug-addr, and (for tools that can dump it) -trace-buffer. Every sink
// they ask for hangs off one trace stream.
type Observability struct {
	Summary   *bool
	Journal   *string
	DebugAddr *string
	// TraceBuffer is nil when the tool did not register -trace-buffer.
	TraceBuffer *int
}

// NewObservability registers the observability flags on fs. withBuffer
// adds -trace-buffer for tools that dump the span flight recorder when a
// run fails or is interrupted.
func NewObservability(fs *flag.FlagSet, withBuffer bool) *Observability {
	o := &Observability{
		Summary:   fs.Bool("summary", false, "print the end-of-run telemetry summary (per-generation trajectory, cache, hints, pool, span latencies)"),
		Journal:   fs.String("journal", "", "write every span and run event (generation, eval, hint, cache, pool) as JSON lines to this file"),
		DebugAddr: DebugAddr(fs),
	}
	if withBuffer {
		o.TraceBuffer = fs.Int("trace-buffer", 0, "retain the last N spans in memory and dump them on interrupt or failure (0 = off)")
	}
	return o
}

// DebugAddr registers just -debug-addr, for tools (mapspace) that serve a
// custom registry rather than the full collector stack.
func DebugAddr(fs *flag.FlagSet) *string {
	return fs.String("debug-addr", "", "serve live Prometheus metrics and pprof on this address, e.g. localhost:6060")
}

// Validate rejects out-of-range observability values.
func (o *Observability) Validate() error {
	if o.TraceBuffer != nil && *o.TraceBuffer < 0 {
		return fmt.Errorf("-trace-buffer must be non-negative (0 = off), got %d", *o.TraceBuffer)
	}
	return nil
}

// WantSummary reports whether -summary was set.
func (o *Observability) WantSummary() bool {
	return *o.Summary
}

// Stack is the assembled trace stream an Observability flag set asked
// for. The zero stack (no flags set) costs nothing: Tracer is nil - the
// disabled stream - and every method no-ops.
type Stack struct {
	// Tracer is the run's stream, non-nil when any sink was assembled;
	// hand it to the engine (core.WithTracer). It is observational only:
	// span IDs come from a private seeded stream, so results are
	// byte-identical either way.
	Tracer *trace.Tracer
	// Collector aggregates run events when -summary or -debug-addr asked
	// for them; nil otherwise.
	Collector *telemetry.Collector
	// Durations aggregates per-span-name latency histograms for the
	// summary's span table; nil without -summary.
	Durations *trace.Durations
	// Ring is the flight recorder behind -trace-buffer; nil otherwise.
	Ring    *trace.Ring
	closers []func() error
}

// Build assembles the sinks on one stream: a collector backing the
// summary report and the debug endpoint, a duration aggregator for the
// summary's span table, a JSONL journal, a flight-recorder ring, and the
// debug HTTP listener. The debug endpoint's URL, when serving, is printed
// to stdout (matching the tools' existing contract). session labels every
// span ("" for CLI runs); seed seeds the span-ID stream (pass the search
// seed so traces of the same run are comparable). Call Close when the run
// is done.
func (o *Observability) Build(session string, seed int64) (*Stack, error) {
	st := &Stack{}
	var sinks []trace.Sink
	if o.WantSummary() || *o.DebugAddr != "" {
		st.Collector = telemetry.NewCollector(nil)
		sinks = append(sinks, st.Collector)
	}
	if o.WantSummary() {
		st.Durations = trace.NewDurations()
		sinks = append(sinks, st.Durations)
	}
	if *o.Journal != "" {
		f, err := os.Create(*o.Journal)
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		j := telemetry.NewJournal(f)
		st.closers = append(st.closers, j.Close, f.Close)
		sinks = append(sinks, j)
	}
	if o.TraceBuffer != nil && *o.TraceBuffer > 0 {
		st.Ring = trace.NewRing(*o.TraceBuffer)
		sinks = append(sinks, st.Ring)
	}
	if *o.DebugAddr != "" {
		addr, err := telemetry.ServeDebug(*o.DebugAddr, st.Collector.Registry())
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("debug endpoint: %w", err)
		}
		fmt.Printf("debug endpoint:  http://%s/metrics\n", addr)
	}
	if len(sinks) > 0 {
		st.Tracer = trace.New(trace.Config{Session: session, Seed: seed, Sinks: sinks})
	}
	return st, nil
}

// WriteSummary prints the collector's end-of-run report followed by the
// per-span-name latency table (count, p50, p99, mean). No-op without
// -summary (the only flag that assembles Durations).
func (s *Stack) WriteSummary(w io.Writer) error {
	if s.Durations == nil {
		return nil
	}
	if err := s.Collector.WriteSummary(w); err != nil {
		return err
	}
	snaps := s.Durations.Hists.Snapshot()
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
		h := snaps[name]
		us := func(ns float64) float64 { return ns / 1e3 }
		if _, err := fmt.Fprintf(w, "  %-20s %7d  %10.1fµs %10.1fµs %10.1fµs\n",
			name, h.Count, us(h.P50()), us(h.P99()), us(h.Mean())); err != nil {
			return err
		}
	}
	return nil
}

// DumpRing writes the flight recorder's retained spans as JSON lines,
// oldest first - the post-mortem view of where the final moments of an
// interrupted or failed run went. No-op without -trace-buffer.
func (s *Stack) DumpRing(w io.Writer) error {
	if s.Ring == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, sp := range s.Ring.Snapshot() {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return nil
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

// Close flushes and closes the journal. Safe on the zero stack.
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
