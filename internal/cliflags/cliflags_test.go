package cliflags

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nautilus/internal/telemetry/trace"
)

func newFS() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(discard{})
	return fs
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestParallelismValidate(t *testing.T) {
	cases := []struct {
		args      []string
		allowZero bool
		wantErr   bool
	}{
		{[]string{}, false, false},
		{[]string{"-par", "4"}, false, false},
		{[]string{"-par", "0"}, false, true},  // search convention: min 1
		{[]string{"-par", "0"}, true, false},  // harness convention: 0 = all cores
		{[]string{"-par", "-1"}, true, true},  // negative never valid
		{[]string{"-par", "-1"}, false, true}, // negative never valid
	}
	for i, tc := range cases {
		fs := newFS()
		def := 1
		if tc.allowZero {
			def = 0
		}
		p := NewParallelism(fs, def, tc.allowZero)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("case %d: parse: %v", i, err)
		}
		if err := p.Validate(); (err != nil) != tc.wantErr {
			t.Errorf("case %d (%v, allowZero=%v): Validate() = %v, wantErr %v",
				i, tc.args, tc.allowZero, err, tc.wantErr)
		}
	}

	fs := newFS()
	p := NewParallelism(fs, 0, true)
	if err := fs.Parse([]string{"-par", "7"}); err != nil {
		t.Fatal(err)
	}
	if p.Value() != 7 {
		t.Errorf("Value() = %d, want 7", p.Value())
	}
}

func TestSupervisionValidateAndPolicy(t *testing.T) {
	bad := [][]string{
		{"-eval-timeout", "-1s"},
		{"-eval-retries", "-1"},
		{"-quarantine-after", "-2"},
	}
	for _, args := range bad {
		fs := newFS()
		s := NewSupervision(fs, true)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("%v: parse: %v", args, err)
		}
		if err := s.Validate(); err == nil {
			t.Errorf("%v: Validate() = nil, want error", args)
		}
	}

	fs := newFS()
	s := NewSupervision(fs, true)
	if err := fs.Parse([]string{"-eval-timeout", "30s", "-eval-retries", "5", "-quarantine-after", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate() = %v", err)
	}
	if !s.Enabled() {
		t.Error("Enabled() = false with all supervision flags set")
	}
	p := s.Policy()
	if p.Timeout != 30*time.Second || p.MaxAttempts != 5 || p.QuarantineAfter != 3 {
		t.Errorf("Policy() = %+v, want 30s/5/3", p)
	}

	// Defaults: supervision stays off, policy zero.
	fs = newFS()
	s = NewSupervision(fs, false)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if s.Enabled() {
		t.Error("Enabled() = true with no flags set")
	}
	if s.Quarantine != nil {
		t.Error("Quarantine registered without withQuarantine")
	}
	if p := s.Policy(); p.QuarantineAfter != 0 {
		t.Errorf("Policy().QuarantineAfter = %d without the flag, want 0", p.QuarantineAfter)
	}
}

func TestObservabilityWantSummary(t *testing.T) {
	fs := newFS()
	o := NewObservability(fs, true)
	if o.WantSummary() {
		t.Error("WantSummary() = true before -summary is set")
	}
	if err := fs.Parse([]string{"-summary"}); err != nil {
		t.Fatal(err)
	}
	if !o.WantSummary() {
		t.Error("WantSummary() = false with -summary set")
	}
	for _, gone := range []string{"-trace", "-trace-out"} {
		if err := fs.Parse([]string{gone, "x"}); err == nil {
			t.Errorf("%s parsed, but the flag no longer exists", gone)
		}
	}

	// Tools without a flight-recorder dump do not register -trace-buffer.
	fs = newFS()
	o = NewObservability(fs, false)
	if o.TraceBuffer != nil || fs.Lookup("trace-buffer") != nil {
		t.Error("-trace-buffer registered without withBuffer")
	}
}

// TestTracingBuild checks the one stream the observability flags
// assemble: a zero stack with no flags, -trace-buffer validation, and a
// full stack whose spans and records reach the journal, the ring, the
// collector, and the summary's span table.
func TestTracingBuild(t *testing.T) {
	// Zero stack: no flags, nil tracer, every method no-ops.
	fs := newFS()
	o := NewObservability(fs, true)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	st, err := o.Build("", 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tracer != nil || st.Ring != nil || st.Durations != nil || st.Collector != nil {
		t.Errorf("zero stack not zero: %+v", st)
	}
	if err := st.DumpRing(discard{}); err != nil {
		t.Errorf("DumpRing on zero stack: %v", err)
	}
	if err := st.WriteSummary(discard{}); err != nil {
		t.Errorf("WriteSummary on zero stack: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Errorf("Close on zero stack: %v", err)
	}

	// Negative buffer rejected.
	fs = newFS()
	o = NewObservability(fs, true)
	if err := fs.Parse([]string{"-trace-buffer", "-1"}); err != nil {
		t.Fatal(err)
	}
	if err := o.Validate(); err == nil {
		t.Error("Validate() = nil with -trace-buffer -1")
	}

	// Full stack: spans and records reach the journal, the ring, the
	// collector, and the summary.
	out := filepath.Join(t.TempDir(), "events.jsonl")
	fs = newFS()
	o = NewObservability(fs, true)
	if err := fs.Parse([]string{"-summary", "-journal", out, "-trace-buffer", "8"}); err != nil {
		t.Fatal(err)
	}
	st, err = o.Build("", 42)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tracer == nil || st.Ring == nil || st.Durations == nil || st.Collector == nil {
		t.Fatal("enabled stack missing tracer/ring/durations/collector")
	}
	sp := st.Tracer.Start("test.op")
	sp.Child("test.child").End()
	sp.End()
	st.Tracer.RecordGeneration(trace.GenerationRecord{Generation: 1, CacheHits: 1})
	if err := st.Close(); err != nil {
		t.Fatalf("Close() = %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"test.child"`) || !strings.Contains(string(data), `"event":"generation"`) {
		t.Errorf("journal missing spans or records:\n%s", data)
	}
	if got := len(st.Ring.Snapshot()); got != 2 {
		t.Errorf("ring retained %d spans, want 2", got)
	}
	var buf strings.Builder
	if err := st.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"run telemetry", "1 hits", "span latency", "test.op"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, buf.String())
		}
	}
}

func TestStackZeroCost(t *testing.T) {
	fs := newFS()
	o := NewObservability(fs, false)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	st, err := o.Build("", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Tracer != nil {
		t.Error("Tracer non-nil with no observability flags")
	}
	if st.Collector != nil {
		t.Error("Collector non-nil with no observability flags")
	}
	if st.Registry() != nil {
		t.Error("Registry() non-nil with no collector")
	}
	if err := st.Close(); err != nil {
		t.Errorf("Close() on zero stack = %v", err)
	}
}

func TestStackAssembly(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "events.jsonl")
	fs := newFS()
	o := NewObservability(fs, false)
	if err := fs.Parse([]string{"-summary", "-journal", journal}); err != nil {
		t.Fatal(err)
	}
	st, err := o.Build("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Collector == nil || st.Tracer == nil || st.Registry() == nil {
		t.Fatal("summary+journal stack missing collector/tracer/registry")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close() = %v", err)
	}
	if _, err := os.Stat(journal); err != nil {
		t.Errorf("journal file: %v", err)
	}

	// An unwritable journal path surfaces as a Build error.
	fs = newFS()
	o = NewObservability(fs, false)
	if err := fs.Parse([]string{"-journal", filepath.Join(t.TempDir(), "no", "such", "dir", "x.jsonl")}); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Build("", 0); err == nil || !strings.Contains(err.Error(), "journal") {
		t.Errorf("Build() with bad journal path = %v, want journal error", err)
	}
}
