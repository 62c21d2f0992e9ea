package cliflags

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
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
	o := NewObservability(fs)
	if o.WantSummary() {
		t.Error("WantSummary() = true before -summary is set")
	}
	if err := fs.Parse([]string{"-summary"}); err != nil {
		t.Fatal(err)
	}
	if !o.WantSummary() {
		t.Error("WantSummary() = false with -summary set")
	}
	if err := fs.Parse([]string{"-trace"}); err == nil {
		t.Error("-trace parsed, but the flag no longer exists")
	}
}

func TestTracingBuild(t *testing.T) {
	// Zero stack: no flags, nil tracer, every method no-ops.
	fs := newFS()
	tr := NewTracing(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Enabled() {
		t.Error("Enabled() = true with no tracing flags")
	}
	st, err := tr.Build("", 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tracer != nil || st.Ring != nil || st.Durations != nil {
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
	tr = NewTracing(fs)
	if err := fs.Parse([]string{"-trace-buffer", "-1"}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err == nil {
		t.Error("Validate() = nil with -trace-buffer -1")
	}

	// Full stack: spans reach the file, the ring, and the summary.
	out := filepath.Join(t.TempDir(), "spans.jsonl")
	fs = newFS()
	tr = NewTracing(fs)
	if err := fs.Parse([]string{"-trace-out", out, "-trace-buffer", "8"}); err != nil {
		t.Fatal(err)
	}
	st, err = tr.Build("", 42)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tracer == nil || st.Ring == nil || st.Durations == nil {
		t.Fatal("enabled stack missing tracer/ring/durations")
	}
	sp := st.Tracer.Start("test.op")
	sp.Child("test.child").End()
	sp.End()
	if err := st.Close(); err != nil {
		t.Fatalf("Close() = %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"test.child"`) {
		t.Errorf("trace-out file missing spans:\n%s", data)
	}
	if got := len(st.Ring.Snapshot()); got != 2 {
		t.Errorf("ring retained %d spans, want 2", got)
	}
	var buf strings.Builder
	if err := st.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "test.op") {
		t.Errorf("span summary missing test.op:\n%s", buf.String())
	}

	// An unwritable trace-out path surfaces as a Build error.
	fs = newFS()
	tr = NewTracing(fs)
	if err := fs.Parse([]string{"-trace-out", filepath.Join(t.TempDir(), "no", "dir", "x.jsonl")}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Build("", 1); err == nil || !strings.Contains(err.Error(), "trace-out") {
		t.Errorf("Build() with bad trace-out path = %v, want trace-out error", err)
	}
}

func TestStackZeroCost(t *testing.T) {
	fs := newFS()
	o := NewObservability(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	st, err := o.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Recorder != nil {
		t.Error("Recorder non-nil with no observability flags")
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
	o := NewObservability(fs)
	if err := fs.Parse([]string{"-summary", "-journal", journal}); err != nil {
		t.Fatal(err)
	}
	st, err := o.Build()
	if err != nil {
		t.Fatal(err)
	}
	if st.Collector == nil || st.Recorder == nil || st.Registry() == nil {
		t.Fatal("summary+journal stack missing collector/recorder/registry")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close() = %v", err)
	}
	if _, err := os.Stat(journal); err != nil {
		t.Errorf("journal file: %v", err)
	}

	// An unwritable journal path surfaces as a Build error.
	fs = newFS()
	o = NewObservability(fs)
	if err := fs.Parse([]string{"-journal", filepath.Join(t.TempDir(), "no", "such", "dir", "x.jsonl")}); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Build(); err == nil || !strings.Contains(err.Error(), "journal") {
		t.Errorf("Build() with bad journal path = %v, want journal error", err)
	}
}
