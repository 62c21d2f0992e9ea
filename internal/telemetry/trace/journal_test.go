package trace_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"nautilus/internal/telemetry"
	"nautilus/internal/telemetry/trace"
)

// TestJournalSink checks the telemetry Journal as a sink of the stream:
// spans become "span" lines carrying the trace/parent linkage and session
// label, interleaved with the run-event lines.
func TestJournalSink(t *testing.T) {
	var buf bytes.Buffer
	j := telemetry.NewJournal(&buf)
	tr := trace.New(trace.Config{Session: "sess", Seed: 1, Sinks: []trace.Sink{j}})
	root := tr.Start("ga.generation")
	root.Child("ga.dispatch").End()
	tr.RecordCache(trace.CacheRecord{Event: trace.CacheMiss})
	root.End()
	if err := j.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}

	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("got %d journal lines, want 3", len(lines))
	}
	var line struct {
		Event   string  `json:"event"`
		TMillis float64 `json:"t_ms"`
		Name    string  `json:"name"`
		Session string  `json:"session"`
		Trace   uint64  `json:"trace"`
		ID      uint64  `json:"id"`
		Parent  uint64  `json:"parent"`
		DurNs   int64   `json:"dur_ns"`
	}
	if err := json.Unmarshal(lines[0], &line); err != nil {
		t.Fatalf("bad JSONL line %s: %v", lines[0], err)
	}
	if line.Event != "span" || line.Name != "ga.dispatch" || line.Session != "sess" {
		t.Errorf("line = %+v, want span/ga.dispatch/sess", line)
	}
	if line.Parent == 0 || line.Trace == 0 {
		t.Errorf("line %+v missing trace/parent linkage", line)
	}
	var kinds []string
	for _, l := range lines {
		var ev struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(l, &ev); err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, ev.Event)
	}
	if kinds[1] != "cache" || kinds[2] != "span" {
		t.Errorf("line kinds = %v, want [span cache span]", kinds)
	}
}
