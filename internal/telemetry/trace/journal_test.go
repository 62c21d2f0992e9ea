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
// label, interleaved with the run-event lines, and a generation line
// carries its cache lookups by outcome.
func TestJournalSink(t *testing.T) {
	var buf bytes.Buffer
	j := telemetry.NewJournal(&buf)
	tr := trace.New(trace.Config{Session: "sess", Seed: 1, Sinks: []trace.Sink{j}})
	root := tr.Start("ga.generation")
	root.Child("ga.dispatch").End()
	tr.RecordGeneration(trace.GenerationRecord{Generation: 2, CacheHits: 5, CacheMisses: 3, CacheDedups: 1, CacheTransient: 1})
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
	if kinds[1] != "generation" || kinds[2] != "span" {
		t.Errorf("line kinds = %v, want [span generation span]", kinds)
	}
	var gen map[string]any
	if err := json.Unmarshal(lines[1], &gen); err != nil {
		t.Fatal(err)
	}
	for field, want := range map[string]float64{
		"gen": 2, "cache_hits": 5, "cache_misses": 3, "cache_dedups": 1,
		"cache_transient": 1, "cache_collisions": 0,
	} {
		if got, ok := gen[field].(float64); !ok || got != want {
			t.Errorf("generation line %s = %v, want %v", field, gen[field], want)
		}
	}
}
