package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// End-to-end exit-code tests against the built binary: orchestration around
// long searches keys off the documented 0/1/2/3 contract (success, fatal,
// usage, interrupted-with-checkpoint), so each code is pinned here by
// running the real executable.

var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "nautilus-e2e-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "nautilus")
	if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build nautilus: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runNautilus runs the binary to completion and returns its exit code and
// output streams.
func runNautilus(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(binPath, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("nautilus %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return code, stdout.String(), stderr.String()
}

// resultLines extracts the deterministic result block from a successful
// run's stdout - the lines orchestration (and the server tests) compare.
func resultLines(out string) string {
	var kept []string
	for _, l := range strings.Split(out, "\n") {
		for _, p := range []string{"best value:", "configuration:", "all metrics:", "synthesis jobs:"} {
			if strings.HasPrefix(l, p) {
				kept = append(kept, l)
			}
		}
	}
	return strings.Join(kept, "\n")
}

// TestExitSuccess: a feasible search exits 0 and prints the result block.
func TestExitSuccess(t *testing.T) {
	code, out, stderr := runNautilus(t,
		"-ip", "fft", "-query", "min-luts", "-gens", "5", "-pop", "6", "-seed", "3", "-par", "1")
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr:\n%s", code, stderr)
	}
	for _, want := range []string{"best value:", "configuration:", "synthesis jobs:"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
}

// TestObservedRunMatchesPlain: a supervised run under 20% injected faults
// feeding every observability sink prints the same result block as a
// plain run, its one journal carries every event kind plus the spans -
// the supervisor's among them - and -summary ends with the span table.
// Every generation line carries the generation's cache lookups by
// outcome, and over the run they add up to the summary's cache and
// faults lines and to the result's synthesis-job accounting.
func TestObservedRunMatchesPlain(t *testing.T) {
	base := []string{"-ip", "fft", "-query", "min-luts", "-gens", "6", "-pop", "6", "-seed", "3", "-par", "2"}
	_, plain, _ := runNautilus(t, base...)
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	code, out, stderr := runNautilus(t, append(base, "-fault-rate", "0.2",
		"-summary", "-journal", journal, "-trace-buffer", "8")...)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr:\n%s", code, stderr)
	}
	if got, want := resultLines(out), resultLines(plain); got != want || want == "" {
		t.Errorf("observed run's result differs:\n got %q\nwant %q", got, want)
	}
	if !strings.Contains(out, "== run telemetry ==") || !strings.Contains(out, "span latency") {
		t.Errorf("summary lacks the run report or span table:\n%s", out)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	kinds, spans := map[string]bool{}, map[string]bool{}
	var hits, misses, dedups, transient int
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev struct {
			Event      string   `json:"event"`
			TMs        *float64 `json:"t_ms"`
			Name       string   `json:"name"`
			Hits       *int     `json:"cache_hits"`
			Misses     *int     `json:"cache_misses"`
			Dedups     *int     `json:"cache_dedups"`
			Transient  *int     `json:"cache_transient"`
			Collisions *int     `json:"cache_collisions"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil || ev.TMs == nil {
			t.Fatalf("bad journal line (%v): %s", err, line)
		}
		kinds[ev.Event] = true
		switch ev.Event {
		case "span":
			spans[ev.Name] = true
		case "generation":
			if ev.Hits == nil || ev.Misses == nil || ev.Dedups == nil || ev.Transient == nil || ev.Collisions == nil {
				t.Fatalf("generation line lacks a cache field: %s", line)
			}
			hits, misses, dedups, transient = hits+*ev.Hits, misses+*ev.Misses, dedups+*ev.Dedups, transient+*ev.Transient
		}
	}
	for _, want := range []string{"generation", "eval", "hint", "pool", "span"} {
		if !kinds[want] {
			t.Errorf("journal has no %q lines (kinds %v)", want, kinds)
		}
	}
	for _, want := range []string{"resilience.evaluate", "resilience.attempt"} {
		if !spans[want] {
			t.Errorf("journal has no %s span (spans %v)", want, spans)
		}
	}
	lookups := hits + misses + dedups
	wantCache := fmt.Sprintf("cache:        %d lookups: %d hits (", lookups, hits)
	wantJobs := fmt.Sprintf("synthesis jobs:  %d distinct design evaluations (%d queries", misses-transient, lookups)
	for _, want := range []string{wantCache, wantJobs} {
		if !strings.Contains(out, want) {
			t.Errorf("journal's generation lines sum to %q, which the output lacks:\n%s", want, out)
		}
	}
	if wantFaults := fmt.Sprintf("faults:       %d transient", transient); transient > 0 && !strings.Contains(out, wantFaults) {
		t.Errorf("journal's generation lines sum to %q, which the summary lacks:\n%s", wantFaults, out)
	}
}

// TestExitUsage: every front-door validation failure exits 2, before any
// search work happens.
func TestExitUsage(t *testing.T) {
	cases := map[string][]string{
		"pop-too-small":    {"-pop", "1"},
		"zero-gens":        {"-gens", "0"},
		"zero-par":         {"-par", "0"},
		"negative-seed":    {"-seed", "-1"},
		"unknown-ip":       {"-ip", "dsp"},
		"unknown-query":    {"-ip", "fft", "-query", "min-carbon"},
		"unknown-guidance": {"-guidance", "psychic"},
		"bad-fault-rate":   {"-fault-rate", "1.5"},
		"bad-ckpt-every":   {"-checkpoint-every", "0"},
		"bad-trace-buffer": {"-trace-buffer", "-1"},
		"retired-flag":     {"-trace-out", "spans.jsonl"},
		"undefined-flag":   {"-no-such-flag"},
	}
	for name, args := range cases {
		code, _, stderr := runNautilus(t, args...)
		if code != 2 {
			t.Errorf("%s (%v): exit %d, want 2\nstderr:\n%s", name, args, code, stderr)
		}
	}
}

// TestExitFatal: failures after flag validation - unreadable inputs,
// rejected checkpoints - exit 1 with a diagnostic on stderr.
func TestExitFatal(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.json")
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]string{
		"missing-resume": {"-resume", missing},
		"corrupt-resume": {"-resume", garbage},
		"missing-hints":  {"-hints", missing},
		"corrupt-hints":  {"-hints", garbage},
	}
	for name, args := range cases {
		all := append([]string{"-ip", "fft", "-query", "min-luts", "-gens", "3", "-pop", "4"}, args...)
		code, _, stderr := runNautilus(t, all...)
		if code != 1 {
			t.Errorf("%s: exit %d, want 1\nstderr:\n%s", name, code, stderr)
		}
		if stderr == "" {
			t.Errorf("%s: fatal exit carried no diagnostic", name)
		}
	}
}

// TestExitInterrupted: SIGTERM mid-search with -checkpoint exits 3 with the
// state saved, and -resume continues to the exact result the uninterrupted
// run prints - the full preemption round trip, against the real binary.
func TestExitInterrupted(t *testing.T) {
	base := []string{"-ip", "fft", "-query", "min-luts", "-gens", "1200", "-pop", "8", "-seed", "5", "-par", "1"}

	// Uninterrupted reference (no checkpointing: runs in milliseconds).
	code, refOut, stderr := runNautilus(t, base...)
	if code != 0 {
		t.Fatalf("reference run: exit %d\nstderr:\n%s", code, stderr)
	}
	ref := resultLines(refOut)
	if ref == "" {
		t.Fatalf("reference run printed no result block:\n%s", refOut)
	}

	// Checkpointed run: per-generation snapshots throttle it to seconds,
	// leaving a wide window to preempt once the first snapshot lands.
	ckpt := filepath.Join(t.TempDir(), "ckpt.json")
	cmd := exec.Command(binPath, append(base, "-checkpoint", ckpt, "-checkpoint-every", "1")...)
	var stdout2, stderr2 bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout2, &stderr2
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatalf("no checkpoint appeared within 10s\nstderr:\n%s", stderr2.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 3 {
		t.Fatalf("interrupted run: err %v (want exit 3)\nstderr:\n%s", err, stderr2.String())
	}
	if !strings.Contains(stderr2.String(), "state saved") {
		t.Errorf("exit 3 without the resume hint on stderr:\n%s", stderr2.String())
	}

	// Resume: same flags plus -resume, exit 0, byte-identical result block.
	code, resOut, stderr3 := runNautilus(t, append(base, "-resume", ckpt)...)
	if code != 0 {
		t.Fatalf("resumed run: exit %d\nstderr:\n%s", code, stderr3)
	}
	if got := resultLines(resOut); got != ref {
		t.Errorf("resumed result differs from uninterrupted run:\nresumed:\n%s\nreference:\n%s", got, ref)
	}
}

// TestInterruptWithoutCheckpointIsFatal: preempting a run that has nowhere
// to save its progress is a fatal error (exit 1), not a clean interruption.
func TestInterruptWithoutCheckpointIsFatal(t *testing.T) {
	// Enough generations that the run is still going when the signal lands
	// (the same search finishes 1200 generations in well under a second, so
	// scale buys minutes of margin, not test latency).
	cmd := exec.Command(binPath,
		"-ip", "fft", "-query", "min-luts", "-gens", "2000000", "-pop", "8", "-seed", "5", "-par", "1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // signal handler installs in the first milliseconds
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("err %v (want exit 1)\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "progress lost") {
		t.Errorf("fatal interruption without the progress-lost diagnostic:\n%s", stderr.String())
	}
}
