package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// Golden-file regression tests for the experiments command's table output.
// The tables are the command's contract - the paper's figures rendered as
// text - so any drift in values, formatting, or ordering is a regression
// unless deliberately re-blessed with -update:
//
//	go test ./cmd/experiments -update

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

var binPath string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "experiments-golden-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "experiments")
	if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build experiments: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runTables runs the built binary and returns its stdout with the one
// wall-clock-dependent line ("completed in ...") removed.
func runTables(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(binPath, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("experiments %v: %v\nstderr:\n%s", args, err, stderr.String())
	}
	lines := strings.Split(stdout.String(), "\n")
	kept := lines[:0]
	for _, l := range lines {
		if strings.HasPrefix(l, "completed in ") {
			continue
		}
		kept = append(kept, l)
	}
	return strings.Join(kept, "\n")
}

// checkGolden compares got against testdata/<name>, rewriting it under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (bless with `go test ./cmd/experiments -update`): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("table output drifted from %s at line %d:\n got: %q\nwant: %q\n(re-bless with -update if intended)",
				path, i+1, g, w)
		}
	}
	t.Fatalf("table output drifted from %s (same lines, different bytes)", path)
}

// headlineArgs is the small but GA-exercising scale used for the golden
// tables: enough trials that parallel scheduling could reorder results if
// collection were index-unsafe, small enough to run in well under a second.
func headlineArgs(par int) []string {
	return []string{"-fig", "headline", "-runs", "3", "-gens", "6", "-par", fmt.Sprint(par)}
}

// TestHeadlineTableGolden pins the headline ratio table byte for byte.
func TestHeadlineTableGolden(t *testing.T) {
	checkGolden(t, "headline_runs3_gens6.golden", runTables(t, headlineArgs(1)...))
}

// TestFig1TableGolden pins the exhaustive design-space landscape table - no
// GA randomness at all, so any drift is a substrate or formatting change.
func TestFig1TableGolden(t *testing.T) {
	checkGolden(t, "fig1.golden", runTables(t, "-fig", "fig1", "-par", "1"))
}

// TestTablesParallelismInvariant is the documented guarantee that -par
// never changes a table: the same figure at -par 1 and -par 8 must be
// byte-identical (trials are independently seeded and collected by index).
func TestTablesParallelismInvariant(t *testing.T) {
	seq := runTables(t, headlineArgs(1)...)
	par := runTables(t, headlineArgs(8)...)
	if seq != par {
		sl, pl := strings.Split(seq, "\n"), strings.Split(par, "\n")
		for i := 0; i < len(sl) || i < len(pl); i++ {
			var s, p string
			if i < len(sl) {
				s = sl[i]
			}
			if i < len(pl) {
				p = pl[i]
			}
			if s != p {
				t.Fatalf("-par 1 and -par 8 tables differ at line %d:\n-par 1: %q\n-par 8: %q", i+1, s, p)
			}
		}
		t.Fatal("-par 1 and -par 8 tables differ")
	}
}

// TestInterruptStopsSuite: SIGINT ends a running suite at once by the
// signal's default action - no tables, no "completed in" footer. The
// signal goes out once the journal shows the figures are under way.
func TestInterruptStopsSuite(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	cmd := exec.Command(binPath, "-fig", "all", "-par", "1", "-journal", journal)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if fi, err := os.Stat(journal); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("suite wrote no journal lines")
		}
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("suite ignored SIGINT and exited cleanly (err %v)", err)
	}
	if ws, ok := ee.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGINT {
		t.Errorf("suite did not end by SIGINT: %v", err)
	}
	if strings.Contains(stdout.String(), "completed in") {
		t.Errorf("interrupted suite printed its footer:\n%s", stdout.String())
	}
}

// TestRetiredResumeFlagsExitUsage: the figure-level progress file is gone,
// so its flags are usage errors like any undefined flag.
func TestRetiredResumeFlagsExitUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-checkpoint", "progress.json"},
		{"-checkpoint-every", "2"},
		{"-resume"},
	} {
		err := exec.Command(binPath, args...).Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("experiments %v: %v, want exit 2", args, err)
		}
	}
}
