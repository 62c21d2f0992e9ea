package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"nautilus/internal/server"
)

// End-to-end tests against the real binaries: a nautserve daemon driven
// over HTTP, checked against the nautilus CLI it must agree with byte for
// byte, through SIGTERM drain and restart. The in-package server tests
// cover the same guarantees in-process; this file proves them for the
// shipped executables, signals and all.

var (
	serveBin string
	cliBin   string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "nautserve-e2e-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serveBin = filepath.Join(dir, "nautserve")
	cliBin = filepath.Join(dir, "nautilus")
	for bin, pkg := range map[string]string{serveBin: ".", cliBin: "../nautilus"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "build %s: %v\n%s", pkg, err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// cliResult is the deterministic result block of a nautilus CLI run.
type cliResult struct {
	BestValue     string // as printed, %.4g
	Configuration string
	DistinctEvals int
}

// runCLI runs the nautilus binary and parses its result block.
func runCLI(t *testing.T, args ...string) cliResult {
	t.Helper()
	out, err := exec.Command(cliBin, args...).Output()
	if err != nil {
		t.Fatalf("nautilus %v: %v", args, err)
	}
	var res cliResult
	for _, line := range strings.Split(string(out), "\n") {
		switch {
		case strings.HasPrefix(line, "best value:"):
			res.BestValue = strings.TrimSpace(strings.TrimPrefix(line, "best value:"))
		case strings.HasPrefix(line, "configuration:"):
			res.Configuration = strings.TrimSpace(strings.TrimPrefix(line, "configuration:"))
		case strings.HasPrefix(line, "synthesis jobs:"):
			if _, err := fmt.Sscanf(line, "synthesis jobs:  %d", &res.DistinctEvals); err != nil {
				t.Fatalf("unparseable synthesis line %q: %v", line, err)
			}
		}
	}
	if res.Configuration == "" || res.BestValue == "" || res.DistinctEvals == 0 {
		t.Fatalf("CLI result block incomplete in:\n%s", out)
	}
	return res
}

// daemonOutput collects the daemon's combined output and watches for the
// machine-readable bound-address line. Handing this writer to exec.Cmd
// directly (rather than reading a StdoutPipe) means Wait cannot return
// until every line - the clean-drain message included - has landed.
type daemonOutput struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	addrCh chan string
}

func (o *daemonOutput) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.buf.Write(p)
	for _, line := range strings.Split(o.buf.String(), "\n") {
		if a, ok := strings.CutPrefix(line, "nautserve listening on "); ok {
			select {
			case o.addrCh <- a:
			default:
			}
		}
	}
	return len(p), nil
}

func (o *daemonOutput) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// testDaemon is a running nautserve process.
type testDaemon struct {
	cmd  *exec.Cmd
	addr string
	done chan error
	out  *daemonOutput
}

func (d *testDaemon) output() string { return d.out.String() }

// startDaemon launches nautserve on a free port and waits for the bound
// address line.
func startDaemon(t *testing.T, args ...string) *testDaemon {
	t.Helper()
	d := &testDaemon{
		done: make(chan error, 1),
		out:  &daemonOutput{addrCh: make(chan string, 1)},
	}
	d.cmd = exec.Command(serveBin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Stdout = d.out
	d.cmd.Stderr = d.out
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := d.out.addrCh
	go func() { d.done <- d.cmd.Wait() }()
	select {
	case d.addr = <-addrCh:
	case err := <-d.done:
		t.Fatalf("nautserve exited before binding: %v\n%s", err, d.output())
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		t.Fatalf("nautserve did not report an address within 10s\n%s", d.output())
	}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			_ = d.cmd.Process.Kill()
		}
	})
	return d
}

// drain SIGTERMs the daemon and requires a clean exit-0 drain.
func (d *testDaemon) drain(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d.done:
		if err != nil {
			t.Fatalf("nautserve exit after SIGTERM: %v\n%s", err, d.output())
		}
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		t.Fatalf("nautserve did not exit within 60s of SIGTERM\n%s", d.output())
	}
	if !strings.Contains(d.output(), "drained cleanly") {
		t.Fatalf("exit 0 without the clean-drain line:\n%s", d.output())
	}
}

func (d *testDaemon) url(path string) string { return "http://" + d.addr + path }

func (d *testDaemon) getJSON(t *testing.T, path string, v any) int {
	t.Helper()
	resp, err := http.Get(d.url(path))
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
	return resp.StatusCode
}

// submit posts a job spec and returns its ID.
func (d *testDaemon) submit(t *testing.T, spec server.JobSpec) string {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(d.url("/v1/jobs"), "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: status %d, %+v", resp.StatusCode, st)
	}
	return st.ID
}

// waitState polls a job until pred is satisfied, failing after 120s.
func (d *testDaemon) waitState(t *testing.T, id string, what string, pred func(server.JobStatus) bool) server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		var st server.JobStatus
		if code := d.getJSON(t, "/v1/jobs/"+id, &st); code == http.StatusOK && pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: timed out waiting for %s", id, what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (d *testDaemon) waitDone(t *testing.T, id string) server.JobStatus {
	t.Helper()
	st := d.waitState(t, id, "a terminal state", func(st server.JobStatus) bool {
		return st.State != server.StateRunning
	})
	if st.State != server.StateDone {
		t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
	}
	return st
}

func (d *testDaemon) result(t *testing.T, id string) server.JobResult {
	t.Helper()
	var res server.JobResult
	if code := d.getJSON(t, "/v1/jobs/"+id+"/result", &res); code != http.StatusOK {
		t.Fatalf("result %s: status %d", id, code)
	}
	return res
}

// requireMatch asserts a server result agrees byte for byte with a CLI run.
func requireMatch(t *testing.T, id string, res server.JobResult, cli cliResult) {
	t.Helper()
	if res.Configuration != cli.Configuration {
		t.Errorf("%s: configuration %q, CLI printed %q", id, res.Configuration, cli.Configuration)
	}
	if got := fmt.Sprintf("%.4g", res.BestValue); got != cli.BestValue {
		t.Errorf("%s: best value %s, CLI printed %s", id, got, cli.BestValue)
	}
	if res.DistinctEvals != cli.DistinctEvals {
		t.Errorf("%s: %d distinct evals, CLI did %d", id, res.DistinctEvals, cli.DistinctEvals)
	}
}

// fftSpec is the shared small search spec used across the e2e tests.
func fftSpec() server.JobSpec {
	return server.JobSpec{
		IP: "fft", Query: "min-luts", Guidance: "strong",
		Generations: 5, Population: 6, Seed: 3, Parallelism: 2,
	}
}

func fftCLIArgs(spec server.JobSpec) []string {
	return []string{
		"-ip", spec.IP, "-query", spec.Query, "-guidance", spec.Guidance,
		"-gens", fmt.Sprint(spec.Generations), "-pop", fmt.Sprint(spec.Population),
		"-seed", fmt.Sprint(spec.Seed), "-par", fmt.Sprint(spec.Parallelism),
	}
}

// TestUsageExit: the daemon refuses to start without a state dir, exit 2.
func TestUsageExit(t *testing.T) {
	err := exec.Command(serveBin).Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("no -state-dir: err %v, want exit 2", err)
	}
}

// TestServerMatchesCLI: a job submitted over HTTP returns the exact result
// block the nautilus CLI prints for the same spec, then drains cleanly.
func TestServerMatchesCLI(t *testing.T) {
	cli := runCLI(t, fftCLIArgs(fftSpec())...)
	d := startDaemon(t, "-state-dir", t.TempDir())
	id := d.submit(t, fftSpec())
	d.waitDone(t, id)
	requireMatch(t, id, d.result(t, id), cli)
	d.drain(t)
}

// TestServerSharedCache: two concurrent sessions on the same space each
// report solo-run accounting, while the process-wide cache paid for the
// distinct designs once - fewer than the sum of the solo runs.
func TestServerSharedCache(t *testing.T) {
	cli := runCLI(t, fftCLIArgs(fftSpec())...)
	d := startDaemon(t, "-state-dir", t.TempDir(), "-workers", "4", "-eval-delay", "1ms")
	a := d.submit(t, fftSpec())
	b := d.submit(t, fftSpec())
	d.waitDone(t, a)
	d.waitDone(t, b)
	ra, rb := d.result(t, a), d.result(t, b)
	requireMatch(t, a, ra, cli)
	requireMatch(t, b, rb, cli)

	var stats struct {
		SharedCaches map[string]struct {
			Distinct int `json:"distinct_evals"`
		} `json:"shared_caches"`
	}
	if code := d.getJSON(t, "/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	shared := stats.SharedCaches["fft"].Distinct
	if shared >= ra.DistinctEvals+rb.DistinctEvals {
		t.Errorf("shared cache did %d distinct evals, no better than %d+%d solo",
			shared, ra.DistinctEvals, rb.DistinctEvals)
	}
	if shared != ra.DistinctEvals {
		t.Errorf("identical sessions should fully dedup: shared %d, solo %d", shared, ra.DistinctEvals)
	}
	d.drain(t)
}

// TestServerRestartResume: SIGTERM with sessions in flight exits cleanly;
// a restart on the same state dir resumes every session to the result the
// CLI produces uninterrupted.
func TestServerRestartResume(t *testing.T) {
	specs := []server.JobSpec{
		{IP: "fft", Query: "min-luts", Guidance: "strong", Generations: 12, Population: 6, Seed: 3, Parallelism: 2},
		{IP: "fft", Query: "min-luts", Guidance: "strong", Generations: 12, Population: 6, Seed: 9, Parallelism: 2},
		{IP: "gemm", Query: "min-luts", Guidance: "weak", Generations: 12, Population: 6, Seed: 11, Parallelism: 2},
	}
	refs := make([]cliResult, len(specs))
	for i, spec := range specs {
		refs[i] = runCLI(t, fftCLIArgs(spec)...)
	}

	stateDir := t.TempDir()
	args := []string{"-state-dir", stateDir, "-workers", "4", "-checkpoint-every", "2", "-eval-delay", "10ms"}
	d := startDaemon(t, args...)
	ids := make([]string, len(specs))
	for i, spec := range specs {
		ids[i] = d.submit(t, spec)
	}
	// One generation boundary on the first job guarantees there is real
	// progress to checkpoint; the others are behind it on a shared budget.
	d.waitState(t, ids[0], "generation 1", func(st server.JobStatus) bool {
		return st.Generation >= 1 || st.State != server.StateRunning
	})
	d.drain(t)

	d2 := startDaemon(t, args...)
	resumed := 0
	for i, id := range ids {
		st := d2.waitDone(t, id)
		if st.Resumed {
			resumed++
		}
		requireMatch(t, id, d2.result(t, id), refs[i])
	}
	if resumed == 0 {
		t.Error("no session was resumed: the drain beat every job to completion")
	}
	d2.drain(t)
}
