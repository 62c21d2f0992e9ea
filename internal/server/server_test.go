package server

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"nautilus/internal/catalog"
	"nautilus/internal/core"
	"nautilus/internal/faultnet"
	"nautilus/internal/ga"
)

// testSpec is the small deterministic job every test uses: 5 generations of
// a 6-genome population over the fft space.
func testSpec() JobSpec {
	return JobSpec{
		IP:          "fft",
		Query:       "min-luts",
		Guidance:    catalog.GuidanceStrong,
		Generations: 5,
		Population:  6,
		Seed:        3,
		Parallelism: 2,
	}
}

// soloRun executes spec the way the nautilus CLI would - one engine, one
// private cache, no server - and returns its result plus the rendered
// configuration. The server must reproduce this byte for byte.
func soloRun(t *testing.T, spec JobSpec) (ga.Result, string) {
	t.Helper()
	entry, guid, _, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Search(context.Background(), core.SearchRequest{
		Space:     entry.Space,
		Mode:      spec.Mode,
		Objective: entry.Objective,
		Evaluate:  entry.Eval,
		Config: ga.Config{
			PopulationSize: spec.Population,
			Generations:    spec.Generations,
			Seed:           spec.Seed,
			Parallelism:    spec.Parallelism,
		},
	}, core.WithGuidance(guid))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestPoint == nil {
		t.Fatal("solo run found nothing feasible")
	}
	return res, entry.Space.Describe(res.BestPoint)
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.StateDir == "" {
		opts.StateDir = t.TempDir()
	}
	if opts.Workers == 0 {
		opts.Workers = 4
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitDone blocks until the session is terminal.
func waitDone(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("session %s never finished: %v (state %s)", id, err, st.State)
	}
	return st
}

// waitGeneration polls until the session has completed at least gen
// generations (or gone terminal).
func waitGeneration(t *testing.T, s *Server, id string, gen int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Generation >= gen || st.State.terminal() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s stuck at generation %d", id, st.Generation)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSessionMatchesCLI is the service's core contract: the result a
// session returns is byte-identical to a solo CLI-style run of the same
// spec - same configuration string, same best value, same paper accounting.
func TestSessionMatchesCLI(t *testing.T) {
	spec := testSpec()
	solo, soloConfig := soloRun(t, spec)

	s := newTestServer(t, Options{})
	defer s.Drain(context.Background())
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, s, st.ID); got.State != StateDone {
		t.Fatalf("session ended %s: %s", got.State, got.Error)
	}
	res, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Configuration != soloConfig {
		t.Errorf("configuration %q, solo run %q", res.Configuration, soloConfig)
	}
	if res.BestValue != solo.BestValue {
		t.Errorf("best value %g, solo run %g", res.BestValue, solo.BestValue)
	}
	if res.DistinctEvals != solo.DistinctEvals {
		t.Errorf("distinct evals %d, solo run %d", res.DistinctEvals, solo.DistinctEvals)
	}
	if res.TotalQueries != solo.Cache.Total || res.CacheHits != solo.Cache.Hits {
		t.Errorf("cache accounting %d/%d, solo run %d/%d",
			res.CacheHits, res.TotalQueries, solo.Cache.Hits, solo.Cache.Total)
	}
}

// TestSharedCacheDedup runs two identical sessions concurrently and checks
// the layering the server promises: each session's private accounting
// matches a solo run, while the process-wide shared cache paid for each
// distinct design once - fewer combined evaluator calls than the sessions'
// counts sum to.
func TestSharedCacheDedup(t *testing.T) {
	spec := testSpec()
	solo, _ := soloRun(t, spec)

	s := newTestServer(t, Options{EvalDelay: time.Millisecond})
	defer s.Drain(context.Background())
	a, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []JobStatus{a, b} {
		if got := waitDone(t, s, st.ID); got.State != StateDone {
			t.Fatalf("session %s ended %s: %s", st.ID, got.State, got.Error)
		}
	}
	ra, err := s.Result(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := s.Result(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Per-session accounting is solo-identical for both tenants.
	if ra.DistinctEvals != solo.DistinctEvals || rb.DistinctEvals != solo.DistinctEvals {
		t.Fatalf("session distinct evals %d/%d, solo run %d",
			ra.DistinctEvals, rb.DistinctEvals, solo.DistinctEvals)
	}
	// The shared space cache deduplicated across the sessions: the combined
	// number of real evaluator calls is strictly below the sum of the
	// sessions' counts (here exactly one session's worth, since the runs
	// are identical).
	shared := s.SharedCacheStats()["fft"]
	if sum := ra.DistinctEvals + rb.DistinctEvals; shared.Distinct >= sum {
		t.Fatalf("shared cache spent %d evaluations, no better than %d unshared", shared.Distinct, sum)
	}
	if shared.Distinct != solo.DistinctEvals {
		t.Fatalf("shared cache spent %d evaluations, want exactly one session's %d",
			shared.Distinct, solo.DistinctEvals)
	}
}

// TestResultMetricsReadFromSharedCache: a finished session reads its best
// design's metrics through the shared cache, where its search memoized
// them. Each finished session adds one lookup to the shared cache and no
// evaluation, so the scheduler's grants still equal the shared distinct
// count. Built on a server whose shared cache lacks the point, the result
// still carries the metrics when its context was canceled after the
// search ended (a drain).
func TestResultMetricsReadFromSharedCache(t *testing.T) {
	spec := testSpec()
	s := newTestServer(t, Options{})
	defer s.Drain(context.Background())
	var last *JobResult
	var sess *session
	for i := 1; i <= 2; i++ {
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := waitDone(t, s, st.ID); got.State != StateDone {
			t.Fatalf("session ended %s: %s", got.State, got.Error)
		}
		if last, err = s.Result(st.ID); err != nil {
			t.Fatal(err)
		}
		if sess, err = s.get(st.ID); err != nil {
			t.Fatal(err)
		}
		// Every private miss is one shared lookup, and the result one more.
		shared := s.SharedCacheStats()["fft"]
		if want := i * (last.DistinctEvals + 1); shared.Total != want || shared.Distinct != last.DistinctEvals {
			t.Errorf("after %d sessions the shared cache saw %d lookups and %d distinct points, want %d and %d",
				i, shared.Total, shared.Distinct, want, last.DistinctEvals)
		}
		if grants := s.reg.Counter(MetricSchedulerGrants).Value(); grants != int64(shared.Distinct) {
			t.Errorf("after %d sessions the scheduler granted %d evaluations for %d distinct points", i, grants, shared.Distinct)
		}
	}
	best, err := sess.entry.Space.ParseKey(last.Key)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.entry.Eval(best)
	if err != nil || len(want) == 0 || !reflect.DeepEqual(map[string]float64(want), last.Metrics) {
		t.Fatalf("result metrics %v, evaluator %v (err %v)", last.Metrics, want, err)
	}

	fresh := newTestServer(t, Options{})
	defer fresh.Drain(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := fresh.buildResult(ctx, sess, fresh.sharedCacheFor(sess.entry), ga.Result{BestPoint: best, BestValue: last.BestValue})
	if !reflect.DeepEqual(out.Metrics, last.Metrics) {
		t.Errorf("result built after a drain carries metrics %v, want %v", out.Metrics, last.Metrics)
	}
}

// TestEvaluationsChargedToSessionTenant: every evaluation a search pays
// for through the shared cache holds a scheduler slot in its own tenant's
// name - the session for a scalar or portfolio session, the
// "<session>#<island>" pair for a cluster island - so the fair scheduler
// tells sessions apart. EvalDelay holds each evaluation in flight long
// enough to observe its slot.
func TestEvaluationsChargedToSessionTenant(t *testing.T) {
	for _, spec := range []JobSpec{testSpec(), portfolioSpec()} {
		s := newTestServer(t, Options{EvalDelay: 5 * time.Millisecond})
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return s.sched.held(st.ID) >= 1 })
		if got := waitDone(t, s, st.ID); got.State != StateDone {
			t.Fatalf("%q session ended %s: %s", spec.Mode, got.State, got.Error)
		}
		s.Drain(context.Background())
	}

	env := newClusterEnv(t, faultnet.NewMemory(), 2, 5*time.Millisecond)
	st, err := env.servers[0].Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		for _, srv := range env.servers {
			for k := range env.servers {
				if srv.sched.held(fmt.Sprintf("%s#%d", st.ID, k)) >= 1 {
					return true
				}
			}
		}
		return false
	})
	if got := waitDone(t, env.servers[0], st.ID); got.State != StateDone {
		t.Fatalf("clustered session ended %s: %s", got.State, got.Error)
	}
}

// TestDrainResume is the restart story end to end: sessions interrupted by
// a drain persist checkpoints, and a new server over the same state
// directory resumes every one of them to the exact result an uninterrupted
// run produces.
func TestDrainResume(t *testing.T) {
	spec := testSpec()
	spec.Generations = 8
	solo, soloConfig := soloRun(t, spec)
	gemmSpec := JobSpec{IP: "gemm", Query: "min-luts", Guidance: catalog.GuidanceWeak,
		Generations: 8, Population: 6, Seed: 11, Parallelism: 2}
	gemmSolo, gemmConfig := soloRun(t, gemmSpec)

	dir := t.TempDir()
	s1 := newTestServer(t, Options{StateDir: dir, EvalDelay: 3 * time.Millisecond, CheckpointEvery: 2})
	ids := make([]string, 0, 3)
	for _, sp := range []JobSpec{spec, spec, gemmSpec} {
		st, err := s1.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	// Let every session make real progress before pulling the plug, so the
	// drain exercises mid-flight checkpoints rather than empty ones.
	for _, id := range ids {
		waitGeneration(t, s1, id, 1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	interrupted := 0
	for _, id := range ids {
		st, err := s1.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case StateInterrupted:
			interrupted++
		case StateDone:
			// A fast session may legitimately finish before the drain lands.
		default:
			t.Fatalf("session %s ended drain in state %s: %s", id, st.State, st.Error)
		}
	}
	if interrupted == 0 {
		t.Fatal("no session was interrupted; drain tested nothing")
	}

	// Second life: same directory, no artificial delay.
	s2 := newTestServer(t, Options{StateDir: dir})
	defer s2.Drain(context.Background())
	for i, id := range ids {
		st := waitDone(t, s2, id)
		if st.State != StateDone {
			t.Fatalf("resumed session %s ended %s: %s", id, st.State, st.Error)
		}
		res, err := s2.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		wantRes, wantConfig := solo, soloConfig
		if i == 2 {
			wantRes, wantConfig = gemmSolo, gemmConfig
		}
		if res.Configuration != wantConfig {
			t.Errorf("session %s resumed to %q, uninterrupted run gives %q", id, res.Configuration, wantConfig)
		}
		if res.BestValue != wantRes.BestValue {
			t.Errorf("session %s resumed to best %g, uninterrupted run gives %g", id, res.BestValue, wantRes.BestValue)
		}
		if res.DistinctEvals != wantRes.DistinctEvals {
			t.Errorf("session %s resumed with %d distinct evals, uninterrupted run spends %d",
				id, res.DistinctEvals, wantRes.DistinctEvals)
		}
	}
}

// TestCancel checks a client cancel terminates the session as canceled and
// that a restart does NOT resurrect it.
func TestCancel(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{StateDir: dir, EvalDelay: 3 * time.Millisecond})
	spec := testSpec()
	spec.Generations = 50
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitGeneration(t, s1, st.ID, 1)
	if _, err := s1.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, s1, st.ID); got.State != StateCanceled {
		t.Fatalf("canceled session ended %s", got.State)
	}
	if _, err := s1.Result(st.ID); err == nil {
		t.Fatal("canceled session served a result")
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Options{StateDir: dir})
	defer s2.Drain(context.Background())
	got, err := s2.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled {
		t.Fatalf("canceled session came back as %s after restart", got.State)
	}
}

// TestSubmitValidation checks spec validation happens at submission time.
func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Options{})
	defer s.Drain(context.Background())
	bad := []JobSpec{
		{IP: "dsp", Query: "min-luts", Seed: 1},
		{IP: "fft", Query: "max-power", Seed: 1},
		{IP: "fft", Query: "min-luts", Guidance: "medium", Seed: 1},
		{IP: "fft", Query: "min-luts", Population: 1, Seed: 1},
		{IP: "fft", Query: "min-luts", Generations: -1, Seed: 1},
		{IP: "fft", Query: "min-luts", Seed: -4},
		{IP: "fft", Query: "min-luts", Seed: 1, Hints: []byte(`{"not json`)},
	}
	for i, spec := range bad {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("bad spec %d accepted", i)
		} else {
			var br *BadRequestError
			if !errors.As(err, &br) {
				t.Errorf("bad spec %d: error %v is not a BadRequestError", i, err)
			}
		}
	}
	if got := len(s.List()); got != 0 {
		t.Fatalf("%d sessions registered from invalid submissions", got)
	}
}

// TestSubmitLimits checks the draining and max-sessions admission guards.
func TestSubmitLimits(t *testing.T) {
	s := newTestServer(t, Options{MaxSessions: 1, EvalDelay: 3 * time.Millisecond})
	spec := testSpec()
	spec.Generations = 50
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(spec); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("second concurrent session: err %v, want ErrTooManySessions", err)
	}
	go func() { _, _ = s.Cancel(st.ID) }()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(testSpec()); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: err %v, want ErrDraining", err)
	}
}
