package resilience

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nautilus/internal/dataset"
	"nautilus/internal/ga"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
	"nautilus/internal/telemetry"
)

func supSpace(t *testing.T) *param.Space {
	t.Helper()
	space, err := param.NewSpace(
		param.Int("a", 0, 15, 1),
		param.Int("b", 0, 15, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// fakeSleep records backoff waits and returns immediately.
type fakeSleep struct {
	mu    sync.Mutex
	waits []time.Duration
}

func (f *fakeSleep) sleep(d time.Duration) {
	f.mu.Lock()
	f.waits = append(f.waits, d)
	f.mu.Unlock()
}

func TestSupervisorRetriesTransientThenSucceeds(t *testing.T) {
	space := supSpace(t)
	var calls atomic.Int64
	eval := func(ctx context.Context, pt param.Point) (metrics.Metrics, error) {
		if calls.Add(1) < 3 {
			return nil, dataset.MarkTransient(errors.New("tool crashed"))
		}
		return metrics.Metrics{"m": 1}, nil
	}
	fs := &fakeSleep{}
	reg := telemetry.NewRegistry()
	sup, err := NewSupervisor(space, eval, Policy{MaxAttempts: 3, Sleep: fs.sleep}, reg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sup.Evaluate(context.Background(), param.Point{1, 2})
	if err != nil || m["m"] != 1 {
		t.Fatalf("m=%v err=%v, want success after retries", m, err)
	}
	if calls.Load() != 3 {
		t.Errorf("evaluator calls = %d, want 3", calls.Load())
	}
	if len(fs.waits) != 2 {
		t.Errorf("backoff sleeps = %d, want 2", len(fs.waits))
	}
	if got := reg.Counter(MetricRetries).Value(); got != 2 {
		t.Errorf("retries counter = %v, want 2", got)
	}
	if got := reg.Counter(MetricEvaluations).Value(); got != 1 {
		t.Errorf("evaluations counter = %v, want 1", got)
	}
}

func TestSupervisorPermanentErrorNoRetry(t *testing.T) {
	space := supSpace(t)
	var calls atomic.Int64
	boom := errors.New("infeasible")
	eval := func(ctx context.Context, pt param.Point) (metrics.Metrics, error) {
		calls.Add(1)
		return nil, boom
	}
	fs := &fakeSleep{}
	reg := telemetry.NewRegistry()
	sup, err := NewSupervisor(space, eval, Policy{Sleep: fs.sleep}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Evaluate(context.Background(), param.Point{0, 0}); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the permanent error unchanged", err)
	}
	if calls.Load() != 1 {
		t.Errorf("evaluator calls = %d, want 1 (no retry on permanent errors)", calls.Load())
	}
	if got := reg.Counter(MetricPermanentErrs).Value(); got != 1 {
		t.Errorf("permanent counter = %v, want 1", got)
	}
}

func TestSupervisorTimeout(t *testing.T) {
	space := supSpace(t)
	var calls atomic.Int64
	eval := func(ctx context.Context, pt param.Point) (metrics.Metrics, error) {
		calls.Add(1)
		<-ctx.Done() // hang until the attempt deadline kills us
		return nil, ctx.Err()
	}
	fs := &fakeSleep{}
	reg := telemetry.NewRegistry()
	sup, err := NewSupervisor(space, eval, Policy{
		Timeout: 5 * time.Millisecond, MaxAttempts: 2, Sleep: fs.sleep,
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sup.Evaluate(context.Background(), param.Point{3, 3})
	if !dataset.IsTransient(err) || !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want transient timeout error", err)
	}
	if calls.Load() != 2 {
		t.Errorf("evaluator calls = %d, want 2 (timeouts are retried)", calls.Load())
	}
	if got := reg.Counter(MetricTimeouts).Value(); got != 2 {
		t.Errorf("timeouts counter = %v, want 2", got)
	}
}

func TestSupervisorGarbageMetricsRetried(t *testing.T) {
	space := supSpace(t)
	var calls atomic.Int64
	eval := func(ctx context.Context, pt param.Point) (metrics.Metrics, error) {
		if calls.Add(1) == 1 {
			return metrics.Metrics{"m": math.NaN()}, nil
		}
		return metrics.Metrics{"m": 4}, nil
	}
	fs := &fakeSleep{}
	sup, err := NewSupervisor(space, eval, Policy{Sleep: fs.sleep}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sup.Evaluate(context.Background(), param.Point{2, 2})
	if err != nil || m["m"] != 4 {
		t.Fatalf("m=%v err=%v, want NaN output discarded and retried", m, err)
	}
	if calls.Load() != 2 {
		t.Errorf("evaluator calls = %d, want 2", calls.Load())
	}
}

func TestSupervisorQuarantineLifecycle(t *testing.T) {
	space := supSpace(t)
	var calls atomic.Int64
	eval := func(ctx context.Context, pt param.Point) (metrics.Metrics, error) {
		calls.Add(1)
		return nil, dataset.MarkTransient(errors.New("always down"))
	}
	fs := &fakeSleep{}
	reg := telemetry.NewRegistry()
	sup, err := NewSupervisor(space, eval, Policy{
		MaxAttempts: 2, QuarantineAfter: 2, Sleep: fs.sleep,
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	pt := param.Point{7, 7}

	// Round 1: retries exhaust, error stays transient (not yet quarantined).
	_, err = sup.Evaluate(context.Background(), pt)
	if !dataset.IsTransient(err) {
		t.Fatalf("round 1: got %v, want transient", err)
	}
	// Round 2: breaker trips; the error becomes permanent.
	_, err = sup.Evaluate(context.Background(), pt)
	var qe *QuarantineError
	if !errors.As(err, &qe) {
		t.Fatalf("round 2: got %v, want QuarantineError", err)
	}
	if dataset.IsTransient(err) {
		t.Fatal("quarantine error must be permanent so the cache memoizes it")
	}
	// Round 3: served from the quarantine map, evaluator untouched.
	before := calls.Load()
	if _, err := sup.Evaluate(context.Background(), pt); !errors.As(err, &qe) {
		t.Fatalf("round 3: got %v, want QuarantineError", err)
	}
	if calls.Load() != before {
		t.Error("quarantined point reached the evaluator")
	}
	if got := sup.Quarantined(); len(got) != 1 || got[0] != space.Key(pt) {
		t.Errorf("Quarantined() = %v, want [%s]", got, space.Key(pt))
	}
	if got := reg.Counter(MetricQuarantined).Value(); got != 1 {
		t.Errorf("quarantined counter = %v, want 1", got)
	}
	if got := reg.Counter(MetricQuarantineHits).Value(); got != 1 {
		t.Errorf("quarantine hits = %v, want 1", got)
	}

	// A success on a different point clears nothing it shouldn't.
	if _, err := sup.Evaluate(context.Background(), pt); err == nil {
		t.Fatal("quarantine must persist")
	}
}

func TestSupervisorBackoffGrowthAndJitterBounds(t *testing.T) {
	space := supSpace(t)
	eval := func(ctx context.Context, pt param.Point) (metrics.Metrics, error) {
		return metrics.Metrics{"m": 0}, nil
	}
	sup, err := NewSupervisor(space, eval, Policy{
		BackoffBase: 100 * time.Millisecond,
		BackoffMax:  1 * time.Second,
		JitterSeed:  42,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Expected uncapped exponentials for attempts 1..6.
	caps := []time.Duration{100, 200, 400, 800, 1000, 1000}
	for i, c := range caps {
		c *= time.Millisecond
		d := sup.backoff(i + 1)
		if d < c/2 || d >= c {
			t.Errorf("attempt %d: backoff %v outside [%v, %v)", i+1, d, c/2, c)
		}
	}
	// Same seed, same jitter sequence.
	sup2, _ := NewSupervisor(space, eval, Policy{
		BackoffBase: 100 * time.Millisecond,
		BackoffMax:  1 * time.Second,
		JitterSeed:  42,
	}, nil)
	sup3, _ := NewSupervisor(space, eval, Policy{
		BackoffBase: 100 * time.Millisecond,
		BackoffMax:  1 * time.Second,
		JitterSeed:  42,
	}, nil)
	for i := 1; i <= 8; i++ {
		if a, b := sup2.backoff(i), sup3.backoff(i); a != b {
			t.Fatalf("attempt %d: jitter not deterministic: %v vs %v", i, a, b)
		}
	}
}

func TestSupervisorCancelDuringBackoff(t *testing.T) {
	space := supSpace(t)
	eval := func(ctx context.Context, pt param.Point) (metrics.Metrics, error) {
		return nil, dataset.MarkTransient(errors.New("down"))
	}
	// Real time.Sleep with a long base: cancellation must cut the wait short.
	sup, err := NewSupervisor(space, eval, Policy{BackoffBase: time.Minute}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = sup.Evaluate(ctx, param.Point{1, 1})
	if !dataset.IsTransient(err) {
		t.Fatalf("got %v, want transient cancellation", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("backoff was not interruptible: took %v", elapsed)
	}
}

func TestPolicyValidate(t *testing.T) {
	bad := []Policy{
		{Timeout: -time.Second},
		{MaxAttempts: -1},
		{BackoffBase: -1},
		{BackoffMax: -1},
		{QuarantineAfter: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("policy %d accepted: %+v", i, p)
		}
	}
	if err := (Policy{}).Validate(); err != nil {
		t.Errorf("zero policy rejected: %v", err)
	}
}

// --- checkpoint file tests ---

// ckptEngine builds a small GA run over supSpace for file round-trips.
func ckptEngine(t *testing.T, space *param.Space, cfg ga.Config) *ga.Engine {
	t.Helper()
	eval := func(pt param.Point) (metrics.Metrics, error) {
		a, b := pt[0], pt[1]
		if (a*3+b)%13 == 5 {
			return nil, fmt.Errorf("infeasible")
		}
		return metrics.Metrics{"score": float64(a*b + a)}, nil
	}
	engine, err := ga.NewContext(space, metrics.MaximizeMetric("score"), dataset.AdaptContext(eval), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

func ckptCfg(seed int64) ga.Config {
	return ga.Config{PopulationSize: 6, Generations: 20, Seed: seed, Parallelism: 3}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	space := supSpace(t)
	var snap *ga.Snapshot
	cfg := ckptCfg(3)
	cfg.Checkpoint = func(s *ga.Snapshot) error { snap = s; return nil }
	if _, err := ckptEngine(t, space, cfg).RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no snapshot")
	}
	// Exercise the IEEE-special encoding paths explicitly.
	snap.PrevBest = math.Inf(-1)
	snap.Trajectory[0].BestValue = math.Inf(1)

	path := filepath.Join(t.TempDir(), "ck.json")
	if err := Save(path, space, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, space, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("round trip differs\n got: %+v\nwant: %+v", got, snap)
	}
}

func TestLoadValidation(t *testing.T) {
	space := supSpace(t)
	var snap *ga.Snapshot
	cfg := ckptCfg(5)
	cfg.Checkpoint = func(s *ga.Snapshot) error { snap = s; return nil }
	if _, err := ckptEngine(t, space, cfg).RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	if err := Save(path, space, snap); err != nil {
		t.Fatal(err)
	}

	if _, err := Load(filepath.Join(dir, "missing.json"), space, 5); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := Load(path, space, 6); err == nil {
		t.Error("wrong seed accepted")
	}
	other, _ := param.NewSpace(param.Int("a", 0, 15, 1), param.Int("b", 0, 7, 1))
	if _, err := Load(path, other, 5); err == nil {
		t.Error("mismatched space accepted")
	}
	three, _ := param.NewSpace(param.Int("a", 0, 15, 1), param.Int("b", 0, 15, 1), param.Int("c", 0, 3, 1))
	if _, err := Load(path, three, 5); err == nil {
		t.Error("wrong parameter count accepted")
	}
}

// TestFileResumeByteIdentical is the crash/resume acceptance test through
// the on-disk format: kill a run mid-search, Load the file in a fresh
// process-equivalent, and finish to the byte-identical ga.Result.
func TestFileResumeByteIdentical(t *testing.T) {
	space := supSpace(t)
	want, err := ckptEngine(t, space, ckptCfg(11)).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "ck.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	saver := NewSaver(path, space, nil)
	cfg := ckptCfg(11)
	cfg.Checkpoint = func(s *ga.Snapshot) error {
		if err := saver.Save(s); err != nil {
			return err
		}
		if s.Generation > 7 {
			cancel() // simulated kill mid-search
		}
		return nil
	}
	partial, err := ckptEngine(t, space, cfg).RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Interrupted {
		t.Fatal("run was not interrupted")
	}

	snap, err := Load(path, space, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := ckptCfg(11)
	cfg2.Resume = snap
	got, err := ckptEngine(t, space, cfg2).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed-from-file result differs\n got: %+v\nwant: %+v", got, want)
	}
}

func TestSaverRecordsTelemetry(t *testing.T) {
	space := supSpace(t)
	reg := telemetry.NewRegistry()
	saver := NewSaver(filepath.Join(t.TempDir(), "ck.json"), space, reg)
	cfg := ckptCfg(2)
	cfg.Checkpoint = saver.Save
	if _, err := ckptEngine(t, space, cfg).RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricCheckpoints).Value(); got < 1 {
		t.Errorf("checkpoints counter = %v, want >= 1", got)
	}
}
