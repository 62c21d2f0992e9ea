package dataset

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"nautilus/internal/metrics"
	"nautilus/internal/param"
)

// fakeRemote answers lookups for a configured subset of hashes and counts
// how often it was consulted.
type fakeRemote struct {
	mu      sync.Mutex
	answers map[uint64]metrics.Metrics
	errs    map[uint64]error
	calls   atomic.Int64
	hits    atomic.Int64
}

func (f *fakeRemote) Lookup(_ context.Context, h uint64, _ param.Point) (metrics.Metrics, error, bool) {
	f.calls.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	if err, ok := f.errs[h]; ok {
		f.hits.Add(1)
		return nil, err, true
	}
	if m, ok := f.answers[h]; ok {
		f.hits.Add(1)
		return m, nil, true
	}
	return nil, nil, false
}

// TestRemoteTierAnswersMisses proves the remote tier is consulted exactly
// once per distinct point (under the singleflight slot), that its answers
// are memoized like local ones, and that unresolved lookups fall through
// to the local evaluator.
func TestRemoteTierAnswersMisses(t *testing.T) {
	space, _ := toySpace()
	var localCalls atomic.Int64
	local := func(pt param.Point) (metrics.Metrics, error) {
		localCalls.Add(1)
		return metrics.Metrics{"v": float64(pt[0])}, nil
	}
	c := NewCache(space, local)

	remotePt := param.Point{1, 1}
	localPt := param.Point{0, 1}
	rem := &fakeRemote{answers: map[uint64]metrics.Metrics{
		space.Hash64(remotePt): {"v": 42},
	}}
	c.SetRemote(rem)

	// Remote-owned point: answered by the tier, local evaluator untouched.
	m, err := c.Evaluate(remotePt)
	if err != nil || m["v"] != 42 {
		t.Fatalf("remote answer: m=%v err=%v", m, err)
	}
	if localCalls.Load() != 0 {
		t.Fatalf("local evaluator ran %d times for a remote-owned point", localCalls.Load())
	}
	// Second lookup is a plain cache hit: the tier is not consulted again.
	calls := rem.calls.Load()
	if _, err := c.Evaluate(remotePt); err != nil {
		t.Fatal(err)
	}
	if rem.calls.Load() != calls {
		t.Fatalf("remote tier re-consulted on a cache hit")
	}

	// Locally-owned point: the tier declines, the local evaluator pays.
	if m, err = c.Evaluate(localPt); err != nil || m["v"] != 0 {
		t.Fatalf("local answer: m=%v err=%v", m, err)
	}
	if localCalls.Load() != 1 {
		t.Fatalf("local evaluator ran %d times, want 1", localCalls.Load())
	}
	if got := c.DistinctEvaluations(); got != 2 {
		t.Fatalf("distinct = %d, want 2 (remote answers count like local ones)", got)
	}
}

// TestRemoteTierBatchPath proves batch fan-out misses consult the tier too,
// and that a permanent remote error is memoized.
func TestRemoteTierBatchPath(t *testing.T) {
	space, _ := toySpace()
	var localCalls atomic.Int64
	c := NewCache(space, func(pt param.Point) (metrics.Metrics, error) {
		localCalls.Add(1)
		return metrics.Metrics{"v": float64(pt[0])}, nil
	})
	badPt := param.Point{1, 0}
	goodPt := param.Point{0, 0}
	rem := &fakeRemote{
		answers: map[uint64]metrics.Metrics{space.Hash64(goodPt): {"v": 7}},
		errs:    map[uint64]error{space.Hash64(badPt): errors.New("infeasible on owner")},
	}
	c.SetRemote(rem)

	pts := []param.Point{goodPt, badPt, {2, 2}}
	ms, errs, err := c.EvaluateBatchCtx(context.Background(), pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ms[0]["v"] != 7 || errs[0] != nil {
		t.Fatalf("batch remote answer: m=%v err=%v", ms[0], errs[0])
	}
	if errs[1] == nil {
		t.Fatalf("remote permanent error not surfaced")
	}
	if errs[2] != nil || ms[2]["v"] != 2 {
		t.Fatalf("fall-through point: m=%v err=%v", ms[2], errs[2])
	}
	if localCalls.Load() != 1 {
		t.Fatalf("local evaluator ran %d times, want 1", localCalls.Load())
	}
	// The memoized remote error answers without another tier consult.
	calls := rem.calls.Load()
	if _, err := c.Evaluate(badPt); err == nil {
		t.Fatal("memoized permanent error lost")
	}
	if rem.calls.Load() != calls {
		t.Fatal("remote tier re-consulted for a memoized error")
	}
}
