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

// fakeRemote forwards the hashes it has an answer for plus the declined
// ones, answers all but the declined, and counts how often it was
// consulted and how many points it was handed.
type fakeRemote struct {
	mu       sync.Mutex
	answers  map[uint64]metrics.Metrics
	errs     map[uint64]error
	declined map[uint64]bool
	calls    atomic.Int64
	points   atomic.Int64
}

func (f *fakeRemote) Forwards(_ context.Context, h uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, isErr := f.errs[h]
	_, isAnswer := f.answers[h]
	return isErr || isAnswer || f.declined[h]
}

func (f *fakeRemote) LookupBatch(_ context.Context, hashes []uint64, _ []param.Point, ms []metrics.Metrics, errs []error, ok []bool) {
	f.calls.Add(1)
	f.points.Add(int64(len(hashes)))
	f.mu.Lock()
	defer f.mu.Unlock()
	for k, h := range hashes {
		if err, found := f.errs[h]; found {
			errs[k], ok[k] = err, true
		} else if m, found := f.answers[h]; found {
			ms[k], ok[k] = m, true
		}
	}
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

// TestRemoteTierBatchPath proves a batch hands all its forwarded misses to
// the tier in one call, evaluates the rest locally, and memoizes a
// permanent remote error.
func TestRemoteTierBatchPath(t *testing.T) {
	space, _ := toySpace()
	var localCalls atomic.Int64
	c := NewCache(space, func(pt param.Point) (metrics.Metrics, error) {
		localCalls.Add(1)
		return metrics.Metrics{"v": float64(pt[0])}, nil
	})
	badPt := param.Point{1, 0}
	goodPt := param.Point{0, 0}
	declinedPt := param.Point{3, 3}
	rem := &fakeRemote{
		answers:  map[uint64]metrics.Metrics{space.Hash64(goodPt): {"v": 7}},
		errs:     map[uint64]error{space.Hash64(badPt): errors.New("infeasible on owner")},
		declined: map[uint64]bool{space.Hash64(declinedPt): true},
	}
	c.SetRemote(rem)

	pts := []param.Point{goodPt, badPt, {2, 2}, declinedPt}
	ms, errs, err := evalBatch(c, context.Background(), nil, pts, 2)
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
	if errs[3] != nil || ms[3]["v"] != 3 {
		t.Fatalf("declined point: m=%v err=%v, want a local evaluation", ms[3], errs[3])
	}
	if localCalls.Load() != 2 {
		t.Fatalf("local evaluator ran %d times, want 2", localCalls.Load())
	}
	if rem.calls.Load() != 1 || rem.points.Load() != 3 {
		t.Fatalf("remote tier consulted %d times for %d points, want once for 3", rem.calls.Load(), rem.points.Load())
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
