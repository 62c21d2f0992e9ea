package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderedResults(t *testing.T) {
	for _, par := range []int{1, 2, 4, 16} {
		out, err := Map(par, 100, func(i int) (int, error) { return i * i, nil }, nil)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if len(out) != 100 {
			t.Fatalf("par=%d: got %d results", par, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("par=%d: out[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

func TestMapIdenticalAtAnyParallelism(t *testing.T) {
	run := func(par int) []string {
		out, err := Map(par, 37, func(i int) (string, error) {
			return fmt.Sprintf("job-%03d", i), nil
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq := run(1)
	for _, par := range []int{2, 8, 64} {
		got := run(par)
		for i := range seq {
			if got[i] != seq[i] {
				t.Fatalf("par=%d diverges at %d: %q vs %q", par, i, got[i], seq[i])
			}
		}
	}
}

func TestMapBoundedConcurrency(t *testing.T) {
	const par = 3
	var inFlight, peak atomic.Int64
	_, err := Map(par, 50, func(i int) (struct{}, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		inFlight.Add(-1)
		return struct{}{}, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > par {
		t.Errorf("peak concurrency %d exceeds parallelism %d", p, par)
	}
}

func TestMapError(t *testing.T) {
	wantErr := errors.New("boom")
	var calls atomic.Int64
	_, err := Map(4, 1000, func(i int) (int, error) {
		calls.Add(1)
		if i == 5 {
			return 0, wantErr
		}
		time.Sleep(200 * time.Microsecond)
		return i, nil
	}, nil)
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	// Early stop: an error must prevent the pool from churning through the
	// whole index range.
	if c := calls.Load(); c == 1000 {
		t.Error("pool did not stop early after an error")
	}
}

func TestMapSequentialErrorStopsImmediately(t *testing.T) {
	var calls int
	_, err := Map(1, 100, func(i int) (int, error) {
		calls++
		if i == 3 {
			return 0, errors.New("stop")
		}
		return i, nil
	}, nil)
	if err == nil {
		t.Fatal("expected error")
	}
	if calls != 4 {
		t.Errorf("sequential path made %d calls, want 4", calls)
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(8, 0, func(i int) (int, error) { return 0, nil }, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("Map(8, 0) = %v, %v", out, err)
	}
}

// TestEach checks EachCtx fills a slice in place at any parallelism and
// never calls fn for an empty range.
func TestEach(t *testing.T) {
	ctx := context.Background()
	for _, par := range []int{1, 4} {
		out := make([]int, 64)
		if err := EachCtx(ctx, par, len(out), func(i int) { out[i] = i + 1 }, nil); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("par=%d: out[%d] = %d", par, i, v)
			}
		}
	}
	if err := EachCtx(ctx, 4, 0, func(i int) { t.Error("fn called for n=0") }, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEachCtxRunsAll proves every index runs exactly once when the context
// never cancels.
func TestEachCtxRunsAll(t *testing.T) {
	for _, par := range []int{1, 4, 16} {
		var ran atomic.Int64
		if err := EachCtx(context.Background(), par, 200, func(i int) { ran.Add(1) }, nil); err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if ran.Load() != 200 {
			t.Fatalf("par=%d: ran %d of 200", par, ran.Load())
		}
	}
}

// TestEachCtxCancelDrainsWorkers cancels a pool mid-run under a timeout
// storm (every task blocks until cancellation) and proves that (a) EachCtx
// returns only after every in-flight task finished, and (b) no pool worker
// goroutine survives the call - the mid-run-timeout leak the supervisor
// relies on never happening.
func TestEachCtxCancelDrainsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		const par = 8
		var started, finished atomic.Int64
		err := EachCtx(ctx, par, 1000, func(i int) {
			started.Add(1)
			if started.Load() == par {
				cancel() // storm: cancel once the pool is saturated
			}
			<-ctx.Done() // every in-flight task blocks until cancellation
			finished.Add(1)
		}, nil)
		cancel()
		if err == nil {
			t.Fatalf("round %d: want context error after cancellation", round)
		}
		if s, f := started.Load(), finished.Load(); s != f {
			t.Fatalf("round %d: %d tasks started but only %d finished before return", round, s, f)
		}
		if s := started.Load(); s >= 1000 {
			t.Fatalf("round %d: cancellation did not stop index claiming (%d claimed)", round, s)
		}
	}
	// Workers must be gone; allow the runtime a moment to retire them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancellation storms",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEachCtxSequentialCancel covers the parallelism<=1 inline path.
func TestEachCtxSequentialCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int
	err := EachCtx(ctx, 1, 100, func(i int) {
		ran++
		if ran == 7 {
			cancel()
		}
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 7 {
		t.Fatalf("ran %d tasks after cancel at 7", ran)
	}
}
