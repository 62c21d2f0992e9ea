// Package pool provides a bounded worker pool with deterministic,
// index-ordered results - the orchestration primitive behind the parallel
// experiment harness.
//
// Every fan-out in this repository (GA trials, figure variants, whole
// figures, design-space enumerations, population fitness evaluation) is a
// fixed list of independent jobs whose *outputs* must not depend on
// scheduling. Map and EachCtx therefore identify jobs by index: a fixed set of
// workers claims indices from a shared counter, and results land in a
// pre-sized slice slot per index. Running with parallelism 1 and
// parallelism N yields identical result slices.
package pool

import (
	"context"
	"sync"
	"sync/atomic"

	"nautilus/internal/telemetry/trace"
)

// Map runs fn(i) for every i in [0,n) using at most parallelism concurrent
// workers and returns the n results in index order.
//
// If a call fails, workers stop claiming new indices, Map waits for
// in-flight calls, and the error with the lowest index among those recorded
// is returned. With parallelism <= 1 the jobs run sequentially on the
// calling goroutine and the first error returns immediately.
//
// Each task run, worker start (busy), and worker exit (idle) is reported to
// tr, so pool occupancy and effective parallelism are observable. A nil tr
// records nothing and costs one nil check per event; recording never
// alters scheduling or results.
func Map[T any](parallelism, n int, fn func(i int) (T, error), tr *trace.Tracer) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism <= 1 {
		tr.RecordPool(trace.PoolRecord{Event: trace.PoolWorkerBusy, Worker: 0})
		defer tr.RecordPool(trace.PoolRecord{Event: trace.PoolWorkerIdle, Worker: 0})
		for i := 0; i < n; i++ {
			v, err := fn(i)
			tr.RecordPool(trace.PoolRecord{Event: trace.PoolTask, Worker: 0})
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr.RecordPool(trace.PoolRecord{Event: trace.PoolWorkerBusy, Worker: w})
			defer tr.RecordPool(trace.PoolRecord{Event: trace.PoolWorkerIdle, Worker: w})
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				v, err := fn(i)
				tr.RecordPool(trace.PoolRecord{Event: trace.PoolTask, Worker: w})
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[i] = v
			}
		}(w)
	}
	wg.Wait()
	if failed.Load() {
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// EachCtx runs fn(i) for every i in [0,n) using at most parallelism
// concurrent workers and waits for all calls to finish - Map for
// side-effecting jobs that cannot fail (e.g. filling a pre-allocated slice
// in place), under a context. Scheduling is reported to tr exactly as in
// Map.
//
// Workers stop claiming new indices once ctx is canceled, in-flight calls
// run to completion (the pool fully drains), and the context's error is
// returned whenever it was canceled - even when every index had already
// been claimed, because in-flight calls may have observed the canceled
// context and produced void results. A nil error therefore guarantees
// every index ran under a live context.
//
// Cancellation is a claim barrier, not a preemption: fn itself observes ctx
// only if its closure captures it. Workers always drain - after EachCtx
// returns, no pool goroutine remains, which is what makes mid-run timeout
// storms safe (see the drain test).
func EachCtx(ctx context.Context, parallelism, n int, fn func(i int), tr *trace.Tracer) error {
	if n == 0 {
		return nil
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism <= 1 {
		tr.RecordPool(trace.PoolRecord{Event: trace.PoolWorkerBusy, Worker: 0})
		defer tr.RecordPool(trace.PoolRecord{Event: trace.PoolWorkerIdle, Worker: 0})
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
			tr.RecordPool(trace.PoolRecord{Event: trace.PoolTask, Worker: 0})
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr.RecordPool(trace.PoolRecord{Event: trace.PoolWorkerBusy, Worker: w})
			defer tr.RecordPool(trace.PoolRecord{Event: trace.PoolWorkerIdle, Worker: w})
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
				tr.RecordPool(trace.PoolRecord{Event: trace.PoolTask, Worker: w})
			}
		}(w)
	}
	wg.Wait()
	// Checked after the drain, not via a worker-observed flag: a cancel that
	// lands once every index is claimed is still a cancel - the in-flight
	// calls may have seen the dead context, so their results cannot be
	// trusted as a completed batch.
	return ctx.Err()
}
