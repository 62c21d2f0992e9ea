package pool

import (
	"context"
	"sync"
	"testing"

	"nautilus/internal/telemetry"
	"nautilus/internal/telemetry/trace"
)

// poolEventCounter is a minimal sink counting scheduling events and
// tracking instantaneous/peak worker occupancy.
type poolEventCounter struct {
	trace.NopSink
	mu    sync.Mutex
	tasks int
	busy  int
	idle  int
	cur   int
	peak  int
}

func (c *poolEventCounter) OnPool(p trace.PoolRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch p.Event {
	case trace.PoolTask:
		c.tasks++
	case trace.PoolWorkerBusy:
		c.busy++
		c.cur++
		if c.cur > c.peak {
			c.peak = c.cur
		}
	case trace.PoolWorkerIdle:
		c.idle++
		c.cur--
	}
}

// TestMapTelemetry checks every task is reported, every worker that went
// busy also went idle, and occupancy never exceeds the requested
// parallelism - on both the sequential and the parallel path.
func TestMapTelemetry(t *testing.T) {
	for _, par := range []int{1, 4} {
		rec := &poolEventCounter{}
		const n = 20
		tr := trace.New(trace.Config{Sinks: []trace.Sink{rec}})
		out, err := Map(par, n, func(i int) (int, error) { return i * i, nil }, tr)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("par %d: out[%d] = %d, recording changed results", par, i, v)
			}
		}
		if rec.tasks != n {
			t.Errorf("par %d: task events = %d, want %d", par, rec.tasks, n)
		}
		if rec.busy != rec.idle {
			t.Errorf("par %d: busy events %d != idle events %d", par, rec.busy, rec.idle)
		}
		if rec.busy < 1 || rec.busy > par {
			t.Errorf("par %d: %d workers started, want 1..%d", par, rec.busy, par)
		}
		if rec.peak > par {
			t.Errorf("par %d: peak occupancy %d exceeds parallelism", par, rec.peak)
		}
		if rec.cur != 0 {
			t.Errorf("par %d: occupancy %d after completion, want 0", par, rec.cur)
		}
	}
}

// TestEachCtxTelemetry mirrors TestMapTelemetry for the side-effecting
// variant, and checks the collector's occupancy gauges settle back to zero.
func TestEachCtxTelemetry(t *testing.T) {
	col := telemetry.NewCollector(nil)
	tr := trace.New(trace.Config{Sinks: []trace.Sink{col}})
	var hits [32]int
	if err := EachCtx(context.Background(), 4, len(hits), func(i int) { hits[i]++ }, tr); err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
	snap := col.Registry().Snapshot()
	if got := snap.Counters[telemetry.MetricPoolTasks]; got != int64(len(hits)) {
		t.Errorf("pool tasks = %d, want %d", got, len(hits))
	}
	if got := snap.Gauges[telemetry.MetricPoolBusy]; got != 0 {
		t.Errorf("workers busy after completion = %v, want 0", got)
	}
	if peak := snap.Gauges[telemetry.MetricPoolBusyMax]; peak < 1 || peak > 4 {
		t.Errorf("peak workers busy = %v, want 1..4", peak)
	}
}
