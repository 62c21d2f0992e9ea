// Package telemetry is the aggregation side of the search engine's
// observability: a lock-cheap metrics registry (atomic counters, gauges,
// and fixed-bucket histograms with a consistent Snapshot export), its
// Prometheus rendering, and the two run-event sinks of the one trace
// stream - Collector and Journal.
//
// The paper's central claim is about search *efficiency* - quality reached
// per distinct design-point evaluation - and diagnosing why a search
// converges or stalls needs live visibility into the quantities behind
// that claim: how often hints actually fire versus random mutation (the
// confidence knob of Table 1), cache hit rates over time, worker-pool
// occupancy, and per-generation convergence. The engine reports those as
// records on its *trace.Tracer (see package trace for the stream's
// nil-safety and determinism contract); the sinks here turn them into:
//
//   - Collector: registry counters, gauges, and histograms plus the
//     retained per-generation trajectory for the end-of-run summary;
//   - Journal: one JSON line per span and record, the machine-readable
//     run record that survives the process;
//   - DebugMux/ServeDebug: /metrics and pprof over a registry.
package telemetry
