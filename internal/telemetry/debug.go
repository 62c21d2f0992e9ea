package telemetry

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// DebugMux returns the introspection routes over reg as a mux, so hosts
// with their own HTTP server (the nautserve daemon) can mount them beside
// their API instead of opening a second port:
//
//	/metrics      - the registry in Prometheus text exposition format
//	/debug/pprof  - the standard Go profiling handlers
//
// Nothing is published process-wide: each mux renders only its own
// registry, so several servers in one process never see each other's
// counters.
func DebugMux(reg *Registry) *http.ServeMux {
	if reg == nil {
		reg = NewRegistry()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", MetricsHandler(reg))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebug starts an HTTP introspection endpoint on addr and returns the
// bound address (useful with ":0"). It serves DebugMux(reg), so a long
// search can be watched live (hint rates, cache hit rates, pool occupancy)
// and profiled without stopping it. The server runs on its own goroutine
// for the life of the process; errors after startup are dropped - the
// endpoint is best-effort introspection, never part of the run.
func ServeDebug(addr string, reg *Registry) (string, error) {
	mux := DebugMux(reg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}
