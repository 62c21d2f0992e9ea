// Command mapspace enumerates and characterizes an IP generator's full
// design space to CSV - the offline characterization step the paper ran on
// a 200+ core cluster for two weeks, reproduced here against the analytical
// synthesis substrate.
//
// Usage:
//
//	mapspace -ip noc|fft|network|gemm [-o FILE] [-debug-addr ADDR]
//	         [-eval-timeout DUR] [-eval-retries N]
//
// Against a real synthesis backend individual characterizations can hang or
// fail transiently; -eval-timeout bounds each attempt and -eval-retries
// retries transient failures with jittered exponential backoff before the
// point is recorded as infeasible.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nautilus/internal/cliflags"
	"nautilus/internal/dataset"
	"nautilus/internal/fft"
	"nautilus/internal/gemm"
	"nautilus/internal/metrics"
	"nautilus/internal/noc"
	"nautilus/internal/param"
	"nautilus/internal/resilience"
	"nautilus/internal/telemetry"
)

func main() {
	ip := flag.String("ip", "noc", "IP generator to map: noc (VC router), fft, network (64-endpoint NoCs), or gemm")
	out := flag.String("o", "", "output CSV file (default stdout)")
	debugAddr := cliflags.DebugAddr(flag.CommandLine)
	supFlags := cliflags.NewSupervision(flag.CommandLine, false)
	flag.Parse()
	if err := supFlags.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "mapspace: %v\n", err)
		os.Exit(2)
	}

	var (
		space *param.Space
		eval  dataset.Evaluator
	)
	switch *ip {
	case "noc":
		s := noc.RouterSpace()
		space = s
		eval = func(pt param.Point) (metrics.Metrics, error) { return noc.RouterEvaluate(s, pt) }
	case "fft":
		s := fft.Space()
		space = s
		eval = func(pt param.Point) (metrics.Metrics, error) { return fft.Evaluate(s, pt) }
	case "network":
		s := noc.NetworkSpace()
		space = s
		eval = func(pt param.Point) (metrics.Metrics, error) { return noc.NetworkEvaluate(s, pt) }
	case "gemm":
		s := gemm.Space()
		space = s
		eval = func(pt param.Point) (metrics.Metrics, error) { return gemm.Evaluate(s, pt) }
	default:
		fmt.Fprintf(os.Stderr, "mapspace: unknown IP %q\n", *ip)
		os.Exit(2)
	}

	if supFlags.Enabled() {
		sup, err := resilience.NewSupervisor(space, dataset.AdaptContext(eval), supFlags.Policy(), nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mapspace: %v\n", err)
			os.Exit(2)
		}
		eval = sup.PlainEvaluator()
	}

	// Full enumerations can run for a long time; the debug endpoint exposes
	// how far along the sweep is (points characterized, infeasible so far).
	if *debugAddr != "" {
		reg := telemetry.NewRegistry()
		points := reg.Counter("mapspace.points")
		infeasible := reg.Counter("mapspace.infeasible")
		reg.Gauge("mapspace.points_total").Set(float64(space.Cardinality()))
		inner := eval
		eval = func(pt param.Point) (metrics.Metrics, error) {
			m, err := inner(pt)
			points.Inc()
			if err != nil {
				infeasible.Inc()
			}
			return m, err
		}
		addr, err := telemetry.ServeDebug(*debugAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mapspace: debug endpoint: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "mapspace: debug endpoint http://%s/metrics\n", addr)
	}

	start := time.Now()
	ds, err := dataset.Build(space, eval)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mapspace: %v\n", err)
		os.Exit(1)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mapspace: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := ds.WriteCSV(w); err != nil {
		fmt.Fprintf(os.Stderr, "mapspace: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "mapspace: %s: %d feasible + %d infeasible points in %v\n",
		*ip, ds.Size(), ds.Infeasible(), time.Since(start).Round(time.Millisecond))
}
