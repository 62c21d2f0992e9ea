// Command experiments regenerates every table and figure of the Nautilus
// paper's evaluation against this repository's synthesis substrate.
//
// Usage:
//
//	experiments [-fig all|fig1..fig7|headline|ablations|
//	             ext-baselines|ext-pareto|ext-sim-validate|ext-thirdip]
//	            [-runs N] [-gens N] [-par N] [-out DIR] [-md FILE]
//	            [-summary] [-journal FILE] [-debug-addr ADDR]
//
// With -out, each figure's raw series is also written as CSV for
// re-plotting; with -md, a markdown report is produced. Paper-scale
// settings (the defaults) take under a minute; lower -runs for a quick
// look. Experiments run on all cores by default (-par 0); every trial is
// independently seeded and results are collected by index, so the tables
// are byte-identical at any -par value.
//
// Every trial reports to one trace stream. -summary prints its aggregate
// totals (cache, hints, pool) and span latency table after the tables;
// -journal writes every span and run event (generations, evaluations,
// cache traffic, hint applications, pool scheduling) across all trials to
// one JSONL file; -debug-addr serves live aggregate Prometheus metrics and
// pprof while the figures run. None of them changes any table.
//
// The whole suite runs in seconds, so an interrupted run is simply run
// again: SIGINT or SIGTERM stops the process at once, and the tables are
// deterministic per (-runs, -gens).
//
// Exit codes: 0 success, 1 fatal error, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nautilus/internal/cliflags"
	"nautilus/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "which experiment to regenerate (all, fig1..fig7, headline, ablations, ext-*)")
	runs := flag.Int("runs", 0, "override GA runs per variant (0 = paper defaults)")
	gens := flag.Int("gens", 0, "override GA generations (0 = paper defaults)")
	par := cliflags.NewParallelism(flag.CommandLine, 0, true)
	out := flag.String("out", "", "directory for CSV output (optional)")
	md := flag.String("md", "", "also write a markdown report to this file (optional)")
	obs := cliflags.NewObservability(flag.CommandLine, false)
	flag.Parse()
	if err := validateFlags(*runs, *gens); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	if err := par.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	cfg := experiments.Config{Runs: *runs, Generations: *gens, Parallelism: par.Value(), OutDir: *out}

	// The harness runs trials concurrently, so all sinks see one interleaved
	// stream; the collector's aggregates and the journal are still exact
	// totals across every trial of the requested figures. A per-generation
	// table would interleave thousands of concurrent trials meaninglessly,
	// so the collector keeps only the aggregates.
	stack, err := obs.Build("", 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	defer stack.Close()
	if stack.Collector != nil {
		stack.Collector.DisableGenerationRetention()
	}
	cfg.Tracer = stack.Tracer

	driver, ok := experiments.FindDriver(*fig)
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: unknown figure %q\n", *fig)
		flag.Usage()
		os.Exit(2)
	}

	start := time.Now()
	tables, err := driver(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	for i := range tables {
		tables[i].Fprint(os.Stdout)
	}
	if err := stack.WriteSummary(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	if *md != "" {
		f, err := os.Create(*md)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if err := experiments.WriteMarkdown(f, tables, time.Now()); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("markdown report written to %s\n", *md)
	}
	fmt.Printf("completed in %v\n", time.Since(start).Round(time.Millisecond))
	if *out != "" {
		fmt.Printf("CSV series written to %s\n", *out)
	}
}

// validateFlags rejects scale overrides that cannot mean anything: 0 keeps
// the per-figure paper default, so only negatives are errors (-par
// validates through cliflags).
func validateFlags(runs, gens int) error {
	if runs < 0 {
		return fmt.Errorf("-runs must be non-negative (0 = paper defaults), got %d", runs)
	}
	if gens < 0 {
		return fmt.Errorf("-gens must be non-negative (0 = paper defaults), got %d", gens)
	}
	return nil
}
