// Command experiments regenerates every table and figure of the Nautilus
// paper's evaluation against this repository's synthesis substrate.
//
// Usage:
//
//	experiments [-fig all|fig1..fig7|headline|ablations|
//	             ext-baselines|ext-pareto|ext-sim-validate|ext-thirdip]
//	            [-runs N] [-gens N] [-par N] [-out DIR] [-md FILE]
//	            [-summary] [-journal FILE] [-debug-addr ADDR]
//	            [-checkpoint FILE] [-checkpoint-every N] [-resume]
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
// -checkpoint persists each completed figure's tables to a progress file
// (atomic rename); figures then run sequentially so a SIGINT/SIGTERM or
// crash loses at most the in-flight figure, and -resume skips the
// completed ones on the next invocation. Tables are deterministic per
// (-runs, -gens), so a resumed run's output is identical to an
// uninterrupted one; the progress file rejects mismatched scale settings.
//
// Exit codes: 0 success, 1 fatal error, 2 usage error, 3 interrupted with
// progress saved (resume with -resume).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nautilus/internal/cliflags"
	"nautilus/internal/experiments"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		// After the first signal starts the graceful stop, restore default
		// handling so a second signal kills the process immediately.
		<-ctx.Done()
		stop()
	}()
	realMain(ctx)
}

func realMain(ctx context.Context) {
	fig := flag.String("fig", "all", "which experiment to regenerate (all, fig1..fig7, headline, ablations, ext-*)")
	runs := flag.Int("runs", 0, "override GA runs per variant (0 = paper defaults)")
	gens := flag.Int("gens", 0, "override GA generations (0 = paper defaults)")
	par := cliflags.NewParallelism(flag.CommandLine, 0, true)
	out := flag.String("out", "", "directory for CSV output (optional)")
	md := flag.String("md", "", "also write a markdown report to this file (optional)")
	obs := cliflags.NewObservability(flag.CommandLine, false)
	checkpoint := flag.String("checkpoint", "", "persist each completed figure's tables to this progress file (figures run sequentially)")
	checkpointEvery := flag.Int("checkpoint-every", 1, "persist the progress file after every N completed figures (with -checkpoint)")
	resume := flag.Bool("resume", false, "skip figures already completed in the -checkpoint progress file")
	flag.Parse()
	if err := validateFlags(*runs, *gens); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	if err := par.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	if err := validateCheckpointFlags(*checkpoint, *checkpointEvery, *resume); err != nil {
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
	var tables []experiments.Table
	if *checkpoint != "" {
		// The resumable path trades figure-level concurrency for figure-level
		// durability; within each figure the full -par fan-out still applies.
		names := []string{*fig}
		if *fig == "all" {
			names = experiments.FigureNames()
		}
		var prog *experiments.Progress
		if *resume {
			if _, statErr := os.Stat(*checkpoint); statErr != nil {
				fmt.Fprintf(os.Stderr, "experiments: -resume: progress file: %v\n", statErr)
				os.Exit(1)
			}
			prog, err = experiments.LoadProgress(*checkpoint, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
			if n := prog.CompletedCount(); n > 0 {
				fmt.Fprintf(os.Stderr, "resuming from %s: %d figures already complete\n", *checkpoint, n)
			}
		} else {
			prog = experiments.NewProgress(*checkpoint, cfg)
		}
		prog.SetSaveEvery(*checkpointEvery)
		tables, err = experiments.RunResumable(ctx, cfg, names, prog)
		if err != nil && errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "experiments: interrupted; %d figures saved to %s (continue with -resume)\n",
				prog.CompletedCount(), *checkpoint)
			os.Exit(3)
		}
	} else {
		tables, err = driver(cfg)
	}
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

// validateCheckpointFlags front-doors the progress-file flags.
func validateCheckpointFlags(checkpoint string, every int, resume bool) error {
	if every < 1 {
		return fmt.Errorf("-checkpoint-every must be at least 1 figure, got %d", every)
	}
	if resume && checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint to name the progress file")
	}
	return nil
}
