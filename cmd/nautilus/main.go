// Command nautilus runs a guided design-space search query against one of
// the bundled IP generators and prints the best configuration found along
// with the search trace - the end-user experience the paper targets: an IP
// user states an optimization goal, and the generator tunes its own
// parameters.
//
// Usage:
//
//	nautilus -ip noc|fft|gemm -query QUERY [-guidance baseline|weak|strong]
//	         [-mode scalar|pareto|portfolio] [-queries Q1,Q2,...]
//	         [-gens N] [-pop N] [-par N] [-seed N] [-summary] [-rtl FILE]
//	         [-hints FILE] [-save-hints FILE] [-journal FILE] [-debug-addr ADDR]
//	         [-trace-buffer N]
//	         [-checkpoint FILE] [-checkpoint-every N] [-resume FILE]
//	         [-eval-timeout DUR] [-eval-retries N] [-quarantine-after N]
//	         [-fault-rate F] [-fault-failures N] [-fault-seed N]
//
// Queries:
//
//	noc:  max-frequency | min-luts | min-area-delay
//	fft:  min-luts | max-throughput | max-throughput-per-lut | max-snr
//	gemm: min-luts | max-gmacs | max-gmacs-per-lut
//
// Modes: the default scalar mode optimizes the single -query objective.
// -mode pareto trades two or more objectives off simultaneously: pass them
// as -queries min-luts,max-throughput (the first is the primary objective
// the scalar result lines describe) and the run prints the full
// non-dominated front with its hypervolume instead of a single winner.
// -mode portfolio races the guided GA, the unguided baseline GA, and
// simulated annealing concurrently over one shared evaluation cache on the
// -query objective and reports each strategy's private outcome alongside
// the merged best; the race re-runs from scratch on restart, so it cannot
// be combined with -checkpoint or -resume.
//
// Long searches survive crashes and preemption: -checkpoint snapshots the
// full GA state every -checkpoint-every generations (atomic rename, never a
// torn file), SIGINT/SIGTERM drains in-flight evaluations and writes a
// final snapshot, and -resume continues a run to the byte-identical result
// the uninterrupted run would have produced. The supervised evaluation path
// (-eval-timeout/-eval-retries/-quarantine-after) retries transient
// synthesis failures with jittered exponential backoff and quarantines
// persistently failing points as infeasible; -fault-rate injects
// deterministic transient faults to exercise it.
//
// Observability is one trace stream with a sink per flag: -summary prints
// the per-generation trajectory, cache/hint/pool totals, and the span
// latency table; -journal writes every span and run event as JSON lines;
// -debug-addr serves live Prometheus metrics and pprof; -trace-buffer
// keeps the last N spans and dumps them when the run fails or is
// interrupted. None of them changes the search result.
//
// Exit codes: 0 success, 1 fatal error, 2 usage error, 3 interrupted with
// checkpoint saved (resume with -resume).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"nautilus/internal/catalog"
	"nautilus/internal/cliflags"
	"nautilus/internal/core"
	"nautilus/internal/dataset"
	"nautilus/internal/ga"
	"nautilus/internal/metrics"
	"nautilus/internal/resilience"
	"nautilus/internal/resilience/faulty"
)

// Exit codes, so orchestration around long searches can tell a crash from
// a clean preemption it should resume.
const (
	exitOK          = 0
	exitFatal       = 1
	exitUsage       = 2
	exitInterrupted = 3
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		// After the first signal starts the graceful drain, restore default
		// handling so a second signal kills the process immediately.
		<-ctx.Done()
		stop()
	}()
	code, err := run(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nautilus: %v\n", err)
	}
	os.Exit(code)
}

// validateFlags rejects GA shape flags that would otherwise fail deep in
// the engine (or silently misbehave) with a clear front-door error.
func validateFlags(pop, gens int, seed int64) error {
	if pop < 2 {
		return fmt.Errorf("-pop must be at least 2 (crossover needs two parents), got %d", pop)
	}
	if gens < 1 {
		return fmt.Errorf("-gens must be at least 1, got %d", gens)
	}
	if seed < 0 {
		return fmt.Errorf("-seed must be non-negative, got %d", seed)
	}
	return nil
}

// validateModeFlags front-doors the mode surface: pareto needs two or more
// distinct -queries (and owns the query choice, so an explicit -query is a
// conflict), the other modes must not pass -queries, and portfolio races
// cannot checkpoint or resume (the race restarts from scratch).
func validateModeFlags(mode string, querySet bool, queries []string, checkpoint, resume string) error {
	switch mode {
	case "", core.ModeScalar, core.ModePortfolio:
		if len(queries) > 0 {
			return fmt.Errorf("-queries requires -mode pareto (got %q)", mode)
		}
		if mode == core.ModePortfolio && (checkpoint != "" || resume != "") {
			return fmt.Errorf("-mode portfolio cannot checkpoint or resume: the race re-runs from scratch on restart")
		}
	case core.ModePareto:
		if querySet {
			return fmt.Errorf("-mode pareto takes its objectives from -queries; drop -query")
		}
		if len(queries) < 2 {
			return fmt.Errorf("-mode pareto needs at least two comma-separated -queries, got %d", len(queries))
		}
		seen := make(map[string]bool, len(queries))
		for _, q := range queries {
			if seen[q] {
				return fmt.Errorf("-queries lists %q twice", q)
			}
			seen[q] = true
		}
	default:
		return fmt.Errorf("-mode must be scalar, pareto, or portfolio, got %q", mode)
	}
	return nil
}

// splitQueries parses the comma-separated -queries value, trimming blanks.
func splitQueries(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, q := range strings.Split(s, ",") {
		if q = strings.TrimSpace(q); q != "" {
			out = append(out, q)
		}
	}
	return out
}

// validateResilienceFlags front-doors the checkpoint and fault-injection
// flags (the supervision flags validate through cliflags).
func validateResilienceFlags(every int, faultRate float64, faultFailures int) error {
	if every < 1 {
		return fmt.Errorf("-checkpoint-every must be at least 1 generation, got %d", every)
	}
	if faultRate < 0 || faultRate > 1 {
		return fmt.Errorf("-fault-rate must be in [0,1], got %v", faultRate)
	}
	if faultFailures < 0 {
		return fmt.Errorf("-fault-failures must be non-negative (0 = default), got %d", faultFailures)
	}
	return nil
}

func run(ctx context.Context) (int, error) {
	ip := flag.String("ip", "fft", "IP generator: noc, fft, or gemm")
	query := flag.String("query", "min-luts", "optimization query (see doc)")
	mode := flag.String("mode", core.ModeScalar, "search mode: scalar, pareto, or portfolio")
	queriesFlag := flag.String("queries", "", "comma-separated objectives for -mode pareto (first is primary)")
	guidance := flag.String("guidance", "strong", "baseline, weak, or strong")
	gens := flag.Int("gens", 80, "GA generations")
	pop := flag.Int("pop", 10, "GA population size")
	par := cliflags.NewParallelism(flag.CommandLine, runtime.GOMAXPROCS(0), false)
	seed := flag.Int64("seed", 1, "random seed")
	obs := cliflags.NewObservability(flag.CommandLine, true)
	emitRTL := flag.String("rtl", "", "write the best design's Verilog to this file")
	hintsIn := flag.String("hints", "", "load the hint library from this JSON file instead of the built-in one")
	hintsOut := flag.String("save-hints", "", "write the active hint library to this JSON file")
	checkpoint := flag.String("checkpoint", "", "snapshot full GA state to this file (atomic rename) for crash recovery")
	checkpointEvery := flag.Int("checkpoint-every", 1, "snapshot every N generations (with -checkpoint)")
	resume := flag.String("resume", "", "resume from a checkpoint file written by -checkpoint (-ip and -seed must match)")
	sup := cliflags.NewSupervision(flag.CommandLine, true)
	faultRate := flag.Float64("fault-rate", 0, "inject deterministic transient faults on this fraction of design points (resilience testing)")
	faultFailures := flag.Int("fault-failures", 0, "failed attempts before an injected transient point succeeds (0 = default 1)")
	faultSeed := flag.Int64("fault-seed", 1, "seed decorrelating injected faults from the search seed")
	flag.Parse()
	if err := validateFlags(*pop, *gens, *seed); err != nil {
		return exitUsage, err
	}
	querySet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "query" {
			querySet = true
		}
	})
	queries := splitQueries(*queriesFlag)
	if err := validateModeFlags(*mode, querySet, queries, *checkpoint, *resume); err != nil {
		return exitUsage, err
	}
	if err := par.Validate(); err != nil {
		return exitUsage, err
	}
	if err := sup.Validate(); err != nil {
		return exitUsage, err
	}
	if err := obs.Validate(); err != nil {
		return exitUsage, err
	}
	if err := validateResilienceFlags(*checkpointEvery, *faultRate, *faultFailures); err != nil {
		return exitUsage, err
	}

	// The catalog resolves (ip, query) to the space, evaluator, default
	// hint library, and objective - the same resolution nautserve performs,
	// so a CLI run and a server session with equal settings are
	// byte-identical searches. A pareto run resolves every -queries entry
	// against the same IP (all queries of an IP share one space) and leads
	// with the first as the primary objective.
	var objs []metrics.Objective
	if *mode == core.ModePareto {
		for _, q := range queries {
			e, err := catalog.Lookup(*ip, q)
			if err != nil {
				return exitUsage, err
			}
			objs = append(objs, e.Objective)
		}
		*query = queries[0]
	}
	entry, err := catalog.Lookup(*ip, *query)
	if err != nil {
		return exitUsage, err
	}
	space, eval, obj := entry.Space, entry.Eval, entry.Objective

	lib := entry.Library
	if *hintsIn != "" {
		f, err := os.Open(*hintsIn)
		if err != nil {
			return exitFatal, err
		}
		lib, err = core.LoadLibrary(space, f)
		f.Close()
		if err != nil {
			return exitFatal, err
		}
	}
	if *hintsOut != "" {
		f, err := os.Create(*hintsOut)
		if err != nil {
			return exitFatal, err
		}
		if err := lib.SaveJSON(f); err != nil {
			f.Close()
			return exitFatal, err
		}
		if err := f.Close(); err != nil {
			return exitFatal, err
		}
		fmt.Printf("hint library written to %s\n", *hintsOut)
	}

	guid, err := entry.Guidance(*guidance, lib)
	if err != nil {
		if *guidance != catalog.GuidanceBaseline && *guidance != catalog.GuidanceWeak &&
			*guidance != catalog.GuidanceStrong {
			return exitUsage, err
		}
		return exitFatal, err
	}

	// Telemetry assembly: one trace stream whose sinks back the -summary
	// report, the debug endpoint, the journal, and the flight recorder.
	// With none of the observability flags set the tracer stays nil and
	// the run pays nothing for it. The stream is observational only: its
	// span-ID stream is seeded separately from the search RNG, so an
	// observed run's results match the plain run's byte for byte.
	stack, err := obs.Build("", *seed)
	if err != nil {
		return exitFatal, err
	}
	defer stack.Close()

	// A registry shared with the collector surfaces resilience and
	// checkpoint metrics in -summary and on the debug endpoint.
	reg := stack.Registry()

	// Evaluation chain: base evaluator, then (optionally) deterministic
	// fault injection, then the supervision layer with per-attempt
	// deadlines, retries, and the quarantine breaker. Retries absorb
	// transient failures before they reach the GA, so a supervised run's
	// search results match the fault-free run's byte for byte.
	ctxEval := dataset.AdaptContext(eval)
	if *faultRate > 0 {
		inj, err := faulty.NewContext(space, ctxEval, faulty.Config{
			TransientRate:     *faultRate,
			TransientFailures: *faultFailures,
			Seed:              *faultSeed,
		})
		if err != nil {
			return exitUsage, err
		}
		ctxEval = inj.Evaluate
	}
	var supv *resilience.Supervisor
	if sup.Enabled() || *faultRate > 0 {
		// The supervisor's evaluate/attempt/backoff spans join the run's
		// one trace stream.
		policy := sup.Policy()
		policy.Tracer = stack.Tracer
		var err error
		supv, err = resilience.NewSupervisor(space, ctxEval, policy, reg)
		if err != nil {
			return exitUsage, err
		}
		ctxEval = supv.Evaluate
	}

	cfg := ga.Config{PopulationSize: *pop, Generations: *gens, Seed: *seed, Parallelism: par.Value()}
	if *checkpoint != "" {
		saver := resilience.NewSaver(*checkpoint, space, reg)
		cfg.Checkpoint = saver.Save
		cfg.CheckpointEvery = *checkpointEvery
	}
	if *resume != "" {
		snap, err := resilience.Load(*resume, space, *seed)
		if err != nil {
			return exitFatal, err
		}
		cfg.Resume = snap
		fmt.Fprintf(os.Stderr, "resuming from %s at generation %d\n", *resume, snap.Generation)
	}
	req := core.SearchRequest{
		Space:       space,
		Mode:        *mode,
		Objective:   obj,
		Objectives:  objs,
		EvaluateCtx: ctxEval,
		Config:      cfg,
	}
	res, err := core.Search(ctx, req, core.WithGuidance(guid), core.WithTracer(stack.Tracer))
	if err != nil {
		// Post-mortem: the flight recorder holds the last spans before the
		// failure - where the final moments of the run went.
		stack.DumpRing(os.Stderr)
		return exitFatal, err
	}

	if err := stack.WriteSummary(os.Stdout); err != nil {
		return exitFatal, err
	}
	if supv != nil {
		if q := supv.Quarantined(); len(q) > 0 {
			fmt.Printf("quarantined:     %d design points demoted to infeasible after repeated failures\n", len(q))
		}
	}
	if res.Interrupted {
		stack.DumpRing(os.Stderr)
		if *checkpoint == "" {
			return exitFatal, fmt.Errorf("interrupted (no -checkpoint configured; progress lost)")
		}
		fmt.Fprintf(os.Stderr, "nautilus: interrupted; state saved to %s (continue with -resume %s)\n",
			*checkpoint, *checkpoint)
		return exitInterrupted, nil
	}

	if res.BestPoint == nil {
		return exitFatal, fmt.Errorf("no feasible design found")
	}
	m, err := eval(res.BestPoint)
	if err != nil {
		return exitFatal, err
	}
	if *mode == core.ModePareto {
		fmt.Printf("query:           pareto over %s on %s (%s guidance)\n",
			strings.Join(queries, ", "), *ip, *guidance)
	} else {
		fmt.Printf("query:           %s on %s (%s guidance)\n", obj, *ip, *guidance)
	}
	fmt.Printf("best value:      %.4g\n", res.BestValue)
	fmt.Printf("configuration:   %s\n", space.Describe(res.BestPoint))
	fmt.Printf("all metrics:     %s\n", m)
	fmt.Printf("synthesis jobs:  %d distinct design evaluations (%d queries, %.1f%% cache hits)\n",
		res.Cache.Distinct, res.Cache.Total, 100*res.Cache.HitRate)

	// Pareto runs print the whole trade-off surface: one row per
	// non-dominated design, values in -queries order, best-primary first
	// (the row the scalar lines above describe).
	if len(res.Front) > 0 {
		fmt.Printf("pareto front:    %d non-dominated designs, hypervolume %.4g\n",
			len(res.Front), res.Hypervolume)
		for _, fp := range res.Front {
			vals := make([]string, len(fp.Values))
			for d, v := range fp.Values {
				vals[d] = fmt.Sprintf("%s=%.4g", queries[d], v)
			}
			fmt.Printf("  %-44s %s\n", strings.Join(vals, " "), space.Describe(fp.Point))
		}
	}

	// Portfolio runs print each raced strategy's private outcome; the
	// starred winner is the strategy whose best the merged result adopted.
	for _, o := range res.Portfolio {
		marker := " "
		if o.Winner {
			marker = "*"
		}
		value := "infeasible"
		if o.Feasible {
			value = fmt.Sprintf("best %.4g", o.BestValue)
		}
		fmt.Printf("  %s %-9s %-14s %d distinct evals\n", marker, o.Strategy, value, o.DistinctEvals)
	}

	if *emitRTL != "" {
		design, err := entry.RTL(res.BestPoint)
		if err != nil {
			return exitFatal, fmt.Errorf("emit RTL: %w", err)
		}
		if err := os.WriteFile(*emitRTL, []byte(design.Verilog()), 0o644); err != nil {
			return exitFatal, err
		}
		stats := design.Summarize()
		fmt.Printf("RTL written:     %s (%d modules, %d instances)\n", *emitRTL, stats.Modules, stats.Instances)
	}
	return exitOK, nil
}
