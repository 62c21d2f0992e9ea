// Package experiments reproduces every figure of the Nautilus paper's
// evaluation (Figures 1-7) plus the headline speedup numbers of Section
// 4.2, against this repository's analytical synthesis substrate.
//
// Each experiment returns printable Tables and, when an output directory is
// configured, writes the underlying series as CSV files so the figures can
// be re-plotted. Absolute values differ from the paper (different "fab");
// the reproduced quantity is the shape: which search strategy wins, by
// what factor, and where convergence happens. EXPERIMENTS.md records
// paper-vs-measured for every experiment.
package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"nautilus/internal/core"
	"nautilus/internal/dataset"
	"nautilus/internal/ga"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
	"nautilus/internal/pool"
	"nautilus/internal/synth"
	"nautilus/internal/telemetry/trace"
)

// Config scales the experiments. The zero value reproduces the paper's
// setup; tests and benchmarks shrink Runs/Generations for speed.
type Config struct {
	// Runs is the number of GA runs averaged per search variant
	// (default: the per-figure paper value - 40, or 20 for Figure 3).
	Runs int
	// Generations overrides the GA generation count (default: per-figure
	// paper value - 80, or 20 for Figure 5).
	Generations int
	// Parallelism bounds each fan-out level of the harness - concurrent
	// figures, variants within a figure, GA trials within a variant, and
	// design-space enumeration shards (default: runtime.GOMAXPROCS(0)).
	// Every trial derives its seed from (experiment, variant, run) and
	// results are collected by index, so all tables are byte-identical at
	// any parallelism level, including 1.
	Parallelism int
	// OutDir, when non-empty, receives CSV files per figure.
	OutDir string
	// Tracer, when non-nil, observes every GA trial and harness fan-out:
	// spans, generations, evaluations, cache traffic, hint applications,
	// and pool occupancy aggregate across all figures into one stream. Its
	// sinks must be safe for concurrent use (trials run concurrently, so
	// per-run streams interleave); observing never changes any table.
	Tracer *trace.Tracer
}

func (c Config) runs(paperDefault int) int {
	if c.Runs > 0 {
		return c.Runs
	}
	return paperDefault
}

func (c Config) generations(paperDefault int) int {
	if c.Generations > 0 {
		return c.Generations
	}
	return paperDefault
}

func (c Config) parallelism() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Confidence levels for the paper's guidance variants: the strongly and
// weakly guided configurations "differ only in the confidence hint".
const (
	WeakConfidence   = 0.4
	StrongConfidence = 0.9
)

// Table is one printable experiment result.
type Table struct {
	// Name is the experiment identifier, e.g. "fig4".
	Name string
	// Title describes the table.
	Title string
	// Header holds column names; Rows the cell values.
	Header []string
	Rows   [][]string
	// Notes carry paper-reference annotations printed under the table.
	Notes []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.Name, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// writeCSV writes the table's header+rows as OutDir/<name>.csv.
func (t *Table) writeCSV(dir string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.Name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f, strings.Join(t.Header, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(f, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return f.Close()
}

// seedFor derives a deterministic seed per experiment, variant, and run.
func seedFor(experiment, variant string, run int) int64 {
	return int64(synth.Hash64(experiment, variant, fmt.Sprint(run)) & 0x7fffffff)
}

// runGA performs `runs` independent GA searches on up to par workers and
// collects the results in run order. Each run's seed depends only on
// (experiment, variant, run), so the result set is identical at any par.
func runGA(space *param.Space, obj metrics.Objective, eval dataset.Evaluator,
	g *core.Guidance, experiment, variant string, runs, generations, par int,
	tr *trace.Tracer) ([]ga.Result, error) {
	return pool.Map(par, runs, func(i int) (ga.Result, error) {
		cfg := ga.Config{Seed: seedFor(experiment, variant, i), Generations: generations, Tracer: tr}
		res, err := core.Search(context.Background(), core.SearchRequest{
			Space:     space,
			Objective: obj,
			Evaluate:  eval,
			Config:    cfg,
		}, core.WithGuidance(g))
		if err != nil {
			return ga.Result{}, fmt.Errorf("%s/%s run %d: %w", experiment, variant, i, err)
		}
		return res, nil
	}, tr)
}

// variantSpec names one guidance configuration of a figure.
type variantSpec struct {
	name string
	g    *core.Guidance
}

// runVariants fans a figure's search variants out concurrently; within each
// variant the trials fan out again. The per-variant result sets come back
// in the order the variants were given.
func runVariants(cfg Config, space *param.Space, obj metrics.Objective, eval dataset.Evaluator,
	experiment string, runs, generations int, vs ...variantSpec) ([][]ga.Result, error) {
	par := cfg.parallelism()
	return pool.Map(par, len(vs), func(i int) ([]ga.Result, error) {
		return runGA(space, obj, eval, vs[i].g, experiment, vs[i].name, runs, generations, par, cfg.Tracer)
	}, cfg.Tracer)
}

// f renders a float compactly for table cells.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func fi(v int) string     { return fmt.Sprintf("%d", v) }

// ratio formats a/b, guarding division by zero.
func ratio(a, b float64) string {
	if b == 0 || a != a || b != b { // NaN-safe
		return "n/a"
	}
	return fmt.Sprintf("%.1fx", a/b)
}

// Driver regenerates one figure (or figure group) of the paper.
type Driver func(Config) ([]Table, error)

// figureDrivers lists every individually runnable experiment in paper
// order. "all" is not in this list - it is the whole list.
var figureDrivers = []struct {
	name string
	fn   Driver
}{
	{"fig1", Fig1},
	{"fig2", Fig2},
	{"fig3", Fig3},
	{"fig4", Fig4},
	{"fig5", Fig5},
	{"fig6", Fig6},
	{"fig7", Fig7},
	{"headline", Headline},
	{"ablations", Ablations},
	{"ext-baselines", ExtensionBaselines},
	{"ext-pareto", ExtensionPareto},
	{"ext-sim-validate", ExtensionSimVsAnalytical},
	{"ext-thirdip", ExtensionThirdIP},
}

// FindDriver resolves an experiment name: "all" or a figureDrivers entry.
func FindDriver(name string) (Driver, bool) {
	if name == "all" {
		return All, true
	}
	for _, d := range figureDrivers {
		if d.name == name {
			return d.fn, true
		}
	}
	return nil, false
}

// All runs every experiment concurrently and returns the tables in figure
// order. The figures sharing a memoized dataset simply block on its one
// build; everything else proceeds independently.
func All(cfg Config) ([]Table, error) {
	per, err := pool.Map(cfg.parallelism(), len(figureDrivers), func(i int) ([]Table, error) {
		return figureDrivers[i].fn(cfg)
	}, cfg.Tracer)
	if err != nil {
		return nil, err
	}
	var tables []Table
	for _, ts := range per {
		tables = append(tables, ts...)
	}
	return tables, nil
}
