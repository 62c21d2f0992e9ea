package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"nautilus/internal/catalog"
	"nautilus/internal/core"
	"nautilus/internal/dataset"
	"nautilus/internal/ga"
	"nautilus/internal/metrics"
	"nautilus/internal/resilience"
	"nautilus/internal/resilience/faulty"
	"nautilus/internal/telemetry"
	"nautilus/internal/telemetry/trace"
)

// goldenCase is one pinned search: a catalog space, a search mode, the
// objective(s), and the guidance the run uses.
type goldenCase struct {
	name     string
	entry    *catalog.Entry
	mode     string
	objs     []metrics.Objective
	guidance *core.Guidance
}

// goldenCfg is the GA scale every golden run shares: small enough that
// the full matrix stays fast, long enough to carry a generation-5
// checkpoint.
func goldenCfg(seed int64, par int) ga.Config {
	return ga.Config{PopulationSize: 10, Generations: 24, Seed: seed, Parallelism: par}
}

// goldenCases resolves the pinned searches: three scalar queries under
// strong guidance and one unguided two-objective pareto run, at seeds 1-3.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	lookup := func(ip, query string) *catalog.Entry {
		e, err := catalog.Lookup(ip, query)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	var cases []goldenCase
	for _, q := range [][2]string{{"fft", "min-luts"}, {"noc", "max-frequency"}, {"gemm", "max-gmacs"}} {
		e := lookup(q[0], q[1])
		g, err := e.Guidance(catalog.GuidanceStrong, nil)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, goldenCase{name: q[0] + "_" + q[1], entry: e, mode: core.ModeScalar, guidance: g})
	}
	luts, tput := lookup("fft", "min-luts"), lookup("fft", "max-throughput")
	cases = append(cases, goldenCase{
		name:  "fft_pareto_min-luts_max-throughput",
		entry: luts,
		mode:  core.ModePareto,
		objs:  []metrics.Objective{luts.Objective, tput.Objective},
	})
	return cases
}

// request is the case's search request under cfg with the given
// evaluator.
func (gc goldenCase) request(cfg ga.Config, eval dataset.ContextEvaluator) core.SearchRequest {
	req := core.SearchRequest{Space: gc.entry.Space, Mode: gc.mode, EvaluateCtx: eval, Config: cfg}
	if gc.mode == core.ModePareto {
		req.Objectives = gc.objs
	} else {
		req.Objective = gc.entry.Objective
	}
	return req
}

// search runs the case at seed under cfg's parallelism with the given
// evaluator and extra options.
func (gc goldenCase) search(t *testing.T, cfg ga.Config, eval dataset.ContextEvaluator, opts ...core.SearchOption) ga.Result {
	t.Helper()
	res, err := core.Search(context.Background(), gc.request(cfg, eval), append([]core.SearchOption{core.WithGuidance(gc.guidance)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// goldenJSON renders v as indented JSON. IEEE specials (a trajectory's
// best value before anything feasible, a snapshot's unset convergence
// state) are not representable in JSON numbers, so they are written as
// strings ("+Inf", "-Inf", "NaN").
func goldenJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(jsonSafe(reflect.ValueOf(v)), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// jsonSafe converts v into a tree encoding/json accepts: structs become
// objects keyed by field name (in declaration order), maps objects with
// sorted keys, and non-finite floats strings.
func jsonSafe(v reflect.Value) any {
	switch v.Kind() {
	case reflect.Invalid:
		return nil
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return nil
		}
		return jsonSafe(v.Elem())
	case reflect.Float32, reflect.Float64:
		f := v.Float()
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return fmt.Sprint(f)
		}
		return f
	case reflect.Slice:
		if v.IsNil() {
			return nil
		}
		fallthrough
	case reflect.Array:
		out := make([]any, v.Len())
		for i := range out {
			out[i] = jsonSafe(v.Index(i))
		}
		return out
	case reflect.Map:
		if v.IsNil() {
			return nil
		}
		keys := v.MapKeys()
		sort.Slice(keys, func(a, b int) bool { return keys[a].String() < keys[b].String() })
		out := make(orderedObject, 0, len(keys))
		for _, k := range keys {
			out = append(out, field{k.String(), jsonSafe(v.MapIndex(k))})
		}
		return out
	case reflect.Struct:
		out := make(orderedObject, 0, v.NumField())
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				out = append(out, field{f.Name, jsonSafe(v.Field(i))})
			}
		}
		return out
	default:
		return v.Interface()
	}
}

type field struct {
	name string
	val  any
}

// orderedObject is a JSON object that keeps its fields in insertion order.
type orderedObject []field

func (o orderedObject) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, f := range o {
		if i > 0 {
			b.WriteByte(',')
		}
		k, _ := json.Marshal(f.name)
		v, err := json.Marshal(f.val)
		if err != nil {
			return nil, err
		}
		b.Write(k)
		b.WriteByte(':')
		b.Write(v)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file first under UPDATE_GOLDEN=1.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (UPDATE_GOLDEN=1 to accept)", path)
	}
}

// supervisedFaultyEval injects transient faults into 20% of design points
// (one failed attempt each) under a supervisor that absorbs them.
func supervisedFaultyEval(t *testing.T, gc goldenCase, eval dataset.ContextEvaluator) dataset.ContextEvaluator {
	t.Helper()
	inj, err := faulty.NewContext(gc.entry.Space, eval, faulty.Config{
		TransientRate:     0.2,
		TransientFailures: 1,
		Seed:              5,
	})
	if err != nil {
		t.Fatal(err)
	}
	sup, err := resilience.NewSupervisor(gc.entry.Space, inj.Evaluate, resilience.Policy{Sleep: func(time.Duration) {}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sup.Evaluate
}

// dispatchVariant is one way of running a search's evaluations: every
// generation is one cache batch, whose misses are evaluated on the calling
// goroutine at parallelism 1, on pool workers above it, or - stacked - by
// a shared cache the run's private cache stacks on.
type dispatchVariant struct {
	name    string
	par     int
	stacked bool
	opts    []core.SearchOption
}

func dispatchVariants() []dispatchVariant {
	return []dispatchVariant{
		{name: "par=1", par: 1},
		{name: "par=4", par: 4},
		{name: "stacked/par=1", par: 1, stacked: true},
		{name: "stacked/par=4", par: 4, stacked: true},
		{name: "every-sink/par=1", par: 1, opts: everySink()},
		{name: "every-sink/par=4", par: 4, opts: everySink()},
	}
}

// everySink attaches one trace stream feeding every sink the tools wire:
// collector, journal, flight recorder, and span-duration histograms.
func everySink() []core.SearchOption {
	tr := trace.New(trace.Config{Seed: 9, Sinks: []trace.Sink{
		telemetry.NewJournal(io.Discard), trace.NewRing(32), trace.NewDurations(),
	}})
	return []core.SearchOption{core.WithTracer(tr), core.WithRecorder(telemetry.NewCollector(nil))}
}

// TestSearchGolden pins the JSON Result of every golden case at seeds 1-3
// and the generation-5 checkpoint of one run. Runs at parallelism 1 and
// 4, stacked on a shared cache at parallelism 1 and 4, feeding every
// trace sink at parallelism 1 and 4, under 20% injected transient faults
// with supervision, and resumed from their own generation-5 snapshot must
// all reproduce the golden bytes.
func TestSearchGolden(t *testing.T) {
	for _, gc := range goldenCases(t) {
		for seed := int64(1); seed <= 3; seed++ {
			gc, seed := gc, seed
			t.Run(fmt.Sprintf("%s/seed=%d", gc.name, seed), func(t *testing.T) {
				eval := dataset.AdaptContext(gc.entry.Eval)
				ref := gc.search(t, goldenCfg(seed, 1), eval)
				want := goldenJSON(t, ref)
				checkGolden(t, fmt.Sprintf("%s_seed%d", gc.name, seed), want)
				pinSnapshot := gc.name == "fft_min-luts" && seed == 1

				for _, v := range dispatchVariants() {
					var snap []byte
					save := func(s *ga.Snapshot) error {
						if s.Generation == 5 {
							snap = goldenJSON(t, s)
						}
						return nil
					}
					cfg := goldenCfg(seed, v.par)
					if v.stacked {
						cfg.Shared = dataset.NewCacheContext(gc.entry.Space, eval)
					}
					cfg.Checkpoint, cfg.CheckpointEvery = save, 5
					got := gc.search(t, cfg, eval, v.opts...)
					if g := goldenJSON(t, got); !bytes.Equal(g, want) {
						t.Errorf("%s: result differs from golden:\n%s", v.name, firstDiff(g, want))
					}
					if pinSnapshot {
						checkGolden(t, "fft_min-luts_seed1_gen5_snapshot", snap)
					}
				}

				faulted := gc.search(t, goldenCfg(seed, 4), supervisedFaultyEval(t, gc, eval))
				if g := goldenJSON(t, faulted); !bytes.Equal(g, want) {
					t.Errorf("supervised run under injected faults differs from golden:\n%s", firstDiff(g, want))
				}

				var snap *ga.Snapshot
				cfg := goldenCfg(seed, 1)
				cfg.Checkpoint = func(s *ga.Snapshot) error {
					if s.Generation == 5 {
						snap = s
					}
					return nil
				}
				cfg.CheckpointEvery = 5
				gc.search(t, cfg, eval)
				if snap == nil {
					t.Fatal("no generation-5 checkpoint")
				}
				cfg = goldenCfg(seed, 1)
				cfg.Resume = snap
				resumed := gc.search(t, cfg, eval)
				if g := goldenJSON(t, resumed); !bytes.Equal(g, want) {
					t.Errorf("run resumed from generation 5 differs from golden:\n%s", firstDiff(g, want))
				}
			})
		}
	}
}

// firstDiff locates the first differing line of two renderings.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(g), len(w))
}
