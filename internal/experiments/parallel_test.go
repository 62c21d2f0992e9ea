package experiments

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"nautilus/internal/telemetry"
	"nautilus/internal/telemetry/trace"
)

// renderFig runs a figure and flattens its tables (header, rows, notes) to
// one byte string so parallel and sequential runs can be compared exactly.
func renderFig(t *testing.T, fig func(Config) ([]Table, error), cfg Config) []byte {
	t.Helper()
	tables, err := fig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i := range tables {
		tables[i].Fprint(&buf)
	}
	return buf.Bytes()
}

// TestFig4ParallelDeterminism asserts the NoC figure's tables are
// byte-identical at Parallelism 1 and 8 - the harness's central guarantee.
func TestFig4ParallelDeterminism(t *testing.T) {
	cfg := fastCfg()
	cfg.Parallelism = 1
	seq := renderFig(t, Fig4, cfg)
	cfg.Parallelism = 8
	par := renderFig(t, Fig4, cfg)
	if !bytes.Equal(seq, par) {
		t.Errorf("fig4 output differs between Parallelism 1 and 8:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
}

// TestFig6ParallelDeterminism does the same for an FFT figure, which also
// exercises the parallel random-sampling comparison.
func TestFig6ParallelDeterminism(t *testing.T) {
	cfg := fastCfg()
	cfg.Parallelism = 1
	seq := renderFig(t, Fig6, cfg)
	cfg.Parallelism = 8
	par := renderFig(t, Fig6, cfg)
	if !bytes.Equal(seq, par) {
		t.Errorf("fig6 output differs between Parallelism 1 and 8:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
}

// TestFig2ParallelDeterminism covers the parallel space enumeration path:
// the scatter rows must come back in flat enumeration order.
func TestFig2ParallelDeterminism(t *testing.T) {
	cfg := fastCfg()
	cfg.Parallelism = 1
	seq := renderFig(t, Fig2, cfg)
	cfg.Parallelism = 8
	par := renderFig(t, Fig2, cfg)
	if !bytes.Equal(seq, par) {
		t.Error("fig2 output differs between Parallelism 1 and 8")
	}
}

// TestRecorderDoesNotPerturbFigures asserts a trace stream feeding every
// sink leaves every table byte-identical, at parallelism 1 and 4, while
// actually observing the harness's GA trials.
func TestRecorderDoesNotPerturbFigures(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			cfg := fastCfg()
			cfg.Parallelism = par
			plain := renderFig(t, Fig4, cfg)
			col := telemetry.NewCollector(nil)
			cfg.Tracer = trace.New(trace.Config{Sinks: []trace.Sink{
				col, telemetry.NewJournal(io.Discard), trace.NewRing(32), trace.NewDurations(),
			}})
			recorded := renderFig(t, Fig4, cfg)
			if !bytes.Equal(plain, recorded) {
				t.Errorf("fig4 output differs with a stream wired:\n--- plain ---\n%s\n--- recorded ---\n%s", plain, recorded)
			}
			snap := col.Registry().Snapshot()
			if snap.Counters[telemetry.MetricGenerations] == 0 {
				t.Error("collector saw no generations despite observing a full figure")
			}
			if snap.Counters[telemetry.MetricPoolTasks] == 0 {
				t.Error("collector saw no pool tasks despite the trial fan-out")
			}
		})
	}
}
