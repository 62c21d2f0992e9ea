package resilience

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"nautilus/internal/dataset"
	"nautilus/internal/ga"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
)

const fuzzSeed = 7

func fuzzSpace(t testing.TB) *param.Space {
	t.Helper()
	space, err := param.NewSpace(
		param.Int("a", 0, 7, 1),
		param.Choice("b", "x", "y", "z"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// fuzzSnapshot is a representative valid checkpoint over fuzzSpace.
func fuzzSnapshot() *ga.Snapshot {
	return &ga.Snapshot{
		Seed:        fuzzSeed,
		Generation:  2,
		Draws:       40,
		Population:  []param.Point{{0, 1}, {3, 2}, {7, 0}, {4, 1}},
		Best:        param.Point{3, 2},
		BestFitness: -812,
		BestValue:   812,
		Stale:       1,
		PrevBest:    -830,
		Trajectory: []ga.GenPoint{
			{Generation: 0, DistinctEvals: 4, BestValue: 830, UniqueGenomes: 4},
			{Generation: 1, DistinctEvals: 7, BestValue: 812, UniqueGenomes: 3},
		},
		Cache: dataset.CacheSnapshot{
			Distinct: 7, Total: 9, Dedup: 1,
			Entries: []dataset.CacheEntrySnapshot{
				{Key: "0,1", Metrics: metrics.Metrics{"luts": 830}},
				{Key: "3,2", Metrics: metrics.Metrics{"luts": 812}},
				{Key: "7,0", Err: "infeasible"},
			},
		},
	}
}

// FuzzLoadCheckpoint feeds arbitrary bytes through the checkpoint decoder:
// truncated, bit-flipped, and version-skewed files must come back as
// errors - never a panic, and never a snapshot a resumed run would trust
// with state no real run could have produced.
func FuzzLoadCheckpoint(f *testing.F) {
	space := fuzzSpace(f)
	dir := f.TempDir()
	valid := filepath.Join(dir, "valid.json")
	if err := Save(valid, space, fuzzSnapshot()); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])                                                     // truncated mid-object
	f.Add(bytes.Replace(data, []byte(`"version": 1`), []byte(`"version": 2`), 1)) // schema skew
	f.Add(bytes.Replace(data, []byte(`"rng_draws": 40`), []byte(`"rng_draws": -40`), 1))
	f.Add(bytes.Replace(data, []byte(`"seed": 7`), []byte(`"seed": 8`), 1))
	f.Add(bytes.Replace(data, []byte(`"0,1"`), []byte(`"9,1"`), 1)) // out-of-range genome
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json at all`))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ckpt.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		snap, err := Load(path, space, fuzzSeed)
		if err != nil {
			return // rejected input: exactly what corruption should produce
		}
		// Accepted input: every field a resumed run trusts must be sane.
		if snap.Generation < 0 || snap.Draws < 0 || snap.Stale < 0 {
			t.Fatalf("accepted checkpoint with negative run state: gen=%d draws=%d stale=%d",
				snap.Generation, snap.Draws, snap.Stale)
		}
		if len(snap.Population) == 0 {
			t.Fatal("accepted checkpoint with empty population")
		}
		for i, g := range snap.Population {
			if verr := space.Validate(g); verr != nil {
				t.Fatalf("accepted checkpoint with invalid genome %d: %v", i, verr)
			}
		}
		if snap.Best != nil {
			if verr := space.Validate(snap.Best); verr != nil {
				t.Fatalf("accepted checkpoint with invalid best genome: %v", verr)
			}
		}
		c := snap.Cache
		if c.Distinct < 0 || c.Total < 0 || c.Dedup < 0 || c.Transient < 0 {
			t.Fatalf("accepted checkpoint with negative cache counters: %+v", c)
		}
		// And the accepted state must round-trip: saving and reloading what
		// Load produced cannot fail or drift (a silently lossy decode would
		// resume a different search than it claims to).
		again := filepath.Join(t.TempDir(), "again.json")
		if err := Save(again, space, snap); err != nil {
			t.Fatalf("re-save of accepted checkpoint failed: %v", err)
		}
		snap2, err := Load(again, space, fuzzSeed)
		if err != nil {
			t.Fatalf("re-load of accepted checkpoint failed: %v", err)
		}
		if snap2.Generation != snap.Generation || snap2.Draws != snap.Draws ||
			len(snap2.Population) != len(snap.Population) ||
			snap2.Cache.Distinct != snap.Cache.Distinct || snap2.Cache.Total != snap.Cache.Total ||
			len(snap2.Cache.Entries) != len(snap.Cache.Entries) {
			t.Fatalf("checkpoint drifted across a save/load round trip:\nfirst  %+v\nsecond %+v", snap, snap2)
		}
	})
}

// TestLoadRejectsCorruption pins the decoder's hardening cases as plain
// tests, so they run on every `go test` (the fuzzer only replays its
// corpus there).
func TestLoadRejectsCorruption(t *testing.T) {
	space := fuzzSpace(t)
	dir := t.TempDir()
	valid := filepath.Join(dir, "valid.json")
	if err := Save(valid, space, fuzzSnapshot()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(valid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(valid, space, fuzzSeed); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}

	cases := map[string][]byte{
		"truncated":         data[:len(data)/2],
		"empty":             {},
		"not-json":          []byte("not json"),
		"empty-object":      []byte(`{}`),
		"version-skew":      bytes.Replace(data, []byte(`"version": 1`), []byte(`"version": 99`), 1),
		"wrong-seed":        bytes.Replace(data, []byte(`"seed": 7`), []byte(`"seed": 8`), 1),
		"negative-draws":    bytes.Replace(data, []byte(`"rng_draws": 40`), []byte(`"rng_draws": -40`), 1),
		"negative-gen":      bytes.Replace(data, []byte(`"generation": 2`), []byte(`"generation": -2`), 1),
		"negative-stale":    bytes.Replace(data, []byte(`"stale": 1`), []byte(`"stale": -1`), 1),
		"bad-genome":        bytes.Replace(data, []byte(`"0,1"`), []byte(`"9,1"`), 1),
		"negative-distinct": bytes.Replace(data, []byte(`"distinct": 7`), []byte(`"distinct": -7`), 1),
		"empty-population":  bytes.Replace(data, []byte(`"population": [`), []byte(`"population": [],"x": [`), 1),
	}
	for name, mutated := range cases {
		if bytes.Equal(mutated, data) {
			t.Fatalf("case %s did not mutate the checkpoint", name)
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path, space, fuzzSeed); err == nil {
			t.Errorf("case %s: corrupted checkpoint accepted", name)
		}
	}
}

// TestDuplicateCacheEntryRefusesResume: a checkpoint whose cache names one
// point twice with different outcomes - a tampered file, since Save never
// writes one - cannot resume a run: the run fails instead of searching on
// either entry.
func TestDuplicateCacheEntryRefusesResume(t *testing.T) {
	space := fuzzSpace(t)
	snap := fuzzSnapshot()
	snap.Cache.Entries = append(snap.Cache.Entries,
		dataset.CacheEntrySnapshot{Key: "3,2", Metrics: metrics.Metrics{"luts": 999}})
	path := filepath.Join(t.TempDir(), "dup.json")
	if err := Save(path, space, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, space, fuzzSeed)
	if err != nil {
		return // refused at load: just as good
	}
	eval := func(pt param.Point) (metrics.Metrics, error) {
		return metrics.Metrics{"luts": float64(100 * (pt[0] + 1))}, nil
	}
	engine, err := ga.NewContext(space, metrics.MinimizeMetric("luts"), dataset.AdaptContext(eval),
		ga.Config{PopulationSize: len(snap.Population), Generations: 5, Seed: fuzzSeed, Resume: loaded}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := engine.RunContext(context.Background()); err == nil {
		t.Fatalf("resumed from a checkpoint with a duplicate cache entry: %+v", res)
	}
}
